#include <cstdint>
#include <map>

#include <gtest/gtest.h>

#include "embedding/random_walk.h"

namespace tg {
namespace {

Graph PathGraph(size_t n) {
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(NodeType::kDataset, "n" + std::to_string(i));
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddUndirectedEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                        EdgeType::kDatasetDataset, 1.0);
  }
  return g;
}

Graph TriangleWithTail() {
  // 0-1-2 triangle, 2-3 tail.
  Graph g;
  for (int i = 0; i < 4; ++i) {
    g.AddNode(NodeType::kDataset, "n" + std::to_string(i));
  }
  g.AddUndirectedEdge(0, 1, EdgeType::kDatasetDataset, 1.0);
  g.AddUndirectedEdge(1, 2, EdgeType::kDatasetDataset, 1.0);
  g.AddUndirectedEdge(0, 2, EdgeType::kDatasetDataset, 1.0);
  g.AddUndirectedEdge(2, 3, EdgeType::kDatasetDataset, 1.0);
  return g;
}

// Zoo-shaped: a complete dataset-dataset block plus model-dataset edges,
// where model 0 and its source dataset 0 carry three parallel typed edges
// (pre-train accuracy, history accuracy and LogME), as in the zoo graph.
Graph ZooShapedGraph() {
  Graph g;
  constexpr NodeId kDatasets = 8;
  constexpr NodeId kModels = 6;
  for (NodeId i = 0; i < kDatasets; ++i) {
    g.AddNode(NodeType::kDataset, "d" + std::to_string(i));
  }
  for (NodeId i = 0; i < kModels; ++i) {
    g.AddNode(NodeType::kModel, "m" + std::to_string(i));
  }
  Rng rng(42);
  for (NodeId a = 0; a < kDatasets; ++a) {
    for (NodeId b = a + 1; b < kDatasets; ++b) {
      g.AddUndirectedEdge(a, b, EdgeType::kDatasetDataset,
                          0.05 + rng.NextDouble());
    }
  }
  // Light enough that node2vec+ does not clamp their sum at its threshold,
  // so w(m0, d0) must add all three.
  const NodeId m0 = kDatasets;
  g.AddUndirectedEdge(m0, 0, EdgeType::kModelDatasetAccuracy, 0.05);
  g.AddUndirectedEdge(m0, 0, EdgeType::kModelDatasetAccuracy, 0.15);
  g.AddUndirectedEdge(m0, 0, EdgeType::kModelDatasetTransferability, 0.1);
  for (NodeId m = 0; m < kModels; ++m) {
    for (NodeId k = 1; k <= 3; ++k) {
      g.AddUndirectedEdge(kDatasets + m, (m + 2 * k) % kDatasets,
                          k == 2 ? EdgeType::kModelDatasetTransferability
                                 : EdgeType::kModelDatasetAccuracy,
                          0.2 + 0.8 * rng.NextDouble());
    }
  }
  return g;
}

uint64_t WalkDigest(const std::vector<std::vector<NodeId>>& walks) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::vector<NodeId>& walk : walks) {
    mix(walk.size());
    for (NodeId node : walk) mix(node);
  }
  return h;
}

// Pins the exact walks of both bias rules: the RNG stream, the bias, and a
// w(candidate, prev) that sums every parallel edge of the pair.
TEST(RandomWalkTest, GenerateAllMatchesGoldenDigest) {
  Graph g = ZooShapedGraph();
  WalkConfig classic;
  classic.walks_per_node = 4;
  classic.walk_length = 30;
  classic.p = 0.5;
  classic.q = 2.0;
  WalkConfig extended = classic;
  extended.q = 0.25;
  extended.extended = true;
  Rng classic_rng(17);
  Rng extended_rng(17);
  EXPECT_EQ(WalkDigest(RandomWalkGenerator(g, classic)
                           .GenerateAll(&classic_rng)),
            0x3068576882d4de63ULL);
  EXPECT_EQ(WalkDigest(RandomWalkGenerator(g, extended)
                           .GenerateAll(&extended_rng)),
            0xeb6ff6b62252d0c2ULL);
}

TEST(RandomWalkTest, WalkLengthRespected) {
  Graph g = PathGraph(10);
  WalkConfig config;
  config.walk_length = 7;
  RandomWalkGenerator walker(g, config);
  Rng rng(1);
  auto walk = walker.Walk(0, &rng);
  EXPECT_EQ(walk.size(), 7u);
  EXPECT_EQ(walk[0], 0u);
}

TEST(RandomWalkTest, StepsFollowEdges) {
  Graph g = PathGraph(6);
  RandomWalkGenerator walker(g, WalkConfig{});
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    auto walk = walker.Walk(2, &rng);
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
      EXPECT_TRUE(g.HasEdgeBetween(walk[i], walk[i + 1]))
          << walk[i] << "->" << walk[i + 1];
    }
  }
}

TEST(RandomWalkTest, IsolatedNodeStops) {
  Graph g;
  g.AddNode(NodeType::kModel, "alone");
  RandomWalkGenerator walker(g, WalkConfig{});
  Rng rng(3);
  auto walk = walker.Walk(0, &rng);
  EXPECT_EQ(walk.size(), 1u);
}

TEST(RandomWalkTest, GenerateAllCount) {
  Graph g = PathGraph(5);
  WalkConfig config;
  config.walks_per_node = 3;
  RandomWalkGenerator walker(g, config);
  Rng rng(4);
  auto walks = walker.GenerateAll(&rng);
  EXPECT_EQ(walks.size(), 15u);
}

TEST(RandomWalkTest, LowPEncouragesBacktracking) {
  Graph g = PathGraph(20);
  WalkConfig returny;
  returny.p = 0.05;
  returny.q = 1.0;
  returny.walk_length = 50;
  WalkConfig explory;
  explory.p = 20.0;
  explory.q = 1.0;
  explory.walk_length = 50;

  auto count_backtracks = [&](const WalkConfig& config, uint64_t seed) {
    RandomWalkGenerator walker(g, config);
    Rng rng(seed);
    int backtracks = 0;
    int steps = 0;
    for (int trial = 0; trial < 50; ++trial) {
      auto walk = walker.Walk(10, &rng);
      for (size_t i = 2; i < walk.size(); ++i) {
        ++steps;
        if (walk[i] == walk[i - 2]) ++backtracks;
      }
    }
    return static_cast<double>(backtracks) / steps;
  };

  EXPECT_GT(count_backtracks(returny, 5), count_backtracks(explory, 5) + 0.2);
}

TEST(RandomWalkTest, TransitionBiasClassic) {
  Graph g = TriangleWithTail();
  WalkConfig config;
  config.p = 4.0;
  config.q = 0.25;
  RandomWalkGenerator walker(g, config);
  // At node 2 coming from node 1:
  EXPECT_DOUBLE_EQ(walker.TransitionBias(1, 1), 0.25);  // return: 1/p
  EXPECT_DOUBLE_EQ(walker.TransitionBias(1, 0), 1.0);   // 0 adjacent to 1
  EXPECT_DOUBLE_EQ(walker.TransitionBias(1, 3), 4.0);   // 3 not adjacent: 1/q
}

TEST(RandomWalkTest, ExtendedBiasInterpolatesWithWeight) {
  // Two graphs identical except the candidate-previous edge weight.
  auto make = [](double weight) {
    Graph g;
    for (int i = 0; i < 3; ++i) {
      g.AddNode(NodeType::kDataset, "n" + std::to_string(i));
    }
    // walk ... t=0, v=1, candidate=2; (2,0) edge with `weight`.
    g.AddUndirectedEdge(0, 1, EdgeType::kDatasetDataset, 1.0);
    g.AddUndirectedEdge(1, 2, EdgeType::kDatasetDataset, 1.0);
    g.AddUndirectedEdge(2, 0, EdgeType::kDatasetDataset, weight);
    return g;
  };

  WalkConfig config;
  config.q = 4.0;  // 1/q = 0.25
  config.extended = true;

  Graph strong = make(1.0);
  Graph weak = make(0.05);
  RandomWalkGenerator strong_walker(strong, config);
  RandomWalkGenerator weak_walker(weak, config);

  const double strong_bias = strong_walker.TransitionBias(0, 2);
  const double weak_bias = weak_walker.TransitionBias(0, 2);
  // Strong connection behaves like an in-edge (bias ~1); weak connection
  // approaches the out-edge bias 1/q.
  EXPECT_NEAR(strong_bias, 1.0, 1e-9);
  EXPECT_LT(weak_bias, 0.5);
  EXPECT_GT(weak_bias, 0.25 - 1e-9);
}

TEST(RandomWalkTest, WeightedFirstStepPrefersHeavyEdge) {
  Graph g;
  g.AddNode(NodeType::kDataset, "hub");
  g.AddNode(NodeType::kDataset, "heavy");
  g.AddNode(NodeType::kDataset, "light");
  g.AddUndirectedEdge(0, 1, EdgeType::kDatasetDataset, 10.0);
  g.AddUndirectedEdge(0, 2, EdgeType::kDatasetDataset, 0.1);
  WalkConfig config;
  config.walk_length = 2;
  RandomWalkGenerator walker(g, config);
  Rng rng(7);
  int heavy = 0;
  for (int i = 0; i < 2000; ++i) {
    auto walk = walker.Walk(0, &rng);
    ASSERT_EQ(walk.size(), 2u);
    if (walk[1] == 1) ++heavy;
  }
  EXPECT_GT(heavy, 1900);
}

}  // namespace
}  // namespace tg
