// Tests for the fault-injection substrate, the atomic file writer, the
// hardened serialization loader, and the TG_CHECK failure hook.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/serialization.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/csv.h"
#include "util/fault.h"

namespace tg {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::string Slurp(const std::string& path) {
  Result<std::string> contents = ReadFileToString(path);
  return contents.ok() ? contents.value() : std::string();
}

// Every test leaves the substrate disarmed for its neighbours.
class FaultTest : public ::testing::Test {
 protected:
  ~FaultTest() override { fault::ClearFaults(); }
};

// --- Spec parsing -----------------------------------------------------------

TEST_F(FaultTest, ParsesEveryModeAndModifier) {
  Result<std::vector<fault::SiteRule>> rules = fault::ParseSpec(
      "a=always; b=once; c=hit:3; d=after:2:once; "
      "e=prob:0.25:seed:9:min:1024");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules.value().size(), 5u);
  EXPECT_EQ(rules.value()[0].mode, fault::SiteRule::Mode::kAlways);
  EXPECT_FALSE(rules.value()[0].once);
  EXPECT_TRUE(rules.value()[1].once);
  EXPECT_EQ(rules.value()[2].mode, fault::SiteRule::Mode::kHit);
  EXPECT_EQ(rules.value()[2].n, 3u);
  EXPECT_EQ(rules.value()[3].mode, fault::SiteRule::Mode::kAfter);
  EXPECT_TRUE(rules.value()[3].once);
  EXPECT_EQ(rules.value()[4].mode, fault::SiteRule::Mode::kProb);
  EXPECT_DOUBLE_EQ(rules.value()[4].probability, 0.25);
  EXPECT_EQ(rules.value()[4].seed, 9u);
  EXPECT_EQ(rules.value()[4].min_weight, 1024u);
}

TEST_F(FaultTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "noequals",        "=always",       "s=",           "s=hit",
      "s=hit:0",         "s=hit:-1",      "s=after",      "s=prob",
      "s=prob:1.5",      "s=prob:x",      "s=prob:nan",   "s=bogus",
      "s=always:bogus",  "s=always:seed", "s=once:min:x", "a=always;a=once",
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(fault::ParseSpec(spec).ok()) << "accepted: " << spec;
  }
}

TEST_F(FaultTest, EmptySpecAndWhitespaceAreFine) {
  EXPECT_TRUE(fault::ParseSpec("").ok());
  EXPECT_TRUE(fault::ParseSpec(" ; ;").ok());
  EXPECT_TRUE(fault::InstallSpec("").ok());
  EXPECT_FALSE(fault::Armed());
}

// --- Trigger semantics ------------------------------------------------------

TEST_F(FaultTest, DisarmedFastPathNeverFires) {
  EXPECT_FALSE(fault::Armed());
  EXPECT_FALSE(TG_FAULT_POINT("anything"));
  EXPECT_EQ(fault::TotalFired(), 0u);
}

TEST_F(FaultTest, HitFiresExactlyOnNthHit) {
  ASSERT_TRUE(fault::InstallSpec("site=hit:3").ok());
  EXPECT_TRUE(fault::Armed());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(TG_FAULT_POINT("site"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(fault::SiteHits("site"), 6u);
  EXPECT_EQ(fault::SiteFired("site"), 1u);
  EXPECT_FALSE(TG_FAULT_POINT("other.site"));
}

TEST_F(FaultTest, AfterFiresOnEveryLaterHitAndOnceLatches) {
  ASSERT_TRUE(fault::InstallSpec("a=after:2;b=after:2:once").ok());
  std::vector<bool> a, b;
  for (int i = 0; i < 5; ++i) {
    a.push_back(TG_FAULT_POINT("a"));
    b.push_back(TG_FAULT_POINT("b"));
  }
  EXPECT_EQ(a, (std::vector<bool>{false, false, true, true, true}));
  EXPECT_EQ(b, (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(fault::SiteFired("b"), 1u);
}

TEST_F(FaultTest, ProbIsDeterministicInHitIndex) {
  auto run = [] {
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(TG_FAULT_POINT("p"));
    }
    return fired;
  };
  ASSERT_TRUE(fault::InstallSpec("p=prob:0.3:seed:42").ok());
  const std::vector<bool> first = run();
  ASSERT_TRUE(fault::InstallSpec("p=prob:0.3:seed:42").ok());
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  size_t count = 0;
  for (bool f : first) count += f ? 1 : 0;
  EXPECT_GT(count, 30u);  // ~60 expected
  EXPECT_LT(count, 100u);
  ASSERT_TRUE(fault::InstallSpec("p=prob:0.3:seed:43").ok());
  EXPECT_NE(run(), first) << "seed should change the schedule";
}

TEST_F(FaultTest, MinWeightFiltersEligibility) {
  ASSERT_TRUE(fault::InstallSpec("w=always:min:100").ok());
  EXPECT_FALSE(TG_FAULT_POINT_W("w", 99));
  EXPECT_FALSE(TG_FAULT_POINT("w"));  // no weight = never eligible
  EXPECT_EQ(fault::SiteHits("w"), 0u) << "ineligible hits are not counted";
  EXPECT_TRUE(TG_FAULT_POINT_W("w", 100));
  EXPECT_EQ(fault::SiteHits("w"), 1u);
}

// --- Atomic file writer -----------------------------------------------------

TEST_F(FaultTest, AtomicWriterPublishesAndCleansUp) {
  const std::string path = TempPath("atomic_ok.txt");
  std::remove(path.c_str());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.Append("hello ");
    writer.Append("world");
    EXPECT_FALSE(FileExists(path)) << "must not be visible before Commit";
    EXPECT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(Slurp(path), "hello world");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FaultTest, WriteFaultLeavesOldContentIntact) {
  const std::string path = TempPath("atomic_write_fault.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  ASSERT_TRUE(fault::InstallSpec("atomic_file.write=always").ok());
  Status status = WriteFileAtomic(path, "new");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("injected fault"), std::string::npos);
  fault::ClearFaults();
  EXPECT_EQ(Slurp(path), "old");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FaultTest, RenameAndFsyncFaultsDiscardTheTemp) {
  const std::string path = TempPath("atomic_rename_fault.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  for (const char* spec :
       {"atomic_file.rename=always", "atomic_file.fsync=always",
        "atomic_file.open=always"}) {
    ASSERT_TRUE(fault::InstallSpec(spec).ok());
    EXPECT_FALSE(WriteFileAtomic(path, "new").ok()) << spec;
    fault::ClearFaults();
    EXPECT_EQ(Slurp(path), "old") << spec;
    EXPECT_FALSE(FileExists(path + ".tmp")) << spec;
  }
}

TEST_F(FaultTest, CrashBeforeRenameLeavesTempDebris) {
  const std::string path = TempPath("atomic_crash.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(fault::InstallSpec("atomic_file.crash_before_rename=once").ok());
  EXPECT_FALSE(WriteFileAtomic(path, "data").ok());
  fault::ClearFaults();
  EXPECT_FALSE(FileExists(path)) << "the rename never happened";
  EXPECT_TRUE(FileExists(path + ".tmp")) << "crash debris must remain";
  EXPECT_EQ(Slurp(path + ".tmp"), "data") << "temp was fully durable";
  // Recovery: a later successful write publishes and reclaims the name.
  EXPECT_TRUE(WriteFileAtomic(path, "data2").ok());
  EXPECT_EQ(Slurp(path), "data2");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// --- CsvWriter error latching -----------------------------------------------

TEST_F(FaultTest, CsvWriterLatchesWriteErrors) {
  const std::string path = TempPath("csv_fault.csv");
  std::remove(path.c_str());
  ASSERT_TRUE(fault::InstallSpec("atomic_file.write=hit:2").ok());
  CsvWriter csv(path);
  ASSERT_TRUE(csv.ok());
  csv.WriteRow({"a", "b"});   // hit 1: fine
  csv.WriteRow({"c", "d"});   // hit 2: injected failure latches
  EXPECT_FALSE(csv.ok());
  csv.WriteRow({"e", "f"});   // dropped silently, no crash
  Status closed = csv.Close();
  EXPECT_FALSE(closed.ok());
  EXPECT_NE(closed.message().find("injected fault"), std::string::npos);
  fault::ClearFaults();
  EXPECT_FALSE(FileExists(path)) << "failed CSV must not be published";
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// --- Serialization hardening ------------------------------------------------

class SerializationCorruptionTest : public FaultTest {
 protected:
  static Graph MakeGraph() {
    Graph g;
    NodeId d0 = g.AddNode(NodeType::kDataset, "cifar100");
    NodeId d1 = g.AddNode(NodeType::kDataset, "pets");
    NodeId m0 = g.AddNode(NodeType::kModel, "resnet-50");
    g.AddUndirectedEdge(d0, d1, EdgeType::kDatasetDataset, 0.75);
    g.AddUndirectedEdge(m0, d0, EdgeType::kModelDatasetAccuracy, 0.91);
    return g;
  }

  // Writes raw bytes and expects the loader to reject them with a Status.
  void ExpectRejected(const std::string& contents, const std::string& label) {
    const std::string path = TempPath("corrupt_" + label + ".tsv");
    ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
    Result<Graph> loaded = ReadGraphFromFile(path);
    EXPECT_FALSE(loaded.ok()) << label << " should have been rejected";
  }
};

TEST_F(SerializationCorruptionTest, RejectsCorruptFixtures) {
  const std::string header = "# transfergraph v1\n";
  const std::string nodes =
      "node\t0\tdataset\tcifar100\nnode\t1\tdataset\tpets\n";
  ExpectRejected(header + nodes + "edge\t0\t1\tdd\tnan\n", "nan_weight");
  ExpectRejected(header + nodes + "edge\t0\t1\tdd\tinf\n", "inf_weight");
  ExpectRejected(header + nodes + "edge\t0\t1\tdd\t1e999\n", "huge_weight");
  ExpectRejected(header + nodes + "edge\t0\t1\tdd\tabc\n", "garbage_weight");
  ExpectRejected(header + nodes + "edge\t0\t7\tdd\t0.5\n", "out_of_range");
  ExpectRejected(header + nodes + "edge\t0\t-1\tdd\t0.5\n", "negative_id");
  ExpectRejected(header + nodes + "node\t2\tdataset\tpets\n",
                 "duplicate_name");
  ExpectRejected(header + "node\t5\tdataset\tcifar100\n", "bad_sequence");
  ExpectRejected(header + "node\tx\tdataset\tcifar100\n", "garbage_id");
  ExpectRejected(header + nodes + "blob\t0\t1\n", "unknown_record");
  ExpectRejected("# wrong header\n" + nodes, "bad_header");
  ExpectRejected(header + "node\t0\tdataset\tcifar100\nnode\t1\tdataset\tpe",
                 "truncated_final_record");
  ExpectRejected(header + "node\t0\tplasma\tcifar100\n", "bad_node_type");
  ExpectRejected(header + nodes + "edge\t0\t1\tzz\t0.5\n", "bad_edge_type");
}

TEST_F(SerializationCorruptionTest, RoundTripStillWorksAndWriterFaults) {
  Graph g = MakeGraph();
  const std::string path = TempPath("roundtrip_hardened.tsv");
  ASSERT_TRUE(WriteGraphToFile(g, path).ok());
  Result<Graph> loaded = ReadGraphFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.value().num_undirected_edges(), g.num_undirected_edges());

  const std::string before = Slurp(path);
  ASSERT_TRUE(fault::InstallSpec("serialization.write=always").ok());
  EXPECT_FALSE(WriteGraphToFile(g, path).ok());
  ASSERT_TRUE(fault::InstallSpec("serialization.read=always").ok());
  EXPECT_FALSE(ReadGraphFromFile(path).ok());
  fault::ClearFaults();
  EXPECT_EQ(Slurp(path), before) << "failed writes must not touch the file";
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// --- TG_FAULT environment knob ---------------------------------------------

// A malformed TG_FAULT is a hard error naming the value, never a chaos run
// that silently runs unarmed. The spec is read during static
// initialization, so the threadsafe death-test style matters: the child
// re-executes the binary, reads the variable afresh and exits before main.
TEST(FaultEnvDeathTest, MalformedSpecIsHardError) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"atomic_file.write", "x=sometimes", "x=hit:abc",
                          "x=always;x=once"}) {
    ASSERT_EQ(setenv("TG_FAULT", bad, 1), 0);
    EXPECT_EXIT(fault::ClearFaults(), ::testing::ExitedWithCode(1),
                std::string("TG_FAULT=") + bad + ": ")
        << bad;
  }
  unsetenv("TG_FAULT");
}

// --- TG_CHECK failure hook --------------------------------------------------

TEST(CheckFailureHookDeathTest, PrintsOpenSpanStackAndAborts) {
  EXPECT_DEATH(
      {
        obs::SetMetricsEnabled(true);
        obs::Span outer("crash_outer");
        obs::Span inner("crash_inner", "detail-42");
        TG_CHECK_MSG(false, "synthetic failure");
      },
      // gtest's death matcher is POSIX ERE where '.' stops at newlines, so
      // bridge lines with (.|\n)*.
      "TG_CHECK failed.*synthetic failure(.|\n)*open span stack(.|\n)*"
      "crash_outer(.|\n)*crash_inner \\[detail-42\\]");
}

TEST(CheckFailureHookDeathTest, SpanStackEmptyWhenObsDisabled) {
  // With tracing and metrics off, spans are inert (the fast path) and the
  // crash report carries no span stack -- only the diagnostic line.
  EXPECT_DEATH(
      {
        obs::Span outer("invisible");
        TG_CHECK(false);
      },
      "TG_CHECK failed");
}

TEST(CurrentSpanStackTest, TracksNestingOrder) {
  obs::SetMetricsEnabled(true);
  {
    obs::Span outer("outer");
    obs::Span inner("inner", "d");
    const std::vector<std::string> stack = obs::CurrentSpanStack();
    ASSERT_EQ(stack.size(), 2u);
    EXPECT_EQ(stack[0], "outer");
    EXPECT_EQ(stack[1], "inner [d]");
  }
  EXPECT_TRUE(obs::CurrentSpanStack().empty());
  obs::SetMetricsEnabled(false);
}

}  // namespace
}  // namespace tg
