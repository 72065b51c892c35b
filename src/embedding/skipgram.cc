#include "embedding/skipgram.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "graph/negative_sampler.h"
#include "numeric/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace tg {
namespace {

// Stream-id base for per-position Rng forks; far above the per-walk stream
// range used by RandomWalkGenerator::GenerateAll on the same seed.
constexpr uint64_t kPositionStreamBase = 0x5C1B6000000ULL;

// One epoch's token positions in shuffled-walk order: (walk index, offset).
std::vector<std::pair<uint32_t, uint32_t>> FlattenPositions(
    const std::vector<std::vector<uint32_t>>& corpus,
    const std::vector<size_t>& order) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  size_t total = 0;
  for (const auto& walk : corpus) total += walk.size();
  positions.reserve(total);
  for (size_t wi : order) {
    for (size_t pos = 0; pos < corpus[wi].size(); ++pos) {
      positions.emplace_back(static_cast<uint32_t>(wi),
                             static_cast<uint32_t>(pos));
    }
  }
  return positions;
}

// Prefetches the head of an embedding row; the hardware streamer follows the
// rest of the (64B-aligned, contiguous) row once the first lines are inbound.
inline void PrefetchRow(const double* row, size_t dim) {
  __builtin_prefetch(row, /*rw=*/1, /*locality=*/2);
  if (dim > 8) __builtin_prefetch(row + 8, /*rw=*/1, /*locality=*/2);
}

// Online SGD update for one token position against (input, output): sample a
// context radius, then for each context word train the positive pair plus
// `negatives` negative samples, applying the center gradient after each pair
// (word2vec update order). The pair math lives in
// kernels::FusedDotSigmoidUpdate. All randomness comes from `prng`, which the
// caller forks off the position's global index.
void UpdateOnePosition(const std::vector<uint32_t>& walk, uint32_t pos,
                       double lr, int window, int negatives,
                       const UnigramNegativeSampler& sampler, Rng* prng,
                       size_t dim, Matrix* input, Matrix* output,
                       std::vector<double>* center_grad_buf,
                       std::vector<uint32_t>* neg_buf) {
  const int radius =
      1 + static_cast<int>(prng->NextBelow(static_cast<uint64_t>(window)));
  const uint32_t center = walk[pos];
  const size_t lo_ctx = pos >= static_cast<uint32_t>(radius)
                            ? pos - static_cast<uint32_t>(radius)
                            : 0;
  const size_t hi_ctx =
      std::min(walk.size(),
               static_cast<size_t>(pos) + static_cast<size_t>(radius) + 1);
  double* w = input->RowPtr(center);
  double* center_grad = center_grad_buf->data();
  auto train_pair = [&](uint32_t context, double label) {
    kernels::FusedDotSigmoidUpdate(w, output->RowPtr(context), center_grad,
                                   dim, label, lr);
  };
  for (size_t ctx_pos = lo_ctx; ctx_pos < hi_ctx; ++ctx_pos) {
    if (ctx_pos == pos) continue;
    std::fill(center_grad_buf->begin(), center_grad_buf->end(), 0.0);
    // Pre-draw this pair's negatives. The draws were already consecutive
    // (training a pair consumes no randomness), so batching them first
    // leaves the Rng stream -- and therefore every result -- bit-identical,
    // while letting us issue the output-row prefetches below before the
    // positive update instead of eating each row's miss inside the loop.
    // PrefetchNext additionally hides the alias-table entry miss of draw
    // k+1 under draw k.
    neg_buf->clear();
    sampler.PrefetchNext(*prng);
    for (int k = 0; k < negatives; ++k) {
      const uint32_t neg = static_cast<uint32_t>(sampler.Sample(prng));
      sampler.PrefetchNext(*prng);
      if (neg == walk[ctx_pos] || neg == center) continue;
      neg_buf->push_back(neg);
    }
    for (uint32_t neg : *neg_buf) PrefetchRow(output->RowPtr(neg), dim);
    train_pair(walk[ctx_pos], 1.0);
    for (uint32_t neg : *neg_buf) train_pair(neg, 0.0);
    kernels::Add(w, center_grad, dim);
  }
}

// Parameter mixing at the epoch boundary: overwrite `base` with the replica
// average, accumulating in shard order (copy rep[0], add rep[1..S-1], scale)
// so the floating-point order is fixed. Cache-blocked: rows are merged in
// blocks, and within a block each replica is read as one contiguous span
// rather than re-touched once per row -- S short sequential streams the
// hardware prefetcher can follow. Add and Scale are elementwise, so the
// blocking does not change a single bit of the result.
void MergeReplicas(const std::vector<Matrix>& rep, Matrix* base) {
  constexpr size_t kMergeRowBlock = 64;
  const size_t rows = base->rows();
  const size_t dim = base->cols();
  const double inv = 1.0 / static_cast<double>(rep.size());
  for (size_t r0 = 0; r0 < rows; r0 += kMergeRowBlock) {
    const size_t n = (std::min(rows, r0 + kMergeRowBlock) - r0) * dim;
    double* dst = base->RowPtr(r0);
    std::memcpy(dst, rep[0].RowPtr(r0), n * sizeof(double));
    for (size_t s = 1; s < rep.size(); ++s) {
      kernels::Add(dst, rep[s].RowPtr(r0), n);
    }
    kernels::Scale(dst, inv, n);
  }
}

}  // namespace

SkipGramTrainer::SkipGramTrainer(size_t vocab_size,
                                 const SkipGramConfig& config)
    : vocab_size_(vocab_size), config_(config) {
  TG_CHECK_GT(vocab_size, 0u);
  TG_CHECK_GT(config.dim, 0u);
  // word2vec-style init: inputs small uniform, outputs zero.
  Rng init_rng(0x5EEDF00DULL);
  const double bound = 0.5 / static_cast<double>(config.dim);
  input_ = Matrix::Uniform(vocab_size, config.dim, &init_rng, -bound, bound);
  output_ = Matrix(vocab_size, config.dim);
}

void SkipGramTrainer::Train(const std::vector<std::vector<uint32_t>>& corpus,
                            Rng* rng) {
  TG_TRACE_SPAN("skipgram_train");
  // Token frequencies drive the negative-sampling distribution.
  std::vector<double> freqs(vocab_size_, 1.0);  // +1 smoothing
  size_t total_tokens = 0;
  for (const auto& walk : corpus) {
    total_tokens += walk.size();
    for (uint32_t tok : walk) {
      TG_CHECK_LT(tok, vocab_size_);
      freqs[tok] += 1.0;
    }
  }
  if (total_tokens == 0) return;
  // The alias table is built exactly once per Train call and shared by every
  // epoch/shard (tests/kernels_test.cc pins this via the counter).
  static obs::Counter& sampler_builds =
      obs::MetricsRegistry::Instance().GetCounter("skipgram.sampler_builds");
  const UnigramNegativeSampler sampler(freqs, config_.sampling_power);
  sampler_builds.Increment();

  // Every position derives its learning rate from its global index and its
  // randomness (window radius, negative draws) from an Rng forked off that
  // index, so results do not depend on which thread processes which position.
  const size_t dim = config_.dim;
  const double lr_min = config_.initial_lr * config_.min_lr_fraction;
  const size_t total_work = total_tokens * static_cast<size_t>(config_.epochs);
  const auto lr_at = [&](size_t global_position) {
    const double progress = static_cast<double>(global_position) /
                            static_cast<double>(total_work);
    return std::max(lr_min, config_.initial_lr * (1.0 - progress));
  };

  std::vector<size_t> order(corpus.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Replica storage persists across epochs (re-copied from the shared
  // parameters each epoch without reallocating).
  std::vector<Matrix> rep_in;
  std::vector<Matrix> rep_out;

  size_t epoch_base = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    TG_TRACE_SPAN("skipgram_epoch");
    rng->Shuffle(&order);
    const auto positions = FlattenPositions(corpus, order);
    if (positions.empty()) continue;

    // Contiguous position blocks, one per shard; the count is clamped by
    // the data size but NEVER by the thread count (determinism contract).
    const size_t want = std::max<size_t>(1, config_.num_shards);
    const size_t block =
        (positions.size() + want - 1) / std::min(want, positions.size());
    const size_t shards = (positions.size() + block - 1) / block;

    // Each shard trains online on its own replica of the parameters.
    {
      TG_TRACE_SPAN("skipgram_replicate");
      rep_in.resize(shards);
      rep_out.resize(shards);
      for (size_t s = 0; s < shards; ++s) {
        rep_in[s] = input_;
        rep_out[s] = output_;
      }
    }
    ParallelFor(0, shards, 1, [&](size_t s0, size_t s1, size_t /*chunk*/) {
      TG_TRACE_SPAN("skipgram_shard_train");
      std::vector<double> center_grad(dim);
      std::vector<uint32_t> neg_buf;
      neg_buf.reserve(static_cast<size_t>(std::max(config_.negatives, 1)));
      for (size_t s = s0; s < s1; ++s) {
        const size_t lo = s * block;
        const size_t hi = std::min(positions.size(), lo + block);
        for (size_t i = lo; i < hi; ++i) {
          const auto& [wi, pos] = positions[i];
          Rng prng = rng->Fork(kPositionStreamBase + epoch_base + i);
          UpdateOnePosition(corpus[wi], pos, lr_at(epoch_base + i),
                            config_.window, config_.negatives, sampler, &prng,
                            dim, &rep_in[s], &rep_out[s], &center_grad,
                            &neg_buf);
        }
      }
    });

    {
      TG_TRACE_SPAN("skipgram_merge");
      MergeReplicas(rep_in, &input_);
      MergeReplicas(rep_out, &output_);
    }
    epoch_base += positions.size();
  }
}

double SkipGramTrainer::PairProbability(uint32_t center,
                                        uint32_t context) const {
  TG_CHECK_LT(center, vocab_size_);
  TG_CHECK_LT(context, vocab_size_);
  // Inference-quality score: exact sigmoid regardless of the training mode.
  return kernels::ExactSigmoid(kernels::Dot(
      input_.RowPtr(center), output_.RowPtr(context), config_.dim));
}

}  // namespace tg
