// Shared pieces of the tg_perfbench driver: run options, the workload
// configuration, and the benchmark's own layer clock.
#ifndef TG_PERFBENCH_PERFBENCH_H_
#define TG_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "zoo/model_zoo.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Shrunken catalog for the smoke test: same code paths, seconds not
  // minutes.
  bool tiny = false;
  // Flip one bit of the first prediction so the correctness gate must trip.
  bool perturb = false;
};

// Pool size of the 4-thread workloads (TG_THREADS=4, the box's nproc).
inline constexpr size_t kParallelThreads = 4;

double NowSeconds();

// Zoo and pipeline configuration of every workload: the product defaults
// (what `tg_cli rank` / `tg_cli sweep` use) with the world seeded by --seed.
tg::zoo::ModelZooConfig ZooConfig(const Options& options);
tg::core::PipelineConfig DefaultPipelineConfig();

// The image evaluation targets in the seed's rotation order.
std::vector<size_t> Rotation(const tg::zoo::ModelZoo& zoo, uint64_t seed);

// Wall time per named layer, recorded by RAII spans in the benchmark's own
// code around calls into the library.
class LayerClock {
 public:
  class Span {
   public:
    Span(LayerClock* clock, const std::string& name)
        : clock_(clock), name_(name), start_(NowSeconds()) {}
    ~Span() { clock_->seconds_[name_] += NowSeconds() - start_; }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    LayerClock* clock_;
    std::string name_;
    double start_;
  };

  double Get(const std::string& name) const {
    auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  double Total() const {
    double total = 0.0;
    for (const auto& [name, s] : seconds_) total += s;
    return total;
  }

 private:
  std::map<std::string, double> seconds_;
};

// Per-layer metrics of a traced run (--trace 1), keyed by metric name.
using LayerMetrics = std::map<std::string, double>;

// Traced runs: replay one query layer by layer (query workloads) or read the
// program's own metrics registry around one sweep (sweep-image). Failures of
// the replay's bit-identity check are appended to `failures`.
LayerMetrics TraceQueryCold(const Options& options,
                            std::vector<std::string>* failures);
LayerMetrics TraceQueryWarm(const Options& options,
                            std::vector<std::string>* failures);
LayerMetrics TraceSweep(const Options& options,
                        std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // TG_PERFBENCH_PERFBENCH_H_
