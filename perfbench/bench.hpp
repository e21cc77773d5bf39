// Shared harness types: run arguments, the report a run fills in, the span
// tracer, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "serve/compiled_model.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using namespace temco;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;                ///< result JSON path
  std::string trace_out;          ///< span dump path (traced runs)
  std::vector<double> rates;      ///< serve_mix ladder, requests/s, ascending
  double slo_ms = 0.0;            ///< serve_mix latency limit on the tail
  double max_gen_lag_ms = 0.0;    ///< serve_mix generator-lateness bound
  std::int64_t slab_budget = 0;   ///< serve_mix per-model slab cap, bytes
};

/// Everything one run measured and checked.  Metric order is preserved.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  /// A gating check decides `correct`; a non-gating one records whether
  /// the program meets an expectation, without invalidating the run.
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
    bool gate;
  };
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> info;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail, true});
  }
  void expect(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail, false});
  }
  void note(const std::string& key, const std::string& value) { info.emplace_back(key, value); }
  bool all_checks_ok() const {
    for (const Check& c : checks) {
      if (c.gate && !c.ok) return false;
    }
    return true;
  }
};

// ---- tracing ---------------------------------------------------------------

/// One timed call into a layer.  Times are nanoseconds since the tracer's
/// epoch; `parent` is the enclosing span on the same thread (0: none), and
/// `request` ties the spans of one serving request together (0: none).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// In-memory span store.  Disabled (the untraced run) it records nothing and
/// a SpanScope costs one branch.  Spans are written out once, at exit.
class Tracer {
 public:
  static Tracer& get();

  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }
  std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  /// Opens a span on the calling thread, nested under its open span.
  std::uint64_t open(const char* name, std::uint64_t request);
  void close(std::uint64_t id);

  /// Records a finished top-level span whose ends were timed elsewhere (for
  /// example submit on one thread, future ready observed on another).
  void record(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request);

  struct Totals {
    std::string name;
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per span name: call count, summed duration, and summed self time (the
  /// duration minus the part of it covered by child spans).
  std::vector<Totals> totals() const;

  std::size_t size() const;
  void write(const std::string& path) const;

 private:
  Tracer() : epoch_(Clock::now()) {}
  /// The calling thread's innermost open span (0: none).
  std::uint64_t current() const;

  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t request = 0)
      : id_(Tracer::get().enabled() ? Tracer::get().open(name, request) : 0) {}
  ~SpanScope() {
    if (id_ != 0) Tracer::get().close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint64_t id_;
};

// ---- statistics --------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Percent -> quantile name fragment, e.g. 95 -> "p95", 99.9 -> "p99.9".
std::string percentile_label(double percent);

double seconds_since(Clock::time_point start);

// ---- model pipeline ------------------------------------------------------------

/// The deployment path's first two steps: the zoo model at batch 1 and its
/// Tucker (ratio 0.1) decomposition.
struct ModelSource {
  std::string name;
  models::ModelConfig config;
};
ir::Graph build_model(const ModelSource& source);
ir::Graph decompose(const ir::Graph& graph);

/// Kernel threads per session executor (CompileOptions::intra_op_threads)
/// in every workload.  One thread per session is the throughput deployment,
/// and a batch then waits on one core, not the slowest of several, which
/// keeps timings steady on a shared host.
inline constexpr std::size_t kIntraOpThreads = 1;
inline constexpr const char* kIntraOpNote =
    "1 per session executor, and the process-global pool is retired at start, "
    "so every kernel (the fused kernel's arena path included) runs on the "
    "thread that calls it";

/// What "compiled identically" means for the determinism self-check: slab
/// and packed bytes, node counts (remat duplicates included) and every
/// OptimizeStats counter.
std::string fingerprint(const serve::CompiledModel& model);

/// Deterministic request inputs: one batch-1 tensor per model input, drawn
/// from (seed, stream, index) so workloads never share a draw.
std::vector<Tensor> make_request(const serve::CompiledModel& model, std::uint64_t seed,
                                 std::uint64_t stream, std::uint64_t index);

/// Stacks batch-1 tensors along the batch dimension.
Tensor stack(const std::vector<const Tensor*>& rows);

/// Output agreement with the reference, the Fig. 12 way: relative error plus
/// top-5 agreement for classifier logits, dice of the thresholded mask for
/// segmentation logits.
struct Agreement {
  double rel_error = 0.0;
  double top5 = 1.0;  ///< classifiers only
  double dice = 1.0;  ///< segmentation only
  bool ok = true;
};
inline constexpr double kMaxRelError = 1e-3;
inline constexpr double kMinTop5 = 1.0;
inline constexpr double kMinDice = 0.99;
Agreement compare_output(const Tensor& reference, const Tensor& candidate, bool segmentation);

/// Process-wide count of operator new calls (see main.cpp).
std::uint64_t heap_allocations();

// ---- workloads -------------------------------------------------------------------

void run_offline(const Args& args, Report& report);
void run_serving(const Args& args, Report& report);

}  // namespace perfbench
