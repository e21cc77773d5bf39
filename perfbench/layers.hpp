// Per-layer probes for the traced run: each compiler pass, the planners, the
// executor, a kernel-by-kernel replay of the executed graph, the wavefront
// executor, and the decomposed reference on the same executor.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// One model of a workload, as the workload compiled it.
struct LayerModel {
  std::string name;      ///< zoo name, labels per-variant check details
  ir::Graph decomposed;  ///< batch-1 template the compiler started from
  std::shared_ptr<const serve::CompiledModel> compiled;
  std::vector<std::size_t> batches;  ///< batch variants the workload executes
};

/// Measures every per-layer metric that is not a serving-front-end metric,
/// summed over `models` and their batches, and adds the traced run's
/// self-checks (reconciliation, zero heap allocations on the arena path).
/// `reps` is the number of timed repetitions per executed variant.
void probe_layers(const std::vector<LayerModel>& models, int reps, Report& report);

}  // namespace perfbench
