// Offline workloads: one session, closed loop, one batch of 32 in flight.
//
//   dense_b32  DenseNet-121 (width 0.25, 32x32): the graph TeMCO rewrites
//              most (concat splits, restore copies, hundreds of fused
//              kernels), so per-node executor cost and add chains show here.
//   unet_b32   UNet-Half (width 0.25, 64x64): few rewrites and wide rows, so
//              fused-kernel tiling and 3x3 core-conv GEMMs dominate.
#include <algorithm>
#include <sstream>

#include "layers.hpp"
#include "runtime/executor.hpp"
#include "serve/session.hpp"

namespace perfbench {

namespace {

struct OfflineSpec {
  ModelSource source;
  bool segmentation;
  int setups;  ///< set-up repetitions; setup_s is their median
};

constexpr std::size_t kBatch = 32;
constexpr std::size_t kDistinctBatches = 4;  ///< input batches cycled by the loop
constexpr int kWarmupBatches = 5;
/// The timed loop is cut into this many equal segments; each metric is the
/// median over segments, so a burst of host noise (CPU steal on a shared
/// host) that spoils one segment does not move the result.
constexpr std::size_t kSegments = 4;
/// Tail percentile, and the per-segment sample count that puts ten samples
/// beyond it; a segment runs past its time until it has them.
constexpr double kTailPercent = 90.0;
constexpr std::size_t kMinSegmentSamples = 100;
/// Interleaved executor/replay repetitions of the traced probe.  One b32 pass
/// varies by about 10% with host load; the probe's 5% timing checks take
/// medians over the repetitions, and 10 of them failed one run in four.
constexpr int kProbeReps = 100;

OfflineSpec spec_for(const std::string& workload) {
  models::ModelConfig config;
  config.batch = 1;
  config.width = 0.25;
  if (workload == "dense_b32") {
    config.image = 32;
    return {{"densenet121", config}, false, 5};
  }
  config.image = 64;
  return {{"unet_half", config}, true, 9};
}

/// One pass of the deployment path: zoo -> decompose -> compile -> session.
struct Deployment {
  ir::Graph decomposed;
  std::shared_ptr<const serve::CompiledModel> model;
  std::unique_ptr<serve::SessionPool> pool;
  double decomp_s = 0.0;
  double compile_s = 0.0;
  double total_s = 0.0;
};

Deployment deploy(const ModelSource& source) {
  Deployment d;
  const auto start = Clock::now();
  ir::Graph original;
  {
    SpanScope span("models::build");
    original = build_model(source);
  }
  auto t = Clock::now();
  {
    SpanScope span("decomp::decompose");
    d.decomposed = decompose(original);
  }
  d.decomp_s = seconds_since(t);
  t = Clock::now();
  serve::CompileOptions options;
  options.max_batch = kBatch;
  options.intra_op_threads = kIntraOpThreads;
  {
    SpanScope span("serve::CompiledModel::compile");
    d.model = serve::CompiledModel::compile(d.decomposed, options);
  }
  d.compile_s = seconds_since(t);
  {
    SpanScope span("serve::SessionPool");
    d.pool = std::make_unique<serve::SessionPool>(d.model, 1);
  }
  d.total_s = seconds_since(start);
  return d;
}

}  // namespace

void run_offline(const Args& args, Report& report) {
  const OfflineSpec spec = spec_for(args.workload);
  report.note("model", spec.source.name);
  report.note("batch", std::to_string(kBatch));
  report.note("loop", "closed, one session, one batch in flight");
  report.note("intra_op_threads", kIntraOpNote);

  // ---- set-up, repeated: setup_s is the median; all must compile alike -----
  std::vector<double> setup_s, decomp_s, compile_s;
  std::vector<std::string> prints;
  Deployment d;
  for (int i = 0; i < spec.setups; ++i) {
    d = deploy(spec.source);
    setup_s.push_back(d.total_s);
    decomp_s.push_back(d.decomp_s);
    compile_s.push_back(d.compile_s);
    prints.push_back(fingerprint(*d.model));
  }
  const bool deterministic =
      std::all_of(prints.begin(), prints.end(), [&](const std::string& p) { return p == prints[0]; });
  report.check("deterministic_compile", deterministic,
               std::to_string(spec.setups) + " compiles: " + prints[0]);

  // ---- seeded inputs and their reference outputs ---------------------------
  // Reference: the decomposed graph on the plain (non-arena) executor.
  const serve::CompiledModel& model = *d.model;
  std::vector<std::vector<std::vector<Tensor>>> requests(kDistinctBatches);
  std::vector<std::vector<const std::vector<Tensor>*>> batches(kDistinctBatches);
  std::vector<Tensor> expected(kDistinctBatches);
  {
    const ir::Graph reference_graph = ir::rebatched(d.decomposed, static_cast<std::int64_t>(kBatch));
    runtime::Executor reference(reference_graph);
    for (std::size_t b = 0; b < kDistinctBatches; ++b) {
      std::vector<const Tensor*> rows;
      for (std::size_t r = 0; r < kBatch; ++r) {
        requests[b].push_back(make_request(model, args.seed, b, r));
      }
      for (std::size_t r = 0; r < kBatch; ++r) {
        batches[b].push_back(&requests[b][r]);
        rows.push_back(&requests[b][r][0]);
      }
      expected[b] = reference.run({stack(rows)}).outputs.at(0);
    }
  }

  serve::SessionPool& pool = *d.pool;
  for (int i = 0; i < kWarmupBatches; ++i) {
    auto lease = pool.acquire();
    lease->run_batch(batches[static_cast<std::size_t>(i) % kDistinctBatches]);
  }

  // ---- timed closed loop ------------------------------------------------------
  struct Sample {
    double latency_ms;
    double acquire_ms;
    double gap_ms;  ///< previous batch's end to this batch's start
    bool ok;
  };
  double worst_rel = 0.0, worst_top5 = 1.0, worst_dice = 1.0;
  auto run_loop = [&](double seconds, std::size_t min_samples) {
    std::vector<Sample> samples;
    const auto start = Clock::now();
    auto previous_end = start;
    for (std::size_t i = 0; seconds_since(start) < seconds || samples.size() < min_samples; ++i) {
      const std::size_t b = i % kDistinctBatches;
      Sample s{};
      const auto t0 = Clock::now();
      s.gap_ms = std::chrono::duration<double, std::milli>(t0 - previous_end).count();
      serve::SessionPool::Lease lease;
      {
        SpanScope span("serve::SessionPool::acquire");
        lease = pool.acquire();
      }
      const auto t1 = Clock::now();
      std::vector<std::vector<Tensor>> responses;
      {
        SpanScope span("serve::Session::run_batch");
        responses = lease->run_batch(batches[b]);
      }
      const auto t2 = Clock::now();
      lease.release();
      previous_end = Clock::now();
      s.acquire_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      s.latency_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
      // Check every batch against the reference (outside the timed region).
      std::vector<const Tensor*> rows;
      for (const auto& response : responses) rows.push_back(&response.at(0));
      const Agreement a = compare_output(expected[b], stack(rows), spec.segmentation);
      worst_rel = std::max(worst_rel, a.rel_error);
      worst_top5 = std::min(worst_top5, a.top5);
      worst_dice = std::min(worst_dice, a.dice);
      s.ok = a.ok;
      samples.push_back(s);
      previous_end = Clock::now();
    }
    return samples;
  };
  auto latencies = [](const std::vector<Sample>& samples) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.latency_ms);
    return v;
  };

  // A traced run times one segment untraced and one traced, so the tracing
  // overhead is measured in one process: traced p50 / untraced p50.
  std::vector<std::vector<Sample>> segments;
  const std::size_t count = args.trace ? 2 : kSegments;
  for (std::size_t i = 0; i < count; ++i) {
    Tracer::get().enable(args.trace && i == 1);
    segments.push_back(run_loop(args.seconds / static_cast<double>(count), kMinSegmentSamples));
  }
  const std::vector<Sample>& samples = segments.back();

  std::int64_t attempted = 0, mismatched = 0;
  std::vector<double> p50s, tails, rates, goodputs;
  for (const std::vector<Sample>& segment : segments) {
    double busy_s = 0.0, good = 0.0;
    for (const Sample& s : segment) {
      busy_s += s.latency_ms / 1e3;
      good += s.ok ? 1.0 : 0.0;
    }
    attempted += static_cast<std::int64_t>(segment.size());
    mismatched += static_cast<std::int64_t>(segment.size()) - static_cast<std::int64_t>(good);
    const std::vector<double> lat = latencies(segment);
    p50s.push_back(median(lat));
    tails.push_back(quantile(lat, kTailPercent / 100.0));
    rates.push_back(static_cast<double>(kBatch * segment.size()) / busy_s);
    goodputs.push_back(static_cast<double>(kBatch) * good / busy_s);
  }
  report.attempted = attempted;
  report.failed = mismatched;
  std::ostringstream agreement;
  agreement << attempted << " batches checked, worst rel_error " << worst_rel
            << (spec.segmentation ? ", worst dice " : ", worst top-5 agreement ")
            << (spec.segmentation ? worst_dice : worst_top5) << "; " << mismatched
            << " mismatched";
  report.check("outputs_match_reference", mismatched == 0, agreement.str());

  std::ostringstream sizes;
  for (std::size_t i = 0; i < segments.size(); ++i) sizes << (i ? "," : "") << segments[i].size();
  report.note("tail_percentile", percentile_label(kTailPercent));
  report.note("segments", std::to_string(segments.size()));
  report.note("samples_per_segment", sizes.str());
  report.note("min_samples_beyond_tail_per_segment",
              std::to_string(static_cast<std::size_t>(
                  static_cast<double>(kMinSegmentSamples) * (1.0 - kTailPercent / 100.0))));
  report.note("setup_repeats", std::to_string(spec.setups));

  if (!args.trace) {
    const double tail = median(tails);
    report.metric("latency_ms_p50", median(p50s), "ms");
    report.metric("latency_ms_tail", tail, "ms");
    report.metric("images_per_s", median(rates), "1/s");
    // Closed loop: the image rate the loop sustains at its tail batch time.
    report.metric("max_rps_at_slo", static_cast<double>(kBatch) / (tail / 1e3), "1/s");
    report.metric("goodput_rps", median(goodputs), "1/s");
    report.metric("slab_bytes", static_cast<double>(model.slab_bytes()), "B");
    report.metric("resident_bytes",
                  static_cast<double>(model.slab_bytes() + model.weight_bytes() +
                                      model.packed_weight_bytes()),
                  "B");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("success_frac",
                  static_cast<double>(report.attempted - report.failed) /
                      static_cast<double>(report.attempted),
                  "frac");
    return;
  }

  // ---- traced run: per-layer metrics ---------------------------------------------
  const double p50 = p50s[1];
  report.metric("bench.trace_overhead_x", p50 / p50s[0], "x");
  report.metric("decomp.s", median(decomp_s), "s");
  report.metric("serve.compile.s", median(compile_s), "s");

  LayerModel layer;
  layer.name = spec.source.name;
  layer.decomposed = d.decomposed;
  layer.compiled = d.model;
  layer.batches = {kBatch};
  probe_layers({layer}, kProbeReps, report);
  double exec_ms = 0.0;
  for (const Report::Metric& m : report.metrics) {
    if (m.name == "runtime.exec.ms") exec_ms = m.value;
  }

  // Serving front end, as the offline loop sees it: the queue is the wait
  // for the session lease, and each batch is full.
  std::vector<double> acquire, gaps;
  for (const Sample& s : samples) {
    acquire.push_back(s.acquire_ms);
    gaps.push_back(s.gap_ms);
  }
  report.metric("serve.queue_wait_ms_p50", median(acquire), "ms");
  report.metric("serve.queue_wait_ms_p99", quantile(acquire, 0.99), "ms");
  report.metric("serve.exec_ms_p50", p50, "ms");
  for (const std::size_t k : {std::size_t{1}, std::size_t{8}}) {
    std::vector<const std::vector<Tensor>*> small(batches[0].begin(), batches[0].begin() + static_cast<std::ptrdiff_t>(k));
    auto lease = pool.acquire();
    lease->run_batch(small);
    std::vector<double> ms;
    for (int r = 0; r < 10; ++r) {
      const auto t0 = Clock::now();
      {
        SpanScope span("serve::Session::run_batch");
        lease->run_batch(small);
      }
      ms.push_back(seconds_since(t0) * 1e3);
    }
    report.metric("serve.session.run_ms_b" + std::to_string(k), median(ms), "ms");
  }
  report.metric("serve.batch_occupancy", static_cast<double>(kBatch), "count");
  report.metric("serve.rejected_slo_frac", 0.0, "frac");
  report.metric("serve.rejected_queue_full", 0.0, "count");
  report.metric("serve.deadline_expired", 0.0, "count");
  report.metric("serve.value_past_deadline", 0.0, "count");
  // Session cost around the executor: gather, scatter, response tensors.
  report.metric("serve.overhead_ms", p50 - exec_ms, "ms");
  report.metric("bench.gen_lag_ms_tail", quantile(gaps, kTailPercent / 100.0), "ms");
}

}  // namespace perfbench
