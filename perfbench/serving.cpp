// serve_mix: one FleetServer under open-loop Poisson traffic.
//
// A hot ResNet-18 and a cold DenseNet-121 (width 0.125, 16x16, max_batch 8)
// share one fleet.  A single generator thread draws Poisson arrivals at each
// rate of a fixed ladder of absolute rates (BENCHMARK.json's command fixes
// the ladder, the latency limit and the generator-lag bound); the first rate
// is the nominal one.  The ladder stops below the lowest capacity seen on a
// shared 4-vCPU VM: over capacity, goodput there swung between 19k and 34k
// answers/s from run to run with the VM's load, which no regression bound
// absorbs.  This is the only workload where admission, adaptive batching,
// queueing and the session pool are a large share of each request, and it
// runs the kernels at batch 1-8 where the offline workloads run batch 32.
//
// Each request is timed from its due time, not from when the generator got
// round to submitting it, so a stall counts against every request it
// delays.  The same thread polls the outstanding futures, so a completion is
// observed within one poll sweep (microseconds at these queue depths).
#include <algorithm>
#include <cmath>
#include <future>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "runtime/executor.hpp"
#include "serve/fleet.hpp"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
namespace metrics = serve::metrics;

constexpr std::size_t kMaxBatch = 8;
/// Fleet lanes.  With the generator thread that makes three busy threads on
/// a 4-vCPU host, leaving one core for the host so that preemption of the
/// generator or a lane does not masquerade as fleet latency.
constexpr std::size_t kWorkers = 2;
/// Share of arrivals for the hot model: bench/serving_fleet.cpp's closed leg,
/// 1600 hot requests against 48 on each of its three cold models.
constexpr double kHotShare = 1600.0 / (1600.0 + 3 * 48.0);
constexpr std::size_t kDistinctInputs = 16;
constexpr int kSetups = 5;
/// Interleaved executor/replay repetitions of the traced probe; the batch-1
/// and batch-8 variants run in micro- to milliseconds, so many are cheap.
constexpr int kProbeReps = 200;
constexpr double kTailPercent = 99.0;
/// Window length for per-phase medians; the nominal rate must put at least
/// 1000 requests in a window, so ten lie beyond its p99.
constexpr double kWindowSeconds = 0.5;
constexpr std::size_t kMinWindowSamples = 1000;
constexpr double kWarmupSeconds = 0.5;
/// A phase whose outstanding requests take longer than this to resolve
/// after its last arrival has hung; the run fails.
constexpr auto kDrainTimeout = 10s;

/// The hot model first: traffic index 0 is hot, 1 is cold.
std::vector<ModelSource> served_models() {
  models::ModelConfig config;
  config.batch = 1;
  config.width = 0.125;
  config.image = 16;
  return {{"resnet18", config}, {"densenet121", config}};
}

struct Deployment {
  std::vector<ir::Graph> decomposed;
  std::vector<std::shared_ptr<const serve::CompiledModel>> models;
  std::unique_ptr<serve::FleetServer> fleet;
  double decomp_s = 0.0;
  double compile_s = 0.0;
  double total_s = 0.0;
};

Deployment deploy(const Args& args) {
  Deployment d;
  const auto start = Clock::now();
  serve::FleetOptions options;
  options.workers = kWorkers;
  // No straggler wait: a batch takes what is queued when a lane frees.  With
  // the default 500 us ceiling the wait dominated the nominal p50 and
  // followed the controller's batch cap, whose noisy exec-time estimate
  // moved it between 0.4 and 1.5 ms from run to run.  Caps still adapt.
  options.max_batch_timeout = std::chrono::microseconds(0);
  d.fleet = std::make_unique<serve::FleetServer>(options);
  for (const ModelSource& source : served_models()) {
    ir::Graph original;
    {
      SpanScope span("models::build");
      original = build_model(source);
    }
    auto t = Clock::now();
    {
      SpanScope span("decomp::decompose");
      d.decomposed.push_back(decompose(original));
    }
    d.decomp_s += seconds_since(t);
    t = Clock::now();
    serve::CompileOptions compile;
    compile.max_batch = kMaxBatch;
    compile.intra_op_threads = kIntraOpThreads;
    compile.max_arena_bytes = args.slab_budget;
    {
      SpanScope span("serve::CompiledModel::compile");
      d.models.push_back(serve::CompiledModel::compile(d.decomposed.back(), compile));
    }
    d.compile_s += seconds_since(t);
    // No per-model p99 target: admission works from each request's
    // deadline.  With a target, the batcher's halve-on-breach control made
    // capacity bimodal from run to run (a latency spike under overload
    // collapses the batch caps), which no benchmark bound can absorb.
    {
      SpanScope span("serve::FleetServer::install");
      d.fleet->install(source.name, d.models.back());
    }
  }
  d.total_s = seconds_since(start);
  return d;
}

enum class Outcome { kPending, kAnswered, kShedSlo, kShedQueue, kExpired, kError };

struct Request {
  std::size_t model = 0;
  std::size_t input = 0;
  std::int64_t due_ns = 0;  ///< offset from the phase start
  Clock::time_point due;
  Clock::time_point submitted;
  Clock::time_point ready;
  Outcome outcome = Outcome::kPending;
  bool output_ok = true;
};

struct Phase {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<Request> requests;
  std::size_t backlog_at_end = 0;  ///< unresolved requests at the last arrival
};

/// Poisson arrivals at `rate` for `seconds`, hot/cold mix, from the seed.
Phase schedule(double rate, double seconds, std::uint64_t seed, std::uint64_t phase) {
  Phase p;
  p.rate = rate;
  p.seconds = seconds;
  Rng rng(seed * 0x2545f4914f6cdd1dull + phase + 1);
  double t = 0.0;
  for (;;) {
    double u = rng.uniform();
    while (u <= 1e-12) u = rng.uniform();
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    Request r;
    r.model = rng.uniform() < kHotShare ? 0 : 1;
    r.input = static_cast<std::size_t>(rng.below(kDistinctInputs));
    r.due_ns = static_cast<std::int64_t>(t * 1e9);
    p.requests.push_back(r);
  }
  return p;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class LoadGenerator {
 public:
  LoadGenerator(const Args& args, serve::FleetServer& fleet, const std::vector<std::string>& names,
         const std::vector<std::vector<std::vector<Tensor>>>& inputs,
         const std::vector<std::vector<Tensor>>& expected)
      : args_(args), fleet_(fleet), names_(names), inputs_(inputs), expected_(expected) {}

  /// Runs one phase open loop: submits every request at its due time and
  /// records when each resolves.  Returns false if the phase failed to drain.
  bool run(Phase& phase) {
    struct Pending {
      Request* request;
      std::future<std::vector<Tensor>> future;
      std::int64_t start_ns;
      std::uint64_t id;
    };
    std::vector<Pending> pending;
    const auto start = Clock::now() + 1ms;
    for (Request& r : phase.requests) r.due = start + std::chrono::nanoseconds(r.due_ns);
    std::size_t next = 0;
    const std::size_t n = phase.requests.size();
    Tracer& tracer = Tracer::get();
    auto poll = [&] {
      for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].future.wait_for(0s) != std::future_status::ready) {
          ++i;
          continue;
        }
        Request& r = *pending[i].request;
        r.ready = Clock::now();
        try {
          std::vector<Tensor> out = pending[i].future.get();
          r.outcome = Outcome::kAnswered;
          const Agreement a = compare_output(expected_[r.model][r.input], out.at(0), false);
          r.output_ok = a.ok;
          worst_rel_ = std::max(worst_rel_, a.rel_error);
          worst_top5_ = std::min(worst_top5_, a.top5);
        } catch (const DeadlineExceededError&) {
          r.outcome = Outcome::kExpired;
        } catch (const std::exception& e) {
          r.outcome = Outcome::kError;
          last_error_ = e.what();
        }
        if (tracer.enabled()) {
          tracer.record("serve::FleetServer::submit->ready", pending[i].start_ns,
                        tracer.to_ns(r.ready), pending[i].id);
        }
        pending[i] = std::move(pending.back());
        pending.pop_back();
      }
    };
    while (next < n || !pending.empty()) {
      const auto now = Clock::now();
      while (next < n && phase.requests[next].due <= now) {
        Request& r = phase.requests[next++];
        const std::uint64_t id = ++request_ids_;
        serve::SubmitOptions options;
        options.deadline = r.due + std::chrono::microseconds(static_cast<std::int64_t>(args_.slo_ms * 1e3));
        r.submitted = Clock::now();
        const std::int64_t start_ns = tracer.enabled() ? tracer.to_ns(r.submitted) : 0;
        try {
          pending.push_back({&r, fleet_.submit(names_[r.model], inputs_[r.model][r.input], options),
                             start_ns, id});
        } catch (const SloUnmeetableError&) {
          r.outcome = Outcome::kShedSlo;
        } catch (const ResourceExhaustedError&) {
          r.outcome = Outcome::kShedQueue;
        } catch (const DeadlineExceededError&) {
          r.outcome = Outcome::kExpired;
        }
        if (r.outcome != Outcome::kPending) r.ready = Clock::now();
        if (next == n) phase.backlog_at_end = pending.size();
      }
      poll();
      if (next == n && !pending.empty() && Clock::now() - phase.requests.back().due > kDrainTimeout) {
        last_error_ = "phase did not drain within the timeout";
        return false;
      }
      std::this_thread::yield();
    }
    return true;
  }

  double worst_rel() const { return worst_rel_; }
  double worst_top5() const { return worst_top5_; }
  const std::string& last_error() const { return last_error_; }

 private:
  const Args& args_;
  serve::FleetServer& fleet_;
  const std::vector<std::string>& names_;
  const std::vector<std::vector<std::vector<Tensor>>>& inputs_;
  const std::vector<std::vector<Tensor>>& expected_;
  std::uint64_t request_ids_ = 0;
  double worst_rel_ = 0.0;
  double worst_top5_ = 1.0;
  std::string last_error_;
};

struct PhaseStats {
  std::size_t n = 0, good = 0, mismatched = 0, shed = 0, expired = 0, errors = 0;
  bool backlog_grew = false;
  // Per window of kWindowSeconds, by due time.  A phase's figures are
  // medians over its windows, so a burst of host noise (CPU steal on a
  // shared host) that spoils a window or two does not move them.
  std::vector<double> window_p50, window_tail, window_miss, window_answered, window_good,
      window_lag;  ///< generator lateness tail: submit time minus due time
  double p50() const { return median(window_p50); }
  double tail() const { return median(window_tail); }
  double miss() const { return backlog_grew ? 1.0 : median(window_miss); }
  double answered_per_s() const { return median(window_answered); }
  double good_per_s() const { return median(window_good); }
  double lag_tail() const { return median(window_lag); }
};

PhaseStats summarize(const Phase& phase, double limit_ms) {
  PhaseStats s;
  s.n = phase.requests.size();
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(phase.seconds / kWindowSeconds)));
  std::vector<std::vector<double>> window_latency(windows), window_lag(windows);
  std::vector<double> window_n(windows), window_answered(windows), window_good(windows);
  for (const Request& r : phase.requests) {
    const std::size_t w = std::min(windows - 1, static_cast<std::size_t>(static_cast<double>(r.due_ns) / 1e9 / kWindowSeconds));
    window_lag[w].push_back(ms_between(r.due, r.submitted));
    window_n[w] += 1;
    switch (r.outcome) {
      case Outcome::kAnswered: {
        window_answered[w] += 1;
        const double ms = ms_between(r.due, r.ready);
        window_latency[w].push_back(ms);
        if (!r.output_ok) {
          ++s.mismatched;
        } else if (ms <= limit_ms) {
          ++s.good;
          window_good[w] += 1;
        }
        break;
      }
      case Outcome::kShedSlo:
      case Outcome::kShedQueue: ++s.shed; break;
      case Outcome::kExpired: ++s.expired; break;
      default: ++s.errors; break;
    }
  }
  const double window_s = phase.seconds / static_cast<double>(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    s.window_p50.push_back(median(window_latency[w]));
    s.window_tail.push_back(quantile(window_latency[w], kTailPercent / 100.0));
    s.window_miss.push_back(window_n[w] > 0 ? 1.0 - window_good[w] / window_n[w] : 0.0);
    s.window_answered.push_back(window_answered[w] / window_s);
    s.window_good.push_back(window_good[w] / window_s);
    s.window_lag.push_back(quantile(window_lag[w], kTailPercent / 100.0));
  }
  // A queue that keeps up holds about rate x limit requests (Little's law);
  // more than twice that at the last arrival means the backlog was growing.
  s.backlog_grew = static_cast<double>(phase.backlog_at_end) > std::max(16.0, 2.0 * phase.rate * limit_ms / 1e3);
  return s;
}

/// Histogram arithmetic on fleet snapshots: merged over models, and the
/// difference between two points in time.
metrics::LatencyHistogram::Snapshot merged(const std::vector<metrics::ModelSnapshot>& snaps,
                                           metrics::LatencyHistogram::Snapshot metrics::ModelSnapshot::*field) {
  metrics::LatencyHistogram::Snapshot out;
  for (const auto& s : snaps) {
    const auto& h = s.*field;
    for (std::size_t i = 0; i < h.counts.size(); ++i) out.counts[i] += h.counts[i];
    out.count += h.count;
    out.sum_us += h.sum_us;
    out.max_us = std::max(out.max_us, h.max_us);
  }
  return out;
}

metrics::LatencyHistogram::Snapshot minus(metrics::LatencyHistogram::Snapshot a,
                                          const metrics::LatencyHistogram::Snapshot& b) {
  for (std::size_t i = 0; i < a.counts.size(); ++i) a.counts[i] -= b.counts[i];
  a.count -= b.count;
  a.sum_us -= b.sum_us;
  return a;
}

}  // namespace

void run_serving(const Args& args, Report& report) {
  TEMCO_CHECK(args.rates.size() >= 2) << "serve_mix needs a ladder of at least two rates";
  TEMCO_CHECK(std::is_sorted(args.rates.begin(), args.rates.end())) << "ladder must ascend";
  TEMCO_CHECK(args.slo_ms > 0 && args.max_gen_lag_ms > 0 && args.slab_budget > 0)
      << "serve_mix needs --slo-ms, --max-gen-lag-ms and --slab-budget-bytes";
  const std::vector<ModelSource> served = served_models();
  std::vector<std::string> names;
  for (const ModelSource& s : served) names.push_back(s.name);
  {
    std::ostringstream rates;
    for (std::size_t i = 0; i < args.rates.size(); ++i) rates << (i ? "," : "") << args.rates[i];
    std::ostringstream share;
    share.precision(3);
    share << kHotShare * 100;
    report.note("models", "hot resnet18 (" + share.str() + "% of arrivals), cold densenet121");
    report.note("loop", "open, Poisson arrivals, one generator thread");
    report.note("rates_per_s", rates.str());
    report.note("latency_limit_ms", std::to_string(args.slo_ms));
    report.note("slab_budget_bytes", std::to_string(args.slab_budget));
    report.note("fleet_workers", std::to_string(kWorkers));
    report.note("intra_op_threads", kIntraOpNote);
    report.note("max_batch", std::to_string(kMaxBatch));
  }

  // ---- set-up, repeated -----------------------------------------------------------
  std::vector<double> setup_s, decomp_s, compile_s;
  std::vector<std::string> prints;
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    if (d.fleet) d.fleet->shutdown(true);
    d = deploy(args);
    setup_s.push_back(d.total_s);
    decomp_s.push_back(d.decomp_s);
    compile_s.push_back(d.compile_s);
    prints.push_back(fingerprint(*d.models[0]) + " | " + fingerprint(*d.models[1]));
  }
  const bool deterministic =
      std::all_of(prints.begin(), prints.end(), [&](const std::string& p) { return p == prints[0]; });
  report.check("deterministic_compile", deterministic,
               std::to_string(kSetups) + " compiles: " + prints[0]);

  // ---- inputs and reference outputs (decomposed graph, plain executor) -------------
  std::vector<std::vector<std::vector<Tensor>>> inputs(served.size());
  std::vector<std::vector<Tensor>> expected(served.size());
  for (std::size_t m = 0; m < served.size(); ++m) {
    runtime::Executor reference(d.decomposed[m]);
    for (std::size_t i = 0; i < kDistinctInputs; ++i) {
      inputs[m].push_back(make_request(*d.models[m], args.seed, m, i));
      expected[m].push_back(reference.run(inputs[m][i]).outputs.at(0));
    }
  }

  serve::FleetServer& fleet = *d.fleet;
  LoadGenerator generator(args, fleet, names, inputs, expected);
  const double nominal = args.rates.front();
  TEMCO_CHECK(nominal * kWindowSeconds >= static_cast<double>(kMinWindowSamples))
      << "the nominal rate must put " << kMinWindowSamples << " requests in a "
      << kWindowSeconds << " s window";
  // The run's seconds split over the ladder in whole windows, the nominal
  // phase (which sets the latency metrics) getting a double share.
  const double share = args.seconds / static_cast<double>(args.rates.size() + 1);
  auto phase_seconds = [&](std::size_t i) {
    return kWindowSeconds * std::max(1.0, std::floor((i == 0 ? 2 : 1) * share / kWindowSeconds));
  };

  bool drained = true;
  {
    Tracer::get().enable(false);
    Phase warm = schedule(nominal, kWarmupSeconds, args.seed, 1000);
    drained = generator.run(warm) && drained;
  }
  // A traced run first repeats the nominal phase untraced, for the tracing
  // overhead ratio.
  double untraced_p50 = 0.0;
  if (args.trace) {
    Phase p = schedule(nominal, phase_seconds(0), args.seed, 999);
    drained = generator.run(p) && drained;
    untraced_p50 = summarize(p, args.slo_ms).p50();
    Tracer::get().enable(true);
  }

  // Fleet histograms over the nominal phase (snapshot differences).
  const auto before_nominal = fleet.snapshot();
  std::vector<metrics::ModelSnapshot> after_nominal;
  std::vector<Phase> phases;
  for (std::size_t i = 0; i < args.rates.size(); ++i) {
    phases.push_back(schedule(args.rates[i], phase_seconds(i), args.seed, i));
    drained = generator.run(phases.back()) && drained;
    if (i == 0) after_nominal = fleet.snapshot();
  }
  const auto after_all = fleet.snapshot();

  std::vector<PhaseStats> stats;
  double lag_tail = 0.0;  // worst phase; within a phase, median over windows
  std::size_t total = 0, mismatched = 0, errors = 0;
  std::ostringstream ladder_note;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    stats.push_back(summarize(phases[i], args.slo_ms));
    const PhaseStats& s = stats.back();
    lag_tail = std::max(lag_tail, s.lag_tail());
    total += s.n;
    mismatched += s.mismatched;
    errors += s.errors;
    ladder_note << (i ? "; " : "") << args.rates[i] << "/s: n=" << s.n << " miss=" << s.miss()
                << " shed=" << s.shed << " expired=" << s.expired << " p50=" << s.p50() << "ms "
                << percentile_label(kTailPercent) << "=" << s.tail() << "ms good=" << s.good_per_s()
                << "/s backlog=" << phases[i].backlog_at_end;
  }
  const PhaseStats& nom = stats.front();
  const PhaseStats& top = stats.back();

  // The rate at which the tail stops meeting the limit: where the miss
  // fraction (requests not answered correctly within the limit, refusals
  // included), interpolated linearly between ladder rates, first exceeds
  // 1 - p.  A phase whose backlog grew counts as missing everything.  Up to
  // ladder resolution this is the highest ladder rate whose tail meets the
  // limit; the interpolation keeps it from jumping a whole ladder step when
  // one phase's miss fraction lands on the other side of the budget.
  double max_rps = args.rates.back();
  {
    const double budget = 1.0 - kTailPercent / 100.0;
    if (stats[0].miss() > budget) {
      max_rps = nominal * budget / stats[0].miss();
    } else {
      for (std::size_t i = 1; i < stats.size(); ++i) {
        if (stats[i].miss() <= budget) continue;
        const double w = (budget - stats[i - 1].miss()) / (stats[i].miss() - stats[i - 1].miss());
        max_rps = args.rates[i - 1] + w * (args.rates[i] - args.rates[i - 1]);
        break;
      }
    }
  }

  // Failures: anything wrong at any rate, plus every request the nominal
  // (below-capacity) rate did not answer in time.  Shedding above capacity
  // is the fleet's admission control at work and shows in goodput instead.
  report.attempted = static_cast<std::int64_t>(total);
  report.failed = static_cast<std::int64_t>(mismatched + errors + nom.n - nom.good - nom.mismatched - nom.errors);
  {
    std::ostringstream out;
    out << mismatched << " mismatched of " << total << " requests checked"
        << ", worst rel_error " << generator.worst_rel() << ", worst top-5 agreement "
        << generator.worst_top5();
    report.check("outputs_match_reference", mismatched == 0, out.str());
  }
  report.check("no_request_errors", errors == 0 && drained,
               std::to_string(errors) + " requests failed with an execution error" +
                   (generator.last_error().empty() ? "" : " (" + generator.last_error() + ")"));
  {
    std::ostringstream out;
    out << "generator lateness " << percentile_label(kTailPercent) << " " << lag_tail
        << " ms in the worst phase (median over its windows) over " << total
        << " requests (bound " << args.max_gen_lag_ms << " ms)";
    report.check("generator_on_time", lag_tail <= args.max_gen_lag_ms, out.str());
  }

  report.note("tail_percentile", percentile_label(kTailPercent));
  report.note("phase_seconds", std::to_string(phase_seconds(0)) + " nominal, " +
                                   std::to_string(phase_seconds(1)) + " others");
  report.note("window_seconds", std::to_string(kWindowSeconds));
  report.note("nominal_samples", std::to_string(nom.n));
  report.note("setup_repeats", std::to_string(kSetups));
  report.note("ladder", ladder_note.str());

  if (!args.trace) {
    // The fleet's own residency figure: every session's slab, per model.
    std::int64_t slab = 0, weights = 0;
    for (const metrics::ModelSnapshot& s : after_all) slab += s.arena_resident_bytes;
    for (const auto& m : d.models) weights += m->weight_bytes() + m->packed_weight_bytes();
    const std::int64_t resident = slab + weights;
    report.metric("latency_ms_p50", nom.p50(), "ms");
    report.metric("latency_ms_tail", nom.tail(), "ms");
    report.metric("images_per_s", top.answered_per_s(), "1/s");
    report.metric("max_rps_at_slo", max_rps, "1/s");
    report.metric("goodput_rps", top.good_per_s(), "1/s");
    report.metric("slab_bytes", static_cast<double>(slab), "B");
    report.metric("resident_bytes", static_cast<double>(resident), "B");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("success_frac", static_cast<double>(nom.good) / static_cast<double>(nom.n), "frac");
    fleet.shutdown(true);
    return;
  }

  // ---- traced run: per-layer metrics -------------------------------------------------
  const double p50 = nom.p50();
  report.metric("bench.trace_overhead_x", p50 / untraced_p50, "x");
  report.metric("bench.gen_lag_ms_tail", lag_tail, "ms");
  report.metric("decomp.s", median(decomp_s), "s");
  report.metric("serve.compile.s", median(compile_s), "s");

  using serve::metrics::ModelSnapshot;
  const auto queue_wait = minus(merged(after_nominal, &ModelSnapshot::queue_wait),
                                merged(before_nominal, &ModelSnapshot::queue_wait));
  const auto exec = minus(merged(after_nominal, &ModelSnapshot::exec),
                          merged(before_nominal, &ModelSnapshot::exec));
  std::uint64_t batches = 0, batched = 0;
  for (std::size_t m = 0; m < after_nominal.size(); ++m) {
    batches += after_nominal[m].batches - before_nominal[m].batches;
    batched += after_nominal[m].batched_requests - before_nominal[m].batched_requests;
  }
  report.metric("serve.queue_wait_ms_p50", queue_wait.quantile_ms(0.5), "ms");
  report.metric("serve.queue_wait_ms_p99", queue_wait.quantile_ms(0.99), "ms");
  report.metric("serve.exec_ms_p50", exec.quantile_ms(0.5), "ms");
  report.metric("serve.batch_occupancy", batches ? static_cast<double>(batched) / static_cast<double>(batches) : 0.0,
                "count");
  report.metric("serve.overhead_ms", p50 - queue_wait.quantile_ms(0.5) - exec.quantile_ms(0.5), "ms");
  // Admission and deadline counters over the whole ladder.
  std::uint64_t submitted = 0, rejected_slo = 0, rejected_queue = 0, expired = 0, past = 0;
  for (const metrics::ModelSnapshot& s : after_all) {
    submitted += s.submitted;
    rejected_slo += s.rejected_slo;
    rejected_queue += s.rejected_queue_full;
    expired += s.deadline_expired;
    past += s.value_past_deadline;
  }
  report.metric("serve.rejected_slo_frac",
                submitted ? static_cast<double>(rejected_slo) / static_cast<double>(submitted) : 0.0,
                "frac");
  report.metric("serve.rejected_queue_full", static_cast<double>(rejected_queue), "count");
  report.metric("serve.deadline_expired", static_cast<double>(expired), "count");
  report.metric("serve.value_past_deadline", static_cast<double>(past), "count");
  fleet.shutdown(true);

  // Direct session runs at batch 1 and 8, weighted by the traffic mix.
  for (const std::size_t k : {std::size_t{1}, kMaxBatch}) {
    double weighted = 0.0;
    for (std::size_t m = 0; m < d.models.size(); ++m) {
      serve::Session session(d.models[m]);
      std::vector<const std::vector<Tensor>*> batch;
      for (std::size_t i = 0; i < k; ++i) batch.push_back(&inputs[m][i % kDistinctInputs]);
      session.run_batch(batch);
      std::vector<double> ms;
      for (int r = 0; r < 30; ++r) {
        const auto t0 = Clock::now();
        {
          SpanScope span("serve::Session::run_batch");
          session.run_batch(batch);
        }
        ms.push_back(seconds_since(t0) * 1e3);
      }
      weighted += (m == 0 ? kHotShare : 1.0 - kHotShare) * median(ms);
    }
    report.metric("serve.session.run_ms_b" + std::to_string(k), weighted, "ms");
  }

  std::vector<LayerModel> layers;
  for (std::size_t m = 0; m < d.models.size(); ++m) {
    LayerModel layer;
    layer.name = served[m].name;
    layer.decomposed = d.decomposed[m];
    layer.compiled = d.models[m];
    layer.batches = {1, kMaxBatch};
    layers.push_back(std::move(layer));
  }
  probe_layers(layers, kProbeReps, report);
}

}  // namespace perfbench
