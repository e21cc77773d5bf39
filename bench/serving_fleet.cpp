// Fleet serving: one FleetServer sharing a worker pool across many models
// versus N independent one-model FleetServers with a static split of the
// same resources, under a mixed workload.
//
// Two legs, identical drivers against both stacks:
//
//   closed loop   one hot tenant hammered by closed-loop clients with
//                 generous 250 ms deadlines while cold tenants tick along on
//                 a paced open-loop schedule.  Demand self-limits, so both
//                 stacks keep up — this leg establishes parity throughput,
//                 bitwise-identical outputs, and the strict-SLO invariant:
//                 the bench asserts value_past_deadline == 0 (no accepted
//                 request ever resolved past its deadline).
//   overload      open-loop arrivals on the hot tenant at ~1.4x the box's
//                 measured capacity with a tight latency SLO.  Demand does
//                 not self-limit, and this is where the stacks diverge: the
//                 static stack admits by queue bound alone (no predictive
//                 admission, no latency target), so its FIFO queue fills to
//                 a depth whose wait alone blows the deadline and it spends
//                 its cycles serving answers that are already late — the
//                 strict-SLO rule then withholds them as DeadlineExceeded.
//                 The fleet's predictive admission rejects doomed requests
//                 at submit time with a typed SloUnmeetableError — cycles go
//                 only to requests that can still make their deadline.
//
// Goodput counts a request iff its value arrived within its deadline.  The
// headline comparison — mixed-workload goodput at equal-or-better p99 — is
// the overload leg; note this is a scheduling-and-admission win, not a
// parallelism win (on a 1-core host extra lanes buy nothing by themselves).
//
// A final leg hot-swaps a cold model to differently-seeded weights while
// clients are mid-flight and checks every response attributes bitwise to
// exactly one weight generation, with post-drain traffic on the new one.
//
// Flags: --models a,b,c,d --width F --image N --ratio F
//        --hot-requests N --cold-requests N --clients N --repeats N
//        --overload-ms N --json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "serve/compiled_model.hpp"
#include "serve/fleet.hpp"
#include "support/timer.hpp"
#include "tensor/compare.hpp"

using namespace temco;
using namespace std::chrono_literals;

namespace {

struct FleetBenchConfig {
  // Same small-request regime as bench/serving_throughput.cpp: dispatch and
  // queueing — the costs this subsystem manages — are a visible share of
  // every request.
  double width = 0.125;
  std::int64_t image = 16;
  double ratio = 0.1;
  std::size_t hot_requests = 1600;  ///< closed-loop requests on the hot model
  std::size_t cold_requests = 48;   ///< paced open-loop requests per cold model
  std::size_t clients = 16;         ///< closed-loop clients on the hot model
  std::size_t repeats = 3;
  std::size_t overload_ms = 300;    ///< open-loop overload window
  bool json = false;
  std::vector<std::string> models{"resnet18", "resnet34", "densenet121", "densenet169"};
};

FleetBenchConfig parse_fleet_args(int argc, char** argv) {
  FleetBenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      TEMCO_CHECK(i + 1 < argc) << arg << " needs a value";
      return argv[++i];
    };
    if (arg == "--width") {
      config.width = std::stod(next());
    } else if (arg == "--image") {
      config.image = std::stoll(next());
    } else if (arg == "--ratio") {
      config.ratio = std::stod(next());
    } else if (arg == "--hot-requests") {
      config.hot_requests = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--cold-requests") {
      config.cold_requests = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--clients") {
      config.clients = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--repeats") {
      config.repeats = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--overload-ms") {
      config.overload_ms = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--json") {
      config.json = true;
    } else if (arg == "--models") {
      config.models.clear();
      std::string list = next();
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        config.models.push_back(list.substr(pos, comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  TEMCO_CHECK(config.models.size() >= 2) << "fleet bench needs at least two models";
  return config;
}

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kSessionsPerModel = 2;
constexpr std::size_t kQueueCapacity = 1024;  ///< same bounded queue, both stacks
constexpr auto kGenerousDeadline = 250ms;     ///< closed-loop leg: ~250x a request
constexpr auto kTightDeadline = 25ms;         ///< overload leg: the SLO under test
constexpr auto kColdInterval = 4ms;
constexpr double kOverloadFactor = 1.4;      ///< arrival rate vs measured capacity

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct ModelLoadResult {
  std::string model;
  bool hot = false;
  std::size_t issued = 0;
  std::size_t succeeded = 0;   ///< value arrived within its deadline
  std::size_t shed = 0;        ///< typed rejection at submit (SLO / queue full)
  std::size_t late = 0;        ///< resolved with DeadlineExceededError
  std::size_t late_value = 0;  ///< value delivered PAST its deadline — wasted work
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct WorkloadResult {
  double wall_seconds = 0.0;
  double goodput_per_second = 0.0;  ///< in-deadline values across all models
  double p99_ms = 0.0;              ///< p99 over every in-deadline value
  std::vector<ModelLoadResult> per_model;
};

/// Shared accounting for both legs.  A future resolving with a value still
/// only counts as goodput if the value arrived inside the deadline; a value
/// after the deadline is the worst outcome — full service cost, zero use.
class LoadAccounting {
 public:
  LoadAccounting(std::size_t n_models) : counters_(n_models), latency_mutexes_(n_models),
                                         latencies_(n_models) {}

  void settle(std::size_t m, std::future<std::vector<Tensor>>& future, const Timer& timer,
              std::chrono::milliseconds deadline) {
    Counters& c = counters_[m];
    try {
      future.get();
      const double seconds = timer.elapsed_seconds();
      if (seconds * 1e3 <= static_cast<double>(deadline.count())) {
        c.succeeded.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(latency_mutexes_[m]);
        latencies_[m].push_back(seconds);
      } else {
        c.late_value.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const DeadlineExceededError&) {
      c.late.fetch_add(1, std::memory_order_relaxed);
    } catch (const Error&) {
      c.shed.fetch_add(1, std::memory_order_relaxed);
    }
  }

  WorkloadResult finish(const FleetBenchConfig& config, double elapsed,
                        const std::vector<std::size_t>& issued) {
    WorkloadResult result;
    result.wall_seconds = elapsed;
    std::vector<double> all;
    std::size_t total = 0;
    for (std::size_t m = 0; m < counters_.size(); ++m) {
      ModelLoadResult row;
      row.model = config.models[m];
      row.hot = m == 0;
      row.issued = issued[m];
      row.succeeded = counters_[m].succeeded.load();
      row.shed = counters_[m].shed.load();
      row.late = counters_[m].late.load();
      row.late_value = counters_[m].late_value.load();
      std::sort(latencies_[m].begin(), latencies_[m].end());
      row.p50_ms = percentile(latencies_[m], 0.50) * 1e3;
      row.p99_ms = percentile(latencies_[m], 0.99) * 1e3;
      total += row.succeeded;
      all.insert(all.end(), latencies_[m].begin(), latencies_[m].end());
      result.per_model.push_back(std::move(row));
    }
    std::sort(all.begin(), all.end());
    result.goodput_per_second = static_cast<double>(total) / elapsed;
    result.p99_ms = percentile(all, 0.99) * 1e3;
    return result;
  }

 private:
  struct Counters {
    std::atomic<std::size_t> succeeded{0}, shed{0}, late{0}, late_value{0};
  };
  std::vector<Counters> counters_;
  std::vector<std::mutex> latency_mutexes_;
  std::vector<std::vector<double>> latencies_;
};

/// Open-loop issue helper: one issuer thread submits on a fixed arrival
/// schedule (`next += interval`, never waiting for responses); a collector
/// thread blocks on the oldest in-flight future, so latency is read when
/// the response lands, not when the next arrival polls.  Per-model batches
/// complete in queue order, which keeps oldest-first collection accurate.
struct OpenLoopLane {
  template <typename Submit>
  void start(std::size_t m, std::size_t count, std::chrono::microseconds interval,
             std::chrono::milliseconds deadline, LoadAccounting& accounting, Submit submit) {
    issuer = std::thread([this, m, count, interval, submit] {
      auto next_arrival = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < count; ++r) {
        std::this_thread::sleep_until(next_arrival);
        next_arrival += interval;
        Pending pending{submit(m), Timer{}};
        {
          std::lock_guard<std::mutex> lock(mutex);
          queue.push_back(std::move(pending));
        }
        cv.notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
      }
      cv.notify_one();
    });
    collector = std::thread([this, m, deadline, &accounting] {
      for (;;) {
        Pending pending;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [this] { return !queue.empty() || done; });
          if (queue.empty()) return;
          pending = std::move(queue.front());
          queue.pop_front();
        }
        accounting.settle(m, pending.future, pending.timer, deadline);
      }
    });
  }

  void join() {
    issuer.join();
    collector.join();
  }

  struct Pending {
    std::future<std::vector<Tensor>> future;
    Timer timer;
  };
  std::deque<Pending> queue;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::thread issuer, collector;
};

/// Closed-loop leg: model 0 hammered by `clients` closed-loop threads with
/// generous deadlines, cold models on the paced open-loop schedule.
template <typename Submit>
WorkloadResult run_closed_leg(const FleetBenchConfig& config, Submit submit) {
  const std::size_t n_models = config.models.size();
  LoadAccounting accounting(n_models);

  Timer wall;
  std::vector<std::thread> clients;
  std::atomic<std::size_t> next_hot{0};
  for (std::size_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        if (next_hot.fetch_add(1) >= config.hot_requests) return;
        Timer timer;
        auto future = submit(std::size_t{0}, kGenerousDeadline);
        accounting.settle(0, future, timer, kGenerousDeadline);
      }
    });
  }
  std::vector<OpenLoopLane> cold_lanes(n_models);
  for (std::size_t m = 1; m < n_models; ++m) {
    cold_lanes[m].start(
        m, config.cold_requests,
        std::chrono::duration_cast<std::chrono::microseconds>(kColdInterval),
        std::chrono::duration_cast<std::chrono::milliseconds>(kGenerousDeadline), accounting,
        [&submit](std::size_t model) { return submit(model, kGenerousDeadline); });
  }
  for (auto& client : clients) client.join();
  for (std::size_t m = 1; m < n_models; ++m) cold_lanes[m].join();
  const double elapsed = wall.elapsed_seconds();

  std::vector<std::size_t> issued(n_models, config.cold_requests);
  issued[0] = config.hot_requests;
  return accounting.finish(config, elapsed, issued);
}

/// Overload leg: open-loop arrivals on the hot model at kOverloadFactor x
/// the measured capacity, tight deadline == SLO target.  Cold models keep
/// their paced trickle (generous deadlines) to keep the workload mixed.
template <typename Submit>
WorkloadResult run_overload_leg(const FleetBenchConfig& config, double capacity_rps,
                                Submit submit) {
  const std::size_t n_models = config.models.size();
  LoadAccounting accounting(n_models);
  const double window_s = static_cast<double>(config.overload_ms) * 1e-3;
  const double arrival_rps = capacity_rps * kOverloadFactor;
  const auto hot_interval =
      std::chrono::microseconds(static_cast<std::int64_t>(1e6 / arrival_rps));
  const std::size_t hot_count = static_cast<std::size_t>(window_s * arrival_rps);
  const std::size_t cold_count = static_cast<std::size_t>(
      window_s / std::chrono::duration<double>(kColdInterval).count());

  Timer wall;
  std::vector<OpenLoopLane> lanes(n_models);
  lanes[0].start(0, hot_count, hot_interval,
                 std::chrono::duration_cast<std::chrono::milliseconds>(kTightDeadline),
                 accounting,
                 [&submit](std::size_t model) { return submit(model, kTightDeadline); });
  for (std::size_t m = 1; m < n_models; ++m) {
    lanes[m].start(m, cold_count,
                   std::chrono::duration_cast<std::chrono::microseconds>(kColdInterval),
                   std::chrono::duration_cast<std::chrono::milliseconds>(kGenerousDeadline),
                   accounting,
                   [&submit](std::size_t model) { return submit(model, kGenerousDeadline); });
  }
  for (auto& lane : lanes) lane.join();
  const double elapsed = wall.elapsed_seconds();

  std::vector<std::size_t> issued(n_models, cold_count);
  issued[0] = hot_count;
  return accounting.finish(config, elapsed, issued);
}

using ModelPtr = std::shared_ptr<const serve::CompiledModel>;

struct StackResults {
  WorkloadResult closed;
  WorkloadResult overload;
};

serve::SubmitOptions with_deadline(std::chrono::milliseconds deadline) {
  serve::SubmitOptions options;
  options.timeout = std::chrono::duration_cast<std::chrono::microseconds>(deadline);
  return options;
}

/// Admission rejections (SloUnmeetableError, queue-full) throw synchronously
/// at submit; fold them into a ready exceptional future so the drivers
/// account for every request through one path.
template <typename Fn>
std::future<std::vector<Tensor>> guard_submit(Fn&& fn) {
  try {
    return fn();
  } catch (...) {
    std::promise<std::vector<Tensor>> promise;
    promise.set_exception(std::current_exception());
    return promise.get_future();
  }
}

StackResults run_fleet(const FleetBenchConfig& config, const std::vector<ModelPtr>& compiled,
                       const std::vector<Tensor>& inputs, double capacity_rps,
                       std::string* metrics_json) {
  serve::FleetOptions options;
  options.workers = kWorkers;
  options.sessions_per_model = kSessionsPerModel;
  options.queue_capacity = kQueueCapacity;
  serve::FleetServer fleet(options);
  for (std::size_t m = 0; m < config.models.size(); ++m) {
    serve::FleetOptions::ModelSlo slo;
    // The hot tenant's SLO is the tight overload-leg target; admission and
    // the adaptive batcher steer by it all run long.  Cold tenants carry
    // the generous target.
    slo.target_p99 = std::chrono::duration_cast<std::chrono::milliseconds>(
        m == 0 ? kTightDeadline : kGenerousDeadline);
    slo.weight = m == 0 ? 4.0 : 1.0;  // the hot tenant paid for more
    fleet.install(config.models[m], compiled[m], slo);
  }
  auto submit = [&](std::size_t m, std::chrono::milliseconds deadline) {
    return guard_submit(
        [&] { return fleet.submit(config.models[m], {inputs[m]}, with_deadline(deadline)); });
  };

  StackResults results;
  results.closed = run_closed_leg(config, submit);
  // The whole point of the strict-SLO rule: an accepted request never
  // resolves with a value past its deadline.  Zero conversions in the
  // closed-loop leg means admission only let in what it could serve in time.
  for (const auto& snapshot : fleet.snapshot()) {
    TEMCO_CHECK(snapshot.value_past_deadline == 0)
        << snapshot.name << ": " << snapshot.value_past_deadline
        << " accepted requests finished past their deadline in the closed-loop leg";
  }
  results.overload = run_overload_leg(config, capacity_rps, submit);
  if (metrics_json != nullptr) *metrics_json = fleet.metrics_json();
  fleet.shutdown(true);
  return results;
}

StackResults run_static(const FleetBenchConfig& config, const std::vector<ModelPtr>& compiled,
                        const std::vector<Tensor>& inputs, double capacity_rps) {
  // Same aggregate resources, statically partitioned: one single-model
  // fleet per model, the shared workers split evenly, same sessions, same
  // bounded queue, the model's full batch ceiling, a 200 us straggler
  // ceiling, no latency target, and plain bounded-queue admission — a
  // reasonable hand-tuned single-tenant deployment per model.
  const std::size_t workers_each = std::max<std::size_t>(kWorkers / config.models.size(), 1);
  std::vector<std::unique_ptr<serve::FleetServer>> servers;
  for (std::size_t m = 0; m < config.models.size(); ++m) {
    serve::FleetOptions options;
    options.workers = workers_each;
    options.sessions_per_model = kSessionsPerModel;
    options.queue_capacity = kQueueCapacity;
    options.max_batch_timeout = std::chrono::microseconds(200);
    options.slo_admission = false;
    servers.push_back(std::make_unique<serve::FleetServer>(options));
    servers.back()->install(config.models[m], compiled[m]);
  }
  auto submit = [&](std::size_t m, std::chrono::milliseconds deadline) {
    return guard_submit([&] {
      return servers[m]->submit(config.models[m], {inputs[m]}, with_deadline(deadline));
    });
  };

  StackResults results;
  results.closed = run_closed_leg(config, submit);
  results.overload = run_overload_leg(config, capacity_rps, submit);
  return results;
}

/// Measured single-tenant capacity of this box: closed-loop clients on the
/// hot model alone through a minimal fleet.  The overload leg's arrival
/// rate is set off this, so the bench self-scales to any host.
double measure_capacity(const FleetBenchConfig& config, const ModelPtr& hot,
                        const Tensor& input) {
  serve::FleetOptions options;
  options.workers = kWorkers;
  options.sessions_per_model = kSessionsPerModel;
  options.queue_capacity = kQueueCapacity;
  serve::FleetServer fleet(options);
  fleet.install(config.models[0], hot);
  const std::size_t warm = std::min<std::size_t>(config.hot_requests, 600);
  std::atomic<std::size_t> next{0};
  Timer wall;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&] {
      while (next.fetch_add(1) < warm) fleet.submit(config.models[0], {input}).get();
    });
  }
  for (auto& client : clients) client.join();
  const double capacity = static_cast<double>(warm) / wall.elapsed_seconds();
  fleet.shutdown(true);
  return capacity;
}

/// Every fleet response must be the same bytes a lone Executor produces for
/// the same optimized batch-1 graph — pooling, batching, and scheduling are
/// not allowed to buy a different answer.
void check_bit_identical(const FleetBenchConfig& config, const std::vector<ModelPtr>& compiled,
                         const std::vector<Tensor>& inputs) {
  serve::FleetOptions options;
  options.workers = 1;
  options.sessions_per_model = 1;
  serve::FleetServer fleet(options);
  for (std::size_t m = 0; m < config.models.size(); ++m) {
    fleet.install(config.models[m], compiled[m]);
  }
  for (std::size_t m = 0; m < config.models.size(); ++m) {
    runtime::Executor reference(compiled[m]->graph(1), {.use_arena = true});
    const auto want = reference.run({inputs[m]}).outputs;
    const auto got = fleet.submit(config.models[m], {inputs[m]}).get();
    TEMCO_CHECK(got.size() == want.size()) << config.models[m] << ": output arity diverged";
    for (std::size_t o = 0; o < got.size(); ++o) {
      TEMCO_CHECK(max_abs_diff(got[o], want[o]) == 0.0f)
          << config.models[m] << " output " << o
          << " is not bit-identical to the Executor reference";
    }
  }
  fleet.shutdown(true);
}

struct SwapResult {
  std::size_t resolved = 0;
  std::size_t from_old = 0;
  std::size_t from_new = 0;
};

/// Hot swap under fleet load: closed-loop clients keep one model busy while
/// client 0 swaps it to differently-seeded weights mid-traffic (in-thread,
/// so the swap is guaranteed to land while peers are in flight).  Every
/// response must attribute bitwise to exactly one generation; post-drain
/// traffic must come from the new one.
SwapResult run_hot_swap(const FleetBenchConfig& config, const std::vector<ModelPtr>& compiled,
                        const std::vector<Tensor>& inputs, const ModelPtr& replacement) {
  const std::string& name = config.models[1];
  runtime::Executor old_exec(compiled[1]->graph(1), {.use_arena = true});
  runtime::Executor new_exec(replacement->graph(1), {.use_arena = true});
  const auto want_old = old_exec.run({inputs[1]}).outputs;
  const auto want_new = new_exec.run({inputs[1]}).outputs;
  TEMCO_CHECK(max_abs_diff(want_old[0], want_new[0]) > 0.0f)
      << "swap generations must be distinguishable";

  serve::FleetOptions options;
  options.workers = kWorkers;
  options.sessions_per_model = kSessionsPerModel;
  serve::FleetServer fleet(options);
  for (std::size_t m = 0; m < config.models.size(); ++m) {
    fleet.install(config.models[m], compiled[m]);
  }

  constexpr std::size_t kSwapClients = 3;
  constexpr std::size_t kPerClient = 16;
  constexpr std::size_t kSwapAfter = 4;  ///< client 0 swaps after this many responses
  std::atomic<std::size_t> from_old{0}, from_new{0}, misrouted{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kSwapClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t r = 0; r < kPerClient; ++r) {
        if (c == 0 && r == kSwapAfter) fleet.swap(name, replacement);
        const auto got = fleet.submit(name, {inputs[1]}).get();
        if (max_abs_diff(got[0], want_old[0]) == 0.0f) {
          from_old.fetch_add(1);
        } else if (max_abs_diff(got[0], want_new[0]) == 0.0f) {
          from_new.fetch_add(1);
        } else {
          misrouted.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  fleet.wait_drained();

  TEMCO_CHECK(misrouted.load() == 0)
      << misrouted.load() << " responses matched neither weight generation";
  TEMCO_CHECK(from_old.load() + from_new.load() == kSwapClients * kPerClient)
      << "a response was dropped across the swap";
  TEMCO_CHECK(from_new.load() > 0) << "no traffic reached the new generation";
  const auto settled = fleet.submit(name, {inputs[1]}).get();
  TEMCO_CHECK(max_abs_diff(settled[0], want_new[0]) == 0.0f)
      << "post-drain responses must come from the new generation";
  fleet.shutdown(true);

  SwapResult result;
  result.resolved = kSwapClients * kPerClient;
  result.from_old = from_old.load();
  result.from_new = from_new.load();
  return result;
}

void write_json(const FleetBenchConfig& config, double capacity_rps,
                const StackResults& fleet, const StackResults& statics,
                const SwapResult& swap, const std::string& fleet_metrics) {
  std::FILE* f = std::fopen("BENCH_serving_fleet.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serving_fleet.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serving_fleet\",\n  \"workers\": %zu,\n"
               "  \"sessions_per_model\": %zu,\n  \"queue_capacity\": %zu,\n"
               "  \"hot_requests\": %zu,\n  \"cold_requests\": %zu,\n  \"clients\": %zu,\n"
               "  \"capacity_rps\": %.1f,\n  \"overload_factor\": %.2f,\n"
               "  \"closed_deadline_ms\": %lld,\n  \"overload_deadline_ms\": %lld,\n"
               "  \"rows\": [\n",
               kWorkers, kSessionsPerModel, kQueueCapacity, config.hot_requests,
               config.cold_requests, config.clients, capacity_rps, kOverloadFactor,
               static_cast<long long>(kGenerousDeadline.count()),
               static_cast<long long>(kTightDeadline.count()));
  bool first = true;
  auto emit_rows = [&](const char* mode, const char* leg, const WorkloadResult& result) {
    for (const ModelLoadResult& row : result.per_model) {
      std::fprintf(f,
                   "%s    {\"model\": \"%s\", \"mode\": \"%s\", \"leg\": \"%s\", "
                   "\"role\": \"%s\", \"issued\": %zu, \"succeeded\": %zu, \"shed\": %zu, "
                   "\"late\": %zu, \"late_value\": %zu, \"p50_ms\": %.3f, \"p99_ms\": %.3f}",
                   first ? "" : ",\n", row.model.c_str(), mode, leg, row.hot ? "hot" : "cold",
                   row.issued, row.succeeded, row.shed, row.late, row.late_value, row.p50_ms,
                   row.p99_ms);
      first = false;
    }
  };
  emit_rows("fleet", "closed", fleet.closed);
  emit_rows("fleet", "overload", fleet.overload);
  emit_rows("static", "closed", statics.closed);
  emit_rows("static", "overload", statics.overload);
  std::fprintf(f,
               "\n  ],\n  \"summary\": {\"fleet_goodput_per_second\": %.2f, "
               "\"static_goodput_per_second\": %.2f, \"goodput_ratio\": %.3f, "
               "\"fleet_p99_ms\": %.3f, \"static_p99_ms\": %.3f, "
               "\"fleet_late_values\": %zu, \"static_late_values\": %zu, "
               "\"closed_value_past_deadline\": 0, \"swap_resolved\": %zu, "
               "\"swap_from_old\": %zu, \"swap_from_new\": %zu, \"swap_misrouted\": 0},\n",
               fleet.overload.goodput_per_second, statics.overload.goodput_per_second,
               fleet.overload.goodput_per_second / statics.overload.goodput_per_second,
               fleet.overload.p99_ms, statics.overload.p99_ms,
               fleet.overload.per_model[0].late_value, statics.overload.per_model[0].late_value,
               swap.resolved, swap.from_old, swap.from_new);
  // The fleet's own metrics export, embedded verbatim — the same document a
  // dashboard would scrape, proving the two agree on what happened.
  std::fprintf(f, "  \"fleet_metrics\": %s}\n", fleet_metrics.c_str());
  std::fclose(f);
  std::printf("wrote BENCH_serving_fleet.json (%zu models x 2 stacks x 2 legs)\n",
              config.models.size());
}

void print_leg(const char* leg, const StackResults& fleet, const StackResults& statics) {
  const WorkloadResult& f = std::strcmp(leg, "closed") == 0 ? fleet.closed : fleet.overload;
  const WorkloadResult& s = std::strcmp(leg, "closed") == 0 ? statics.closed : statics.overload;
  std::printf("\n--- %s leg ---\n", leg);
  std::printf("%-14s %-7s %-5s %8s %8s %6s %6s %8s %9s %9s\n", "model", "mode", "role",
              "issued", "ok", "shed", "late", "lateval", "p50", "p99");
  auto rows = [&](const char* mode, const WorkloadResult& result) {
    for (const ModelLoadResult& row : result.per_model) {
      std::printf("%-14s %-7s %-5s %8zu %8zu %6zu %6zu %8zu %7.2fms %7.2fms\n",
                  row.model.c_str(), mode, row.hot ? "hot" : "cold", row.issued, row.succeeded,
                  row.shed, row.late, row.late_value, row.p50_ms, row.p99_ms);
    }
  };
  rows("fleet", f);
  rows("static", s);
  std::printf("goodput: fleet %.1f req/s vs static %.1f req/s (%.2fx); p99 %.2fms vs %.2fms\n",
              f.goodput_per_second, s.goodput_per_second,
              f.goodput_per_second / s.goodput_per_second, f.p99_ms, s.p99_ms);
}

}  // namespace

int main(int argc, char** argv) {
  const FleetBenchConfig config = parse_fleet_args(argc, argv);
  std::printf("=== Fleet serving: shared fair-share pool vs N static one-model fleets ===\n");
  std::printf("(%zu models, width %.3g, image %lld, ratio %.2g; hot %zu reqs x %zu clients, "
              "cold @ %lldms, overload %.1fx for %zums)\n",
              config.models.size(), config.width, static_cast<long long>(config.image),
              config.ratio, config.hot_requests, config.clients,
              static_cast<long long>(kColdInterval.count()), kOverloadFactor,
              config.overload_ms);

  std::vector<ModelPtr> compiled;
  std::vector<Tensor> inputs;
  for (const std::string& name : config.models) {
    const auto& spec = models::find_model(name);
    temco::bench::BenchConfig graph_config;
    graph_config.width = config.width;
    graph_config.image = config.image;
    graph_config.batch = 1;
    graph_config.ratio = config.ratio;
    const auto original = spec.build(temco::bench::model_config(graph_config, spec));
    const auto decomposed = temco::bench::decomposed_baseline(original, graph_config);
    serve::CompileOptions compile_options;
    compile_options.max_batch = 8;
    compiled.push_back(serve::CompiledModel::compile(decomposed, compile_options));
    inputs.push_back(temco::bench::random_input(compiled.back()->graph(1), 1234));
  }

  check_bit_identical(config, compiled, inputs);

  // A differently-seeded compile of the first cold model, for the swap leg.
  ModelPtr replacement;
  {
    const auto& spec = models::find_model(config.models[1]);
    temco::bench::BenchConfig graph_config;
    graph_config.width = config.width;
    graph_config.image = config.image;
    graph_config.batch = 1;
    graph_config.ratio = config.ratio;
    auto model_cfg = temco::bench::model_config(graph_config, spec);
    model_cfg.seed = 999;
    const auto original = spec.build(model_cfg);
    const auto decomposed = temco::bench::decomposed_baseline(original, graph_config);
    serve::CompileOptions compile_options;
    compile_options.max_batch = 8;
    replacement = serve::CompiledModel::compile(decomposed, compile_options);
  }

  const double capacity_rps = measure_capacity(config, compiled[0], inputs[0]);
  std::printf("measured hot-model capacity: %.1f req/s\n", capacity_rps);

  // Best-of-N per stack, selected per leg: on a shared host a single pass can
  // eat a multi-millisecond scheduler stall, and the two legs are independent
  // measurements, so each leg keeps its own best pass. Both stacks get the
  // identical treatment; the best pass is the sustainable rate.
  auto best_of = [&](auto&& measure) {
    StackResults best;
    for (std::size_t r = 0; r < std::max<std::size_t>(config.repeats, 1); ++r) {
      StackResults attempt = measure();
      if (attempt.closed.goodput_per_second > best.closed.goodput_per_second) {
        best.closed = attempt.closed;
      }
      if (attempt.overload.goodput_per_second > best.overload.goodput_per_second) {
        best.overload = std::move(attempt.overload);
      }
    }
    return best;
  };

  std::string fleet_metrics;
  const StackResults fleet = best_of(
      [&] { return run_fleet(config, compiled, inputs, capacity_rps, &fleet_metrics); });
  const StackResults statics =
      best_of([&] { return run_static(config, compiled, inputs, capacity_rps); });

  print_leg("closed", fleet, statics);
  print_leg("overload", fleet, statics);
  std::printf("\nstrict-SLO: 0 accepted requests resolved past deadline in the closed leg "
              "(asserted); late values delivered under overload: fleet %zu vs static %zu\n",
              fleet.overload.per_model[0].late_value,
              statics.overload.per_model[0].late_value);

  const SwapResult swap = run_hot_swap(config, compiled, inputs, replacement);
  std::printf("hot swap under load: %zu responses, %zu old / %zu new, 0 misrouted\n",
              swap.resolved, swap.from_old, swap.from_new);

  if (config.json) write_json(config, capacity_rps, fleet, statics, swap, fleet_metrics);
  return 0;
}
