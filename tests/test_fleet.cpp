// Fleet serving semantics: weighted fair-share scheduling across models,
// SLO-aware admission, adaptive micro-batching, strict-SLO resolution, hot
// swap with background drain, and the metrics layer's accounting.
//
// Timing-sensitive behavior is driven by backlog (saturate the queue, then
// observe) rather than sleeps, and every cross-thread observation goes
// through the metrics snapshot or a resolved future.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "serve/fault.hpp"
#include "serve/fleet.hpp"
#include "serve/session.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

using namespace std::chrono_literals;
using serve::CompiledModel;
using serve::CompileOptions;
using serve::FleetOptions;
using serve::FleetServer;
using serve::Session;
using serve::SubmitOptions;
namespace metrics = serve::metrics;

models::ModelConfig fleet_config(std::uint64_t seed = 123) {
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.125;
  config.classes = 10;
  config.seed = seed;
  return config;
}

std::shared_ptr<const CompiledModel> compile_zoo_model(const std::string& name,
                                                       std::size_t max_batch = 4,
                                                       std::uint64_t seed = 123) {
  const auto& spec = models::find_model(name);
  const ir::Graph graph = spec.build(fleet_config(seed));
  const ir::Graph decomposed = decomp::decompose(graph, {.ratio = 0.25}).graph;
  CompileOptions options;
  options.max_batch = max_batch;
  return CompiledModel::compile(decomposed, options);
}

std::vector<Tensor> random_request(const CompiledModel& model, Rng& rng) {
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < model.num_inputs(); ++i) {
    inputs.push_back(Tensor::random_normal(model.input_shape(i), rng));
  }
  return inputs;
}

const metrics::ModelSnapshot& find_snapshot(const std::vector<metrics::ModelSnapshot>& all,
                                            const std::string& name) {
  for (const auto& s : all) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no snapshot for '" << name << "'";
  static metrics::ModelSnapshot empty;
  return empty;
}

// ---- options validation -----------------------------------------------------

TEST(FleetOptionsTest, ConstructionRejectsDegenerateOptions) {
  {
    FleetOptions options;
    options.workers = 0;
    EXPECT_THROW(FleetServer fleet(options), InvalidGraphError);
  }
  {
    FleetOptions options;
    options.sessions_per_model = 0;
    EXPECT_THROW(FleetServer fleet(options), InvalidGraphError);
  }
  {
    FleetOptions options;
    options.queue_capacity = 0;
    EXPECT_THROW(FleetServer fleet(options), InvalidGraphError);
  }
  {
    FleetOptions options;
    options.max_batch_timeout = -1us;
    EXPECT_THROW(FleetServer fleet(options), InvalidGraphError);
  }
  {
    FleetOptions options;
    options.retry_backoff = -1us;
    EXPECT_THROW(FleetServer fleet(options), InvalidGraphError);
  }
  {
    FleetOptions options;
    options.hang_budget = -1ms;
    EXPECT_THROW(FleetServer fleet(options), InvalidGraphError);
  }
  {
    FleetOptions options;
    options.breaker_threshold = 3;
    options.breaker_recovery = 0;
    EXPECT_THROW(FleetServer fleet(options), InvalidGraphError);
  }
  {
    FleetOptions options;
    options.default_slo.weight = 0.0;
    EXPECT_THROW(FleetServer fleet(options), InvalidGraphError);
  }
  // The boundary cases stay valid.
  FleetOptions minimal;
  minimal.workers = 1;
  minimal.sessions_per_model = 1;
  minimal.queue_capacity = 1;
  minimal.max_batch_timeout = 0us;
  EXPECT_NO_THROW(FleetServer fleet(minimal));
  // An install-time SLO is validated too.
  FleetServer fleet;
  auto model = compile_zoo_model("alexnet", 2);
  EXPECT_THROW(fleet.install("clf", model, {.weight = -1.0}), InvalidGraphError);
}

// ---- routing + numerics -----------------------------------------------------

TEST(FleetServerTest, ServesMultipleModelsBitIdenticalToSessionReference) {
  auto alexnet = compile_zoo_model("alexnet", 4);
  auto resnet = compile_zoo_model("resnet18", 4);

  FleetOptions options;
  options.workers = 2;
  FleetServer fleet(options);
  fleet.install("alexnet", alexnet);
  fleet.install("resnet", resnet);
  EXPECT_EQ(fleet.names().size(), 2u);
  EXPECT_EQ(fleet.model("alexnet").get(), alexnet.get());
  EXPECT_THROW(fleet.model("nope"), InvalidGraphError);
  EXPECT_THROW(fleet.submit("nope", {}), InvalidGraphError);

  // Reference: the same requests run alone, one session per model.  Fleet
  // batching and scheduling must be invisible except as throughput.
  Rng rng(7);
  constexpr int kRequests = 12;
  std::vector<std::vector<Tensor>> alex_in, res_in;
  for (int r = 0; r < kRequests; ++r) {
    alex_in.push_back(random_request(*alexnet, rng));
    res_in.push_back(random_request(*resnet, rng));
  }
  Session alex_ref(alexnet), res_ref(resnet);
  std::vector<std::future<std::vector<Tensor>>> alex_fut, res_fut;
  for (int r = 0; r < kRequests; ++r) {
    alex_fut.push_back(fleet.submit("alexnet", alex_in[r]));
    res_fut.push_back(fleet.submit("resnet", res_in[r]));
  }
  for (int r = 0; r < kRequests; ++r) {
    const auto want_a = alex_ref.run(alex_in[r]);
    const auto got_a = alex_fut[r].get();
    ASSERT_EQ(got_a.size(), want_a.size());
    for (std::size_t o = 0; o < want_a.size(); ++o) {
      EXPECT_EQ(max_abs_diff(got_a[o], want_a[o]), 0.0f)
          << "alexnet request " << r << " output " << o;
    }
    const auto want_r = res_ref.run(res_in[r]);
    const auto got_r = res_fut[r].get();
    ASSERT_EQ(got_r.size(), want_r.size());
    for (std::size_t o = 0; o < want_r.size(); ++o) {
      EXPECT_EQ(max_abs_diff(got_r[o], want_r[o]), 0.0f)
          << "resnet request " << r << " output " << o;
    }
  }

  const auto all = fleet.snapshot();
  ASSERT_EQ(all.size(), 2u);
  const auto& alex_snap = find_snapshot(all, "alexnet");
  EXPECT_EQ(alex_snap.accepted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(alex_snap.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(alex_snap.failed, 0u);
  EXPECT_EQ(alex_snap.value_past_deadline, 0u);
  EXPECT_GT(alex_snap.arena_resident_bytes, 0);
  EXPECT_EQ(alex_snap.latency.count, static_cast<std::uint64_t>(kRequests));
}

TEST(FleetServerTest, SharedWorkersServeBothBackloggedModelsWithoutStarvation) {
  auto alexnet = compile_zoo_model("alexnet", 4);
  auto resnet = compile_zoo_model("resnet18", 4);

  FleetOptions options;
  options.workers = 2;
  options.sessions_per_model = 1;  // one lane per model: contention is real
  FleetServer fleet(options);
  fleet.install("fast-lane", alexnet, {.weight = 4.0});
  fleet.install("slow-lane", resnet, {.weight = 1.0});

  Rng rng(11);
  const auto alex_req = random_request(*alexnet, rng);
  const auto res_req = random_request(*resnet, rng);
  constexpr int kPerModel = 24;
  std::vector<std::future<std::vector<Tensor>>> futures;
  for (int r = 0; r < kPerModel; ++r) {
    futures.push_back(fleet.submit("fast-lane", alex_req));
    futures.push_back(fleet.submit("slow-lane", res_req));
  }
  // Fair share means: with one model 4x the weight of the other, BOTH still
  // finish everything — age growth guarantees the light model is served.
  for (auto& future : futures) EXPECT_NO_THROW(future.get());

  const auto all = fleet.snapshot();
  EXPECT_EQ(find_snapshot(all, "fast-lane").completed, static_cast<std::uint64_t>(kPerModel));
  EXPECT_EQ(find_snapshot(all, "slow-lane").completed, static_cast<std::uint64_t>(kPerModel));
}

// ---- adaptive batching ------------------------------------------------------

TEST(FleetServerTest, BacklogCoalescesIntoMicroBatches) {
  auto model = compile_zoo_model("alexnet", 4);
  FleetOptions options;
  options.workers = 1;  // single lane: the backlog must coalesce to drain
  options.sessions_per_model = 1;
  FleetServer fleet(options);
  fleet.install("clf", model);

  Rng rng(3);
  const auto request = random_request(*model, rng);
  std::vector<std::future<std::vector<Tensor>>> futures;
  for (int r = 0; r < 32; ++r) futures.push_back(fleet.submit("clf", request));
  for (auto& future : futures) future.get();

  const auto snap = find_snapshot(fleet.snapshot(), "clf");
  EXPECT_EQ(snap.completed, 32u);
  EXPECT_GT(snap.max_batch_seen, 1u) << "backlog never coalesced";
  EXPECT_LT(snap.batches, 32u) << "every request ran alone despite backlog";
  EXPECT_GT(snap.batch_occupancy, 1.0);
  EXPECT_GE(snap.batch_cap, 1u);
  EXPECT_GT(snap.exec.count, 0u);
  EXPECT_GT(snap.queue_wait.count, 0u);
}

// ---- admission control ------------------------------------------------------

TEST(FleetServerTest, AdmissionRejectsPredictablyDoomedRequests) {
  auto model = compile_zoo_model("resnet18", 4);
  FleetOptions options;
  options.workers = 1;
  options.sessions_per_model = 1;
  FleetServer fleet(options);
  // A p99 target far below one execution: once the controller has measured
  // exec time, any queued backlog makes further submits provably late.
  fleet.install("tight", model, {.target_p99 = 1ms, .weight = 1.0});

  Rng rng(5);
  const auto request = random_request(*model, rng);
  // Warm up sequentially so the exec EWMA exists before the burst.
  for (int r = 0; r < 6; ++r) fleet.submit("tight", request).get();

  std::vector<std::future<std::vector<Tensor>>> accepted;
  std::size_t shed = 0;
  for (int r = 0; r < 64; ++r) {
    try {
      accepted.push_back(fleet.submit("tight", request));
    } catch (const SloUnmeetableError&) {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u) << "no submit was shed although the backlog blew the 1ms target";
  // Every accepted request still resolves — to a value or a typed error,
  // never a drop.
  for (auto& future : accepted) {
    try {
      future.get();
    } catch (const Error&) {
    }
  }
  const auto snap = find_snapshot(fleet.snapshot(), "tight");
  EXPECT_EQ(snap.rejected_slo, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(snap.accepted, 6u + static_cast<std::uint64_t>(accepted.size()));
}

TEST(FleetServerTest, SequentialClientSeesBookkeepingBeforeItsFutureResolves) {
  // Regression: a batch's in_flight decrement and estimates are committed
  // before its promises resolve.  When they were committed after, a strictly
  // sequential client could submit while its own finished request still
  // counted as in flight, and — with a p99 target below one execution —
  // admission shed it as doomed.
  auto model = compile_zoo_model("densenet121", 4);
  FleetOptions options;
  options.workers = 1;
  options.sessions_per_model = 1;
  FleetServer fleet(options);
  fleet.install("tight", model, {.target_p99 = 1ms, .weight = 1.0});

  Rng rng(6);
  const auto request = random_request(*model, rng);
  for (std::uint64_t r = 1; r <= 200; ++r) {
    ASSERT_NO_THROW(fleet.submit("tight", request).get()) << "sequential request " << r;
    const auto snap = find_snapshot(fleet.snapshot(), "tight");
    ASSERT_EQ(snap.in_flight, 0) << "request " << r << " still in flight after its get()";
    ASSERT_EQ(snap.completed, r);
  }
  const auto snap = find_snapshot(fleet.snapshot(), "tight");
  EXPECT_EQ(snap.rejected_slo, 0u);
  // The scenario only has teeth when one execution outlasts the target.
  EXPECT_GT(snap.exec.quantile_ms(0.5), 1.0) << "one execution no longer outlasts the target";
}

TEST(FleetServerTest, DeadlinesRejectExpiredAndNeverDeliverLateValues) {
  auto model = compile_zoo_model("alexnet", 4);
  FleetOptions options;
  options.workers = 1;
  options.sessions_per_model = 1;
  options.slo_admission = false;  // isolate the deadline machinery
  FleetServer fleet(options);
  fleet.install("clf", model);

  Rng rng(17);
  const auto request = random_request(*model, rng);

  // Already-expired deadline: typed rejection at submit, nothing queued.
  SubmitOptions expired;
  expired.deadline = std::chrono::steady_clock::now() - 1ms;
  EXPECT_THROW(fleet.submit("clf", request, expired), DeadlineExceededError);

  // A backlog of tight-deadline requests: each resolves to a value in time
  // or to DeadlineExceededError — the strict-SLO rule forbids late values.
  std::vector<std::future<std::vector<Tensor>>> futures;
  std::vector<std::chrono::steady_clock::time_point> deadlines;
  for (int r = 0; r < 24; ++r) {
    SubmitOptions tight;
    tight.timeout = 3ms;
    deadlines.push_back(std::chrono::steady_clock::now() + 3ms);
    futures.push_back(fleet.submit("clf", request, tight));
  }
  std::size_t in_time = 0, late = 0;
  for (std::size_t r = 0; r < futures.size(); ++r) {
    try {
      futures[r].get();
      ++in_time;
      EXPECT_LE(std::chrono::steady_clock::now(), deadlines[r] + 50ms)
          << "a value arrived grossly past its deadline";
    } catch (const DeadlineExceededError&) {
      ++late;
    }
  }
  EXPECT_EQ(in_time + late, futures.size());
  const auto snap = find_snapshot(fleet.snapshot(), "clf");
  EXPECT_EQ(snap.rejected_deadline, 1u);
  EXPECT_EQ(snap.completed, in_time);
  EXPECT_EQ(snap.deadline_expired, static_cast<std::uint64_t>(late));
}

// ---- fault path -------------------------------------------------------------

TEST(FleetServerTest, TransientFaultsRetryInvisiblyPerModel) {
  auto model = compile_zoo_model("alexnet", 2);
  FleetOptions options;
  options.workers = 1;
  options.sessions_per_model = 1;
  options.retry_backoff = 0us;  // deterministic: retry immediately
  FleetServer fleet(options);
  fleet.install("clf", model);

  Rng rng(23);
  const auto request = random_request(*model, rng);
  fleet.submit("clf", request).get();  // warm, failpoint must hit mid-stream

  failpoints::arm("serve.exec_transient", 2);
  const auto got = fleet.submit("clf", request).get();  // retried, then served
  failpoints::disarm("serve.exec_transient");

  Session reference(model);
  const auto want = reference.run(request);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t o = 0; o < want.size(); ++o) {
    EXPECT_EQ(max_abs_diff(got[o], want[o]), 0.0f);
  }
  const auto snap = find_snapshot(fleet.snapshot(), "clf");
  EXPECT_GE(snap.retries, 2u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.completed, 2u);
}

// ---- hot swap ---------------------------------------------------------------

TEST(FleetServerTest, HotSwapUnderLoadAttributesEveryResponseAndDrains) {
  // Same architecture, different weights: every response is bitwise
  // attributable to generation A or generation B, and a misroute fails.
  auto model_a = compile_zoo_model("alexnet", 2, /*seed=*/123);
  auto model_b = compile_zoo_model("alexnet", 2, /*seed=*/999);

  Rng rng(91);
  const auto request = random_request(*model_a, rng);
  Session ref_a(model_a), ref_b(model_b);
  const auto want_a = ref_a.run(request);
  const auto want_b = ref_b.run(request);
  ASSERT_GT(max_abs_diff(want_a[0], want_b[0]), 0.0f) << "models must be distinguishable";

  FleetOptions options;
  options.workers = 2;
  FleetServer fleet(options);
  fleet.install("clf", model_a);
  EXPECT_THROW(fleet.swap("other", model_b), InvalidGraphError);

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::atomic<int> from_a{0}, from_b{0}, misrouted{0}, completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < kPerClient; ++r) {
        const auto got = fleet.submit("clf", request).get();
        if (max_abs_diff(got[0], want_a[0]) == 0.0f) {
          from_a.fetch_add(1);
        } else if (max_abs_diff(got[0], want_b[0]) == 0.0f) {
          from_b.fetch_add(1);
        } else {
          misrouted.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }
  while (completed.load() < kClients) std::this_thread::yield();
  fleet.swap("clf", model_b);
  for (auto& client : clients) client.join();

  EXPECT_EQ(completed.load(), kClients * kPerClient) << "a request was dropped";
  EXPECT_EQ(misrouted.load(), 0) << "a response matched neither generation";
  EXPECT_GT(from_a.load(), 0) << "swap happened before any old-generation traffic";

  // The displaced generation drains in the background; wait_drained pends on
  // exactly that, and post-drain traffic is all generation B.
  fleet.wait_drained();
  EXPECT_EQ(fleet.model("clf").get(), model_b.get());
  const auto settled = fleet.submit("clf", request).get();
  for (std::size_t o = 0; o < want_b.size(); ++o) {
    EXPECT_EQ(max_abs_diff(settled[o], want_b[o]), 0.0f) << "output " << o;
  }
}

TEST(FleetServerTest, RemoveStopsServingAndShutdownResolvesEverything) {
  auto model = compile_zoo_model("alexnet", 2);
  FleetServer fleet;
  fleet.install("clf", model);
  Rng rng(29);
  const auto request = random_request(*model, rng);
  fleet.submit("clf", request).get();

  fleet.remove("clf");
  fleet.wait_drained();
  EXPECT_THROW(fleet.submit("clf", request), InvalidGraphError);
  EXPECT_TRUE(fleet.names().empty());

  fleet.install("clf2", model);
  auto pending = fleet.submit("clf2", request);
  fleet.shutdown(/*drain=*/true);
  EXPECT_NO_THROW(pending.get());  // drain completes accepted work
  EXPECT_THROW(fleet.submit("clf2", request), CancelledError);
  fleet.shutdown(true);  // idempotent
}

// ---- metrics ----------------------------------------------------------------

TEST(FleetMetricsTest, HistogramQuantilesAreBucketAccurate) {
  metrics::LatencyHistogram histogram;
  EXPECT_EQ(histogram.snapshot().quantile_ms(0.99), 0.0);
  // 1000 observations at 1 ms, 10 at 100 ms: p50 ~ 1 ms, p99.5+ ~ 100 ms,
  // each within one sub-octave bucket (19%) of truth.
  for (int i = 0; i < 1000; ++i) histogram.record_seconds(1e-3);
  for (int i = 0; i < 10; ++i) histogram.record_seconds(100e-3);
  const auto snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1010u);
  EXPECT_NEAR(snap.quantile_ms(0.50), 1.0, 0.25);
  EXPECT_NEAR(snap.quantile_ms(0.999), 100.0, 25.0);
  EXPECT_NEAR(snap.max_ms(), 100.0, 1.0);
  EXPECT_NEAR(snap.mean_ms(), (1000 * 1.0 + 10 * 100.0) / 1010.0, 0.1);
}

TEST(FleetMetricsTest, JsonExportCarriesCountersAndAdaptiveState) {
  auto model = compile_zoo_model("alexnet", 2);
  FleetOptions options;
  options.hang_budget = 50ms;
  FleetServer fleet(options);
  fleet.install("clf", model, {.target_p99 = 250ms, .weight = 2.0});
  Rng rng(31);
  const auto request = random_request(*model, rng);
  for (int r = 0; r < 4; ++r) fleet.submit("clf", request).get();
  {
    // One hung batch, so the watchdog counters export nonzero values.
    failpoints::ScopedArm wedge("serve.wedge_batch", 1);
    EXPECT_THROW(fleet.submit("clf", request).get(), DeadlineExceededError);
  }

  const std::string json = fleet.metrics_json();
  for (const char* key :
       {"\"models\":", "\"model\": \"clf\"", "\"completed\": 4", "\"rejected_slo\":",
        "\"value_past_deadline\": 0", "\"hung_requests\": 1", "\"hung_batches\": 1",
        "\"arena_resident_bytes\":", "\"batch_cap\":",
        "\"weight\": 2.000", "\"slo_target_p99_ms\": 250.000", "\"latency\":", "\"queue_wait\":",
        "\"exec\":", "\"p99_ms\":", "\"requests_per_second\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
  }
  const auto snap = find_snapshot(fleet.snapshot(), "clf");
  EXPECT_EQ(snap.hung_requests, 1u);
  EXPECT_EQ(snap.hung_batches, 1u);
  EXPECT_EQ(snap.weight, 2.0);
  EXPECT_GT(snap.uptime_seconds, 0.0);
  EXPECT_GT(snap.requests_per_second, 0.0);
}

// ---- fault taxonomy sharing -------------------------------------------------

TEST(FaultClassTest, ClassifierMatchesTheServingMatrix) {
  const auto classify = [](auto&& error) {
    return serve::classify_fault(std::make_exception_ptr(error));
  };
  EXPECT_EQ(classify(TransientFaultError("x")), serve::FaultClass::kTransient);
  EXPECT_EQ(classify(ResourceExhaustedError("x")), serve::FaultClass::kTransient);
  EXPECT_EQ(classify(DeadlineExceededError("x")), serve::FaultClass::kDeadline);
  EXPECT_EQ(classify(CancelledError("x")), serve::FaultClass::kCancelled);
  EXPECT_EQ(classify(MemoryCorruptionError("x")), serve::FaultClass::kCorrupting);
  EXPECT_EQ(classify(NumericError("x")), serve::FaultClass::kCorrupting);
  EXPECT_EQ(classify(ShapeError("x")), serve::FaultClass::kTerminal);
  EXPECT_EQ(classify(std::runtime_error("x")), serve::FaultClass::kTerminal);
  // SloUnmeetableError is an admission verdict, not a batch fault — it must
  // never be retried if it somehow reaches the execution path.
  EXPECT_EQ(classify(SloUnmeetableError("x")), serve::FaultClass::kTerminal);
}

}  // namespace
}  // namespace temco
