// Chaos harness over the full failpoint surface (support/chaos.hpp).
//
// For EVERY registered failpoint — the list is discovered at runtime via
// failpoints::list(), so a new Site added anywhere in the tree is swept
// automatically — the harness arms the site at a seeded-random skip/hit
// count (faults land mid-stream, not always on first touch) and drives a
// fresh one-model FleetServer with concurrent clients, mixed deadlines,
// retry, breaker, quarantine, and watchdog all enabled.  The invariants, per
// site:
//
//   1. No crash, no hang: every future becomes ready within a bound (the
//      asan/tsan CI legs add the no-leak / no-race half of this).
//   2. Typed resolution: every request ends in a value or a temco::Error
//      subtype — a foreign exception anywhere fails the sweep.
//   3. Fault isolation: every request that *succeeded* produced outputs
//      bitwise identical to the fault-free reference (exception:
//      gemm.dispatch, which legitimately reroutes to the scalar tier whose
//      float summation order may differ).
//   4. Steady state: after disarming, the pool is full again (quarantined
//      sessions replaced, leases returned) and a clean probe request
//      matches the reference bitwise.
//   5. Accounting: once drained, accepted requests partition exactly into
//      the terminal outcome counters and nothing is left in flight.
//
// Offline sites (arena.packing_overflow, scheduler.drop_node,
// executor.slab_oom) cannot fire under serving load — plans, schedules, and
// slabs are precomputed in the CompiledModel/Session — so the sweep
// additionally drives the scheduling/construction paths while those are
// armed, enough times to burn through the planned skips and reach the
// armed hits.
//
// The sweep writes CHAOS_outcomes.json (per-site outcome tallies) next to
// the test binary; CI uploads it as an artifact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/scheduler.hpp"
#include "serve/fleet.hpp"
#include "serve/session.hpp"
#include "support/chaos.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"

namespace temco {
namespace {

using namespace std::chrono_literals;
using serve::CompiledModel;
using serve::CompileOptions;
using serve::FleetOptions;
using serve::FleetServer;
using serve::Session;
using serve::SubmitOptions;

ir::Graph chaos_graph() {
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.125;
  config.classes = 10;
  config.seed = 123;
  const auto& spec = models::find_model("alexnet");
  return decomp::decompose(spec.build(config), {.ratio = 0.25}).graph;
}

std::shared_ptr<const CompiledModel> chaos_model() {
  CompileOptions options;
  options.max_batch = 4;
  options.check_numerics = true;
  options.arena_canaries = true;
  return CompiledModel::compile(chaos_graph(), options);
}

bool bitwise_equal(const std::vector<Tensor>& got, const std::vector<Tensor>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t o = 0; o < got.size(); ++o) {
    if (got[o].shape() != want[o].shape()) return false;
    for (std::int64_t i = 0; i < got[o].numel(); ++i) {
      if (got[o][i] != want[o][i]) return false;
    }
  }
  return true;
}

bool eventually(const std::function<bool()>& predicate, std::chrono::milliseconds limit = 30s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Sites on the offline (compile/construction) path: plans, schedules, and
/// slabs are precomputed, so these can never fire under serving load.
bool offline_site(const std::string& site) {
  return site == "arena.packing_overflow" || site == "scheduler.drop_node" ||
         site == "executor.slab_oom";
}

TEST(ChaosSweepTest, EveryFailpointUnderConcurrentServingLoad) {
  const ir::Graph graph = chaos_graph();
  auto model = chaos_model();

  // Fault-free references, computed before anything is armed.
  constexpr int kPayloads = 4;
  Rng rng(99);
  std::vector<std::vector<Tensor>> payloads;
  std::vector<std::vector<Tensor>> references;
  {
    Session reference(model);
    for (int p = 0; p < kPayloads; ++p) {
      std::vector<Tensor> inputs;
      for (std::size_t i = 0; i < model->num_inputs(); ++i) {
        inputs.push_back(Tensor::random_normal(model->input_shape(i), rng));
      }
      references.push_back(reference.run(inputs));
      payloads.push_back(std::move(inputs));
    }
  }

  // Seeded sweep: one randomized plan per registered site, reproducible.
  const auto plans = chaos::plan_sweep(/*seed=*/0xC4A05u, /*max_skips=*/3, /*max_count=*/2);
  ASSERT_GE(plans.size(), 10u) << "the registry lost sites; the sweep is no longer full-surface";

  std::vector<chaos::SiteReport> reports;
  for (const chaos::SitePlan& plan : plans) {
    SCOPED_TRACE("site=" + plan.site + " skips=" + std::to_string(plan.skips) +
                 " count=" + std::to_string(plan.count));
    chaos::SiteReport report;
    report.site = plan.site;
    report.skips = plan.skips;
    report.count = plan.count;
    // gemm.dispatch degrades to the scalar tier, whose summation order may
    // legitimately differ from the vector tiers in final float bits.
    const bool check_bitwise = plan.site != "gemm.dispatch";

    {
      FleetOptions options;
      options.workers = 2;
      options.sessions_per_model = 2;
      options.max_batch_timeout = 0us;
      options.slo_admission = false;  // plain bounded-queue admission: faults, not shedding
      options.max_retries = 2;
      options.retry_backoff = 0us;
      options.breaker_threshold = 2;
      options.breaker_recovery = 4;
      options.hang_budget = 250ms;  // rescues serve.wedge_batch
      FleetServer fleet(options);
      fleet.install("chaos", model);

      failpoints::arm_after(plan.site, plan.skips, plan.count);

      struct Result {
        int payload = 0;
        chaos::Outcome outcome = chaos::Outcome::kForeign;
        std::vector<Tensor> outputs;
      };
      std::vector<Result> results;
      std::mutex results_mutex;
      std::atomic<int> abandoned{0};

      constexpr int kClients = 3;
      constexpr int kPerClient = 24;
      std::vector<std::thread> clients;
      for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          for (int i = 0; i < kPerClient; ++i) {
            Result result;
            result.payload = (t * kPerClient + i) % kPayloads;
            try {
              SubmitOptions submit;
              // A slice of the load carries tight deadlines so expiry paths
              // (admission, batch formation, in-executor) see chaos traffic.
              if ((t + i) % 6 == 5) submit.timeout = 2ms;
              auto future = fleet.submit("chaos", payloads[result.payload], submit);
              if (future.wait_for(120s) != std::future_status::ready) {
                abandoned.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              result.outputs = future.get();
              result.outcome = chaos::Outcome::kSuccess;
            } catch (...) {
              result.outcome = chaos::classify(std::current_exception());
            }
            std::lock_guard<std::mutex> lock(results_mutex);
            results.push_back(std::move(result));
          }
        });
      }
      for (std::thread& client : clients) client.join();

      EXPECT_EQ(abandoned.load(), 0) << "a future never resolved: hung batch leaked past the watchdog";

      for (const Result& result : results) {
        report.record(result.outcome);
        if (result.outcome == chaos::Outcome::kSuccess && check_bitwise) {
          EXPECT_TRUE(bitwise_equal(result.outputs, references[result.payload]))
              << "a request that succeeded under chaos diverged from the fault-free reference";
          ++report.bitwise_checked;
        }
      }

      // Offline sites: drive the path that can actually hit them (memory
      // scheduling, arena plan packing, slab allocation — all before any
      // request is served).  Repeated skips+count times so the planned
      // skips are consumed and the site is guaranteed to fire in-loop.
      if (offline_site(plan.site)) {
        for (std::int64_t probe_i = 0; probe_i < plan.skips + plan.count; ++probe_i) {
          try {
            if (plan.site == "scheduler.drop_node") {
              (void)runtime::schedule_for_memory(graph);
            } else {
              runtime::Executor probe_executor(graph, {.use_arena = true});
            }
            report.record(chaos::Outcome::kSuccess);
          } catch (...) {
            report.record(chaos::classify(std::current_exception()));
          }
        }
      }

      failpoints::disarm_all();

      // Steady state: the pool refills (quarantined sessions replaced,
      // leases home) and a clean probe matches the reference bitwise.
      const auto pool = fleet.session_pool("chaos");
      const bool pool_ok =
          eventually([&] { return pool->size() > 0 && pool->available() == pool->size(); });
      EXPECT_TRUE(pool_ok) << "pool did not return to steady state after disarm";
      bool probe_ok = false;
      auto probe = fleet.submit("chaos", payloads[0]);
      if (probe.wait_for(120s) == std::future_status::ready) {
        try {
          probe_ok = bitwise_equal(probe.get(), references[0]);
        } catch (...) {
          probe_ok = false;
        }
      }
      EXPECT_TRUE(probe_ok) << "clean probe after disarm failed or diverged";
      report.steady_state = pool_ok && probe_ok;

      fleet.shutdown(true);
      const auto stats = fleet.snapshot().at(0);
      EXPECT_EQ(stats.accepted, stats.completed + stats.failed + stats.cancelled +
                                    stats.deadline_expired + stats.hung_requests)
          << "accepted requests must partition into the terminal outcome counters";
      EXPECT_EQ(stats.in_flight, 0);
      EXPECT_EQ(report.foreign(), 0)
          << "an exception outside the temco::Error taxonomy escaped to a client";
    }
    reports.push_back(std::move(report));
  }

  // Per-failpoint outcome summary; CI uploads this as an artifact.
  EXPECT_TRUE(chaos::write_summary_json("CHAOS_outcomes.json", reports));
}

}  // namespace
}  // namespace temco
