// Fleet server: the serving engine.  Any number of compiled models behind
// one shared worker pool, with weighted fair-share scheduling, SLO-aware
// admission, per-model adaptive micro-batching, and the fault machinery.
// A single-model deployment is one install().  DESIGN.md "Serving runtime",
// "Fault tolerance", and "Fleet serving" give the full contract.
//
// Life of a request: submit() validates it against the model's compatibility
// predicate and enqueues it, throwing typed errors instead of blocking when
// the fleet is stopping, the queue is full, or the deadline cannot be met.
// An idle worker scores every model with queued work as
// weight x age(oldest queued request) and serves the best one that has a
// free session — a request is only ever claimed together with a session, so
// a slow model never holds more workers than sessions.  The worker
// coalesces a micro-batch under the model's adaptive cap and straggler
// timeout, executes the batch-k variant once, and fulfills each future with
// its own slice of the outputs — bit-identical to running it alone.
//
// Admission: submit() forecasts the queue wait as
// (queued + in_flight) x exec_per_request / lanes and sheds the request with
// SloUnmeetableError when that would spend more than half its deadline or
// the model's p99 target.  Strict SLO: a value that would resolve past its
// deadline is converted to DeadlineExceededError (counted as
// value_past_deadline), so an accepted request never yields a late answer.
//
// Faults, per model: deadlines are enforced at admission, before every
// execution attempt, and inside the Executor via the session's cancel
// token; transient faults retry with jittered exponential backoff;
// corrupting faults quarantine the session; a circuit breaker degrades the
// model to singleton batches on the hardened executor; with a nonzero
// hang_budget a watchdog fails a batch that outlives it fast and cancels
// the stuck run.  Fault classes come from serve/fault.hpp.
//
// Bookkeeping before fanout: a batch's in_flight decrement, its execution
// and occupancy estimates, its breaker signal, and its controller step are
// committed under the fleet lock before any of its promises resolves, so a
// client that observes its future ready observes its request counted and
// out of flight — admission never sheds a sequential client over its own
// finished request.  Only the watchdog resolves ahead of bookkeeping:
// failing fast is its point, and a hung batch leaves in_flight when its
// worker comes back.  Every accepted request resolves exactly once (an
// atomic per-request claim arbitrates workers, watchdog, and shutdown).
//
// Hot swap: install() over a live name (or swap(), which insists on one)
// builds the replacement pool outside the fleet lock, then atomically
// redirects the name.  The displaced generation keeps being scheduled until
// everything it accepted has resolved; wait_drained() pends on that.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "serve/metrics.hpp"
#include "serve/session.hpp"
#include "support/cancel.hpp"

namespace temco::serve {

/// Per-request submit-time options.
struct SubmitOptions {
  /// Absolute completion deadline; time_point::max() (default) means none.
  /// An already-expired deadline is rejected at admission.
  std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max();

  /// Convenience: nonzero sets `deadline = now + timeout` at submit time
  /// (the earlier of the two wins if both are given).
  std::chrono::microseconds timeout{0};
};

struct FleetOptions {
  /// Latency SLO and scheduling weight for one model.
  struct ModelSlo {
    /// End-to-end p99 target; 0 (default) means no latency SLO — the model
    /// is batched for throughput and admission never rejects on time.
    std::chrono::milliseconds target_p99{0};

    /// Fair-share weight: the served-rate ratio between two backlogged
    /// models equals their weight ratio.  Must be positive.
    double weight = 1.0;
  };

  /// Worker lanes shared by every installed model.
  std::size_t workers = 4;

  /// Sessions (arena slabs) per installed model.  Also each model's ceiling
  /// on concurrently executing batches — a model can never hold more
  /// workers than sessions, which is what isolates a slow model.
  std::size_t sessions_per_model = 2;

  /// Admission queue bound, per model.
  std::size_t queue_capacity = 256;

  /// Ceiling on the adaptive straggler timeout.  The controller tunes each
  /// model's live timeout within [0, this].
  std::chrono::microseconds max_batch_timeout{500};

  /// Defaults applied to install() calls that don't carry their own SLO.
  ModelSlo default_slo{};

  /// Predictive admission: reject a submit whose forecast queue wait
  /// already blows its deadline or the model's p99 target.  On by default;
  /// off reproduces plain bounded-queue admission.
  bool slo_admission = true;

  // ---- fault machinery, per model ---------------------------------------------

  /// Extra attempts granted to a batch whose failure classified transient
  /// (TransientFaultError, ResourceExhaustedError).  0 disables retry.
  std::size_t max_retries = 2;

  /// Base backoff before retry attempt a: base * 2^(a-1), scaled by a
  /// uniform jitter in [0.5, 1.5) so synchronized failures don't retry in
  /// lockstep.  0 retries immediately (what deterministic tests use).
  std::chrono::microseconds retry_backoff{200};

  /// Consecutive batch failures that trip a model's circuit breaker into
  /// degraded mode (singleton batches, hardened serial executor).  0 disables.
  std::size_t breaker_threshold = 3;

  /// Consecutive degraded-mode successes before normal batching restores.
  std::size_t breaker_recovery = 8;

  /// Wall-clock budget one executing batch may spend before the watchdog
  /// fails its futures fast (DeadlineExceededError) and cancels the run.
  /// The watchdog polls every hang_budget / 10 (at least 1 ms), so a hung
  /// batch is flagged within 1.1x the budget.  0 (default) starts no
  /// watchdog thread.
  std::chrono::milliseconds hang_budget{0};
};

/// Many models, one worker pool.  See the file comment for the contract.
/// Thread-safe: any number of submitters, installers, and snapshot readers.
class FleetServer {
 public:
  explicit FleetServer(FleetOptions options = {});

  /// Equivalent to shutdown(false).
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Installs `model` under `name` with the fleet's default SLO (or `slo`).
  /// Replacing a live name hot-swaps it: the old generation drains in the
  /// background (see wait_drained), new submits land on the new one.
  void install(const std::string& name, std::shared_ptr<const CompiledModel> model);
  void install(const std::string& name, std::shared_ptr<const CompiledModel> model,
               FleetOptions::ModelSlo slo);

  /// Loads an artifact file (CompiledModel::load) and installs it.
  void install_file(const std::string& name, const std::string& path);
  void install_file(const std::string& name, const std::string& path,
                    FleetOptions::ModelSlo slo);

  /// Hot swap: like install, but throws InvalidGraphError when `name` is
  /// not currently serving.  The new generation inherits the old one's SLO.
  void swap(const std::string& name, std::shared_ptr<const CompiledModel> model);
  void swap_file(const std::string& name, const std::string& path);

  /// Stops serving `name`: its accepted requests drain, new submits get
  /// InvalidGraphError.  No-op for an unknown name.
  void remove(const std::string& name);

  /// Blocks until every hot-swapped-out or removed generation has resolved
  /// all the requests it accepted.
  void wait_drained();

  /// Enqueues one request for `name`.  Throws InvalidGraphError (unknown
  /// name), ShapeError (incompatible inputs), CancelledError (shutting
  /// down), ResourceExhaustedError (queue full), DeadlineExceededError
  /// (deadline already expired), or SloUnmeetableError (predicted wait
  /// blows the deadline/SLO — shed load, don't retry).
  std::future<std::vector<Tensor>> submit(const std::string& name, std::vector<Tensor> inputs,
                                          SubmitOptions options = {});

  /// Stops admission and joins the workers.  drain=true completes every
  /// accepted request first; drain=false fails still-queued requests with
  /// CancelledError.  Idempotent.
  void shutdown(bool drain);

  /// Names currently serving (draining generations excluded), unordered.
  std::vector<std::string> names() const;

  /// The artifact currently serving `name`; throws InvalidGraphError if none.
  std::shared_ptr<const CompiledModel> model(const std::string& name) const;

  /// The session pool of the generation currently serving `name` (throws
  /// InvalidGraphError if none) — exposed so tests can stall a model by
  /// holding its leases.  The pointer keeps that generation's pool alive
  /// across a later swap.
  std::shared_ptr<SessionPool> session_pool(const std::string& name) const;

  /// Frozen metrics for every live model, one ModelSnapshot each.
  std::vector<metrics::ModelSnapshot> snapshot() const;

  /// snapshot() rendered as one JSON document ({"models": [...]}).
  std::string metrics_json() const;

 private:
  struct Request {
    std::vector<Tensor> inputs;
    std::promise<std::vector<Tensor>> promise;
    std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max();
    std::chrono::steady_clock::time_point submitted_at;
    /// Exactly-once resolution claim: whoever flips it owns the promise.
    /// Workers, the watchdog, and shutdown all race through here safely.
    std::atomic<bool> resolved{false};

    bool claim() {
      bool expected = false;
      return resolved.compare_exchange_strong(expected, true, std::memory_order_acq_rel);
    }
    bool expired(std::chrono::steady_clock::time_point now) const {
      return deadline != std::chrono::steady_clock::time_point::max() && now >= deadline;
    }
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// One installed model generation.  Queue, adaptive state, and breaker
  /// bookkeeping are guarded by the fleet mutex_ (they are touched only at
  /// submit/pick/post-batch boundaries — execution itself runs unlocked);
  /// metrics are lock-free atomics recorded from anywhere.
  struct Model {
    std::string name;
    std::uint64_t generation = 0;
    std::shared_ptr<const CompiledModel> compiled;
    std::unique_ptr<SessionPool> pool;
    FleetOptions::ModelSlo slo;
    std::chrono::steady_clock::time_point installed_at;
    std::shared_ptr<metrics::ModelMetrics> metrics;

    std::deque<RequestPtr> queue;
    std::int64_t in_flight = 0;
    std::size_t fanouts = 0;  ///< settles between their bookkeeping and fanout end
    bool retired = false;     ///< swapped out or removed; drains, takes no submits

    /// Nothing queued, claimed, or still resolving: a retired generation
    /// in this state is fully drained.
    bool idle() const { return queue.empty() && in_flight == 0 && fanouts == 0; }

    // ---- adaptive micro-batcher state --------------------------------------
    std::size_t batch_cap = 1;
    std::chrono::microseconds batch_timeout{0};
    double arrival_rate_hat = 0.0;    ///< req/s EWMA
    double exec_per_req_hat = 0.0;    ///< seconds, EWMA over batch runs
    double occupancy_hat = 0.0;       ///< requests per batch, EWMA
    std::chrono::steady_clock::time_point last_arrival;
    std::array<double, 128> recent_ms{};  ///< ring of recent end-to-end latencies
    std::size_t recent_count = 0;
    std::size_t batches_since_control = 0;

    // ---- per-model circuit breaker -----------------------------------------
    std::size_t consecutive_failures = 0;
    std::size_t probe_successes = 0;
    std::atomic<bool> degraded{false};
  };
  using ModelPtr = std::shared_ptr<Model>;

  /// What a batch's end means for the model's circuit breaker.
  enum class Health { kNeutral, kSuccess, kFailure };

  /// How a set of claimed requests resolves: one value per request, or one
  /// typed error landing in `counter`.  execute_batch produces it; settle
  /// commits its bookkeeping and then fans it out.
  struct Outcome {
    std::vector<std::vector<Tensor>> values;  ///< on success, one per request
    std::exception_ptr error;                 ///< otherwise, for every request
    std::atomic<std::uint64_t>* counter = nullptr;  ///< the metric `error` lands in
    double exec_seconds = 0.0;                ///< the successful run's wall time
    Health health = Health::kNeutral;
  };

  /// One batch attempt currently executing, registered with the watchdog.
  struct Inflight {
    Model* model = nullptr;  ///< kept alive by the executing worker's ModelPtr
    std::chrono::steady_clock::time_point started;
    support::CancelToken* token = nullptr;
    std::vector<RequestPtr> requests;
    bool flagged = false;
  };
  using WatchHandle = std::optional<std::list<Inflight>::iterator>;

  void install_impl(const std::string& name, std::shared_ptr<const CompiledModel> compiled,
                    std::optional<FleetOptions::ModelSlo> slo, bool must_exist);
  void retire_locked(const ModelPtr& model);
  /// Closes admission and, with `cancel_queued`, fails every still-queued
  /// request of every generation with CancelledError(`why`).
  void stop_admission(bool cancel_queued, const char* why);

  void worker_loop();
  /// Highest-score runnable model (non-empty queue + free session), with its
  /// lease.  Returns nullptr when nothing is runnable right now.
  ModelPtr pick_model(SessionPool::Lease& lease);
  Outcome execute_batch(const ModelPtr& model, SessionPool::Lease lease,
                        std::vector<RequestPtr>& batch, bool degraded);
  /// Resolves claimed `requests` with `outcome`: commits the in_flight
  /// decrement, the estimates, the breaker signal, and (at `batch_end`) the
  /// controller step under the fleet lock, then fans out the promises.
  void settle(const ModelPtr& model, const std::vector<RequestPtr>& requests,
              Outcome& outcome, bool batch_end);
  void sweep_expired(const ModelPtr& model, std::vector<RequestPtr>& batch);
  void adapt_locked(Model& model);
  void breaker_locked(Model& model, Health health);

  bool resolve_value(Model& model, Request& request, std::vector<Tensor> value);
  bool resolve_error(Model& model, Request& request, const std::exception_ptr& error,
                     std::atomic<std::uint64_t>& counter);
  void backoff_sleep(std::size_t attempt);
  std::size_t total_queued_locked() const;

  WatchHandle watch_begin(Model& model, const std::vector<RequestPtr>& batch,
                          support::CancelToken* token);
  bool watch_end(WatchHandle& handle);
  void watchdog_loop();

  FleetOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< new work, freed sessions, shutdown
  std::condition_variable drain_cv_;  ///< a retired generation fully drained
  std::map<std::string, ModelPtr> live_;  ///< guarded by mutex_
  std::list<ModelPtr> draining_;          ///< guarded by mutex_
  std::uint64_t next_generation_ = 1;     ///< guarded by mutex_
  bool stopping_ = false;                 ///< guarded by mutex_
  bool joined_ = false;                   ///< guarded by mutex_
  std::mutex shutdown_mutex_;

  std::mutex rng_mutex_;
  std::mt19937_64 rng_{0xf1ee7c0de5e17ull};  ///< guarded by rng_mutex_

  // ---- watchdog (active only with a nonzero hang_budget) --------------------
  std::mutex watch_mutex_;
  std::condition_variable watch_cv_;
  std::list<Inflight> watched_;  ///< guarded by watch_mutex_
  bool watchdog_stop_ = false;   ///< guarded by watch_mutex_
  std::thread watchdog_;

  // Threads last: they use every member above.
  std::unique_ptr<ThreadPool> worker_pool_;
  std::thread dispatcher_;
};

}  // namespace temco::serve
