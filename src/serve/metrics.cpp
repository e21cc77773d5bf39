#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace temco::serve::metrics {

namespace {

/// Bucket index for a latency of `us` microseconds: floor(4 * log2(us)),
/// clamped to the table.  Sub-microsecond observations land in bucket 0.
std::size_t bucket_index(double us) {
  if (us <= 1.0) return 0;
  const double index = LatencyHistogram::kSubBucketsPerOctave * std::log2(us);
  if (index >= static_cast<double>(LatencyHistogram::kBuckets - 1)) {
    return LatencyHistogram::kBuckets - 1;
  }
  return static_cast<std::size_t>(index);
}

void append_histogram_json(std::string& out, const char* key,
                           const LatencyHistogram::Snapshot& h) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "\"%s\": {\"count\": %llu, \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
                "\"p99_ms\": %.4f, \"max_ms\": %.4f}",
                key, static_cast<unsigned long long>(h.count), h.mean_ms(), h.quantile_ms(0.50),
                h.quantile_ms(0.99), h.max_ms());
  out += buffer;
}

void append_counter(std::string& out, const char* key, std::uint64_t value, bool comma = true) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(value), comma ? ", " : "");
  out += buffer;
}

}  // namespace

void LatencyHistogram::record_seconds(double seconds) {
  const double us = seconds * 1e6;
  const std::uint64_t us_int = us > 0.0 ? static_cast<std::uint64_t>(us + 0.5) : 0;
  counts_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us_int, std::memory_order_relaxed);
  std::uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (seen < us_int &&
         !max_us_.compare_exchange_weak(seen, us_int, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::bucket_lower_us(std::size_t i) {
  return std::exp2(static_cast<double>(i) / kSubBucketsPerOctave);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot result;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    result.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  result.count = count_.load(std::memory_order_relaxed);
  result.sum_us = sum_us_.load(std::memory_order_relaxed);
  result.max_us = max_us_.load(std::memory_order_relaxed);
  return result;
}

double LatencyHistogram::Snapshot::quantile_ms(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target observation (1-based, ceil), walked over the buckets.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      // Geometric midpoint of the bucket: the estimate's error is bounded by
      // the sub-octave width.  The last bucket is open-ended; cap by max.
      const double lower = bucket_lower_us(i);
      const double upper = i + 1 < kBuckets ? bucket_lower_us(i + 1)
                                            : std::max(lower, static_cast<double>(max_us));
      return std::sqrt(lower * std::max(upper, lower)) / 1e3;
    }
  }
  return static_cast<double>(max_us) / 1e3;  // unreachable: counts sum to count
}

double LatencyHistogram::Snapshot::mean_ms() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum_us) / static_cast<double>(count) / 1e3;
}

void ModelMetrics::record_batch(std::uint64_t size, double exec_seconds) {
  batches.fetch_add(1, std::memory_order_relaxed);
  batched_requests.fetch_add(size, std::memory_order_relaxed);
  std::uint64_t seen = max_batch_seen.load(std::memory_order_relaxed);
  while (seen < size &&
         !max_batch_seen.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
  }
  exec.record_seconds(exec_seconds);
}

ModelSnapshot snapshot(const ModelMetrics& metrics) {
  ModelSnapshot s;
  const auto load = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  s.submitted = load(metrics.submitted);
  s.accepted = load(metrics.accepted);
  s.rejected_queue_full = load(metrics.rejected_queue_full);
  s.rejected_slo = load(metrics.rejected_slo);
  s.rejected_deadline = load(metrics.rejected_deadline);
  s.completed = load(metrics.completed);
  s.failed = load(metrics.failed);
  s.cancelled = load(metrics.cancelled);
  s.deadline_expired = load(metrics.deadline_expired);
  s.value_past_deadline = load(metrics.value_past_deadline);
  s.retries = load(metrics.retries);
  s.quarantined = load(metrics.quarantined);
  s.degraded_batches = load(metrics.degraded_batches);
  s.breaker_trips = load(metrics.breaker_trips);
  s.breaker_restores = load(metrics.breaker_restores);
  s.hung_requests = load(metrics.hung_requests);
  s.hung_batches = load(metrics.hung_batches);
  s.batches = load(metrics.batches);
  s.batched_requests = load(metrics.batched_requests);
  s.max_batch_seen = load(metrics.max_batch_seen);
  s.queue_depth = metrics.queue_depth.load(std::memory_order_relaxed);
  s.in_flight = metrics.in_flight.load(std::memory_order_relaxed);
  s.arena_resident_bytes = metrics.arena_resident_bytes.load(std::memory_order_relaxed);
  s.latency = metrics.latency.snapshot();
  s.queue_wait = metrics.queue_wait.snapshot();
  s.exec = metrics.exec.snapshot();
  s.batch_occupancy =
      s.batches > 0 ? static_cast<double>(s.batched_requests) / static_cast<double>(s.batches)
                    : 0.0;
  return s;
}

void append_json(std::string& out, const ModelSnapshot& s) {
  char buffer[256];
  out += "{\"model\": \"";
  out += s.name;  // model names come from code/CLI, not hostile input
  out += "\", ";
  append_counter(out, "submitted", s.submitted);
  append_counter(out, "accepted", s.accepted);
  append_counter(out, "rejected_queue_full", s.rejected_queue_full);
  append_counter(out, "rejected_slo", s.rejected_slo);
  append_counter(out, "rejected_deadline", s.rejected_deadline);
  append_counter(out, "completed", s.completed);
  append_counter(out, "failed", s.failed);
  append_counter(out, "cancelled", s.cancelled);
  append_counter(out, "deadline_expired", s.deadline_expired);
  append_counter(out, "value_past_deadline", s.value_past_deadline);
  append_counter(out, "retries", s.retries);
  append_counter(out, "quarantined", s.quarantined);
  append_counter(out, "degraded_batches", s.degraded_batches);
  append_counter(out, "breaker_trips", s.breaker_trips);
  append_counter(out, "breaker_restores", s.breaker_restores);
  append_counter(out, "hung_requests", s.hung_requests);
  append_counter(out, "hung_batches", s.hung_batches);
  append_counter(out, "batches", s.batches);
  append_counter(out, "batched_requests", s.batched_requests);
  append_counter(out, "max_batch_seen", s.max_batch_seen);
  std::snprintf(buffer, sizeof(buffer),
                "\"queue_depth\": %lld, \"in_flight\": %lld, \"arena_resident_bytes\": %lld, ",
                static_cast<long long>(s.queue_depth), static_cast<long long>(s.in_flight),
                static_cast<long long>(s.arena_resident_bytes));
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "\"uptime_seconds\": %.3f, \"requests_per_second\": %.2f, "
                "\"batch_occupancy\": %.3f, ",
                s.uptime_seconds, s.requests_per_second, s.batch_occupancy);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "\"batch_cap\": %llu, \"batch_timeout_us\": %lld, \"arrival_rate_hat\": %.2f, "
                "\"slo_target_p99_ms\": %.3f, \"weight\": %.3f, \"degraded\": %s, ",
                static_cast<unsigned long long>(s.batch_cap),
                static_cast<long long>(s.batch_timeout_us), s.arrival_rate_hat,
                s.slo_target_p99_ms, s.weight, s.degraded ? "true" : "false");
  out += buffer;
  append_histogram_json(out, "latency", s.latency);
  out += ", ";
  append_histogram_json(out, "queue_wait", s.queue_wait);
  out += ", ";
  append_histogram_json(out, "exec", s.exec);
  out += "}";
}

std::string to_json(const std::vector<ModelSnapshot>& models) {
  std::string out = "{\"models\": [";
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (i > 0) out += ", ";
    append_json(out, models[i]);
  }
  out += "]}";
  return out;
}

}  // namespace temco::serve::metrics
