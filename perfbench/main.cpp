// perfbench: the repository's benchmark binary.  perfbench/run.py
// builds and runs it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//             [--trace-out FILE] [--rates R1,R2,...] [--slo-ms MS]
//             [--max-gen-lag-ms MS] [--slab-budget-bytes B]
//
// Writes one JSON document to --out: provenance, metrics with units, the
// run's self-checks, and operation counts.  Exit code 0 means the document
// was written; whether the outputs were correct is in the document.
#include <cpuid.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <new>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "kernels/gemm.hpp"
#include "parallel/thread_pool.hpp"

// ---- heap allocation counter ---------------------------------------------------
// Counts every operator new in the process, so the traced run can show how
// many allocations one arena executor run makes.

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t heap_allocations() { return g_allocations.load(std::memory_order_relaxed); }

// ---- tracer ----------------------------------------------------------------------

namespace {
thread_local std::vector<std::uint64_t> t_open_spans;
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::current() const {
  return t_open_spans.empty() ? 0 : t_open_spans.back();
}

std::uint64_t Tracer::open(const char* name, std::uint64_t request) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start_ns = start;
  span.id = next_id_++;
  span.parent = current();
  span.request = request;
  spans_.push_back(std::move(span));
  t_open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  // Ids are dense and 1-based, so the span's index is id - 1.
  spans_[id - 1].end_ns = end;
  if (!t_open_spans.empty() && t_open_spans.back() == id) t_open_spans.pop_back();
}

void Tracer::record(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = next_id_++;
  span.request = request;
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of each span, as intervals; self time subtracts their union.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, Totals> by_name;
  for (const Span& s : spans_) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t a = std::max(lo, reach);
      const std::int64_t b = std::min(hi, s.end_ns);
      if (b > a) covered += b - a;
      reach = std::max(reach, hi);
    }
    Totals& t = by_name[s.name];
    t.name = s.name;
    t.count += 1;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<Totals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

}  // namespace

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  TEMCO_CHECK(out.good()) << "cannot write " << path;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": " << json_string(s.name) << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// ---- statistics ------------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::string percentile_label(double percent) {
  std::ostringstream out;
  out << "p" << percent;
  return out.str();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- model pipeline -----------------------------------------------------------------

ir::Graph build_model(const ModelSource& source) {
  return models::find_model(source.name).build(source.config);
}

ir::Graph decompose(const ir::Graph& graph) {
  decomp::DecomposeOptions options;
  options.method = decomp::Method::kTucker;
  options.ratio = 0.1;
  return decomp::decompose(graph, options).graph;
}

std::vector<Tensor> make_request(const serve::CompiledModel& model, std::uint64_t seed,
                                 std::uint64_t stream, std::uint64_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + stream * 0x632be59bd9b4e019ull + index);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < model.num_inputs(); ++i) {
    inputs.push_back(Tensor::random_normal(model.input_shape(i), rng));
  }
  return inputs;
}

std::string fingerprint(const serve::CompiledModel& m) {
  std::ostringstream out;
  out << "slab=" << m.slab_bytes() << " packed=" << m.packed_weight_bytes()
      << " nodes_b1=" << m.graph(1).size() << " nodes_bmax=" << m.graph(m.max_batch()).size()
      << " " << m.stats().to_string();
  return out.str();
}

Tensor stack(const std::vector<const Tensor*>& rows) {
  TEMCO_CHECK(!rows.empty());
  std::vector<std::int64_t> dims = rows.front()->shape().dims();
  const std::int64_t row = rows.front()->numel();
  dims[0] = static_cast<std::int64_t>(rows.size());
  Tensor out = Tensor::zeros(Shape(dims));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    TEMCO_CHECK(rows[r]->numel() == row) << "stack: ragged rows";
    std::copy(rows[r]->data(), rows[r]->data() + row, out.data() + static_cast<std::int64_t>(r) * row);
  }
  return out;
}

Agreement compare_output(const Tensor& reference, const Tensor& candidate, bool segmentation) {
  Agreement a;
  if (!(reference.shape() == candidate.shape())) {
    a.ok = false;
    a.rel_error = INFINITY;
    return a;
  }
  double diff = 0.0, norm = 0.0;
  for (std::int64_t i = 0; i < reference.numel(); ++i) {
    const double d = static_cast<double>(reference[i]) - static_cast<double>(candidate[i]);
    diff += d * d;
    norm += static_cast<double>(reference[i]) * static_cast<double>(reference[i]);
  }
  a.rel_error = norm > 0 ? std::sqrt(diff / norm) : (diff > 0 ? INFINITY : 0.0);
  if (segmentation) {
    std::int64_t inter = 0, total = 0;
    for (std::int64_t i = 0; i < reference.numel(); ++i) {
      const bool pa = reference[i] > 0.0f;
      const bool pb = candidate[i] > 0.0f;
      inter += (pa && pb) ? 1 : 0;
      total += (pa ? 1 : 0) + (pb ? 1 : 0);
    }
    a.dice = total == 0 ? 1.0 : 2.0 * static_cast<double>(inter) / static_cast<double>(total);
  } else {
    const std::int64_t n = reference.shape()[0];
    const std::int64_t classes = reference.numel() / n;
    std::int64_t hits = 0;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* ref = reference.data() + s * classes;
      const float* cand = candidate.data() + s * classes;
      const std::int64_t top1 = std::max_element(cand, cand + classes) - cand;
      std::int64_t above = 0;  // reference classes strictly ahead of the candidate's top-1
      for (std::int64_t c = 0; c < classes; ++c) above += ref[c] > ref[top1] ? 1 : 0;
      hits += above < 5 ? 1 : 0;
    }
    a.top5 = static_cast<double>(hits) / static_cast<double>(n);
  }
  a.ok = a.rel_error <= kMaxRelError && a.top5 >= kMinTop5 && a.dice >= kMinDice;
  return a;
}

namespace {

std::string cpu_model() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string name(reinterpret_cast<const char*>(regs), sizeof(regs));
  name = name.c_str();
  const auto first = name.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : name.substr(first);
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stod(item));
  return out;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    TEMCO_CHECK(i + 1 < argc) << flag << " needs a value";
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--out") args.out = value;
    else if (flag == "--trace-out") args.trace_out = value;
    else if (flag == "--rates") args.rates = parse_list(value);
    else if (flag == "--slo-ms") args.slo_ms = std::stod(value);
    else if (flag == "--max-gen-lag-ms") args.max_gen_lag_ms = std::stod(value);
    else if (flag == "--slab-budget-bytes") args.slab_budget = std::stoll(value);
    else TEMCO_FAIL() << "unknown flag " << flag;
  }
  TEMCO_CHECK(!args.out.empty()) << "--out is required";
  TEMCO_CHECK(args.seconds > 0) << "--seconds must be positive";
  return args;
}

void write_report(const Args& args, const Report& report) {
  std::ofstream out(args.out);
  TEMCO_CHECK(out.good()) << "cannot write " << args.out;
  out << "{\n  \"workload\": " << json_string(args.workload) << ",\n  \"seed\": " << args.seed
      << ",\n  \"trace\": " << (args.trace ? 1 : 0) << ",\n  \"seconds\": "
      << json_number(args.seconds) << ",\n  \"attempted\": " << report.attempted
      << ",\n  \"failed\": " << report.failed << ",\n  \"correct\": "
      << (report.all_checks_ok() ? "true" : "false") << ",\n  \"provenance\": {";
  for (std::size_t i = 0; i < report.info.size(); ++i) {
    out << (i ? ", " : "") << json_string(report.info[i].first) << ": "
        << json_string(report.info[i].second);
  }
  out << "},\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    out << "    " << json_string(m.name) << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << "}" << (i + 1 < report.metrics.size() ? ",\n" : "\n");
  }
  out << "  },\n  \"checks\": [\n";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const Report::Check& c = report.checks[i];
    out << "    {\"name\": " << json_string(c.name) << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"gate\": " << (c.gate ? "true" : "false") << ", \"detail\": " << json_string(c.detail) << "}"
        << (i + 1 < report.checks.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"spans\": [\n";
  const auto totals = Tracer::get().totals();
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const Tracer::Totals& t = totals[i];
    out << "    {\"name\": " << json_string(t.name) << ", \"count\": " << t.count
        << ", \"total_ms\": " << json_number(t.total_ms) << ", \"self_ms\": "
        << json_number(t.self_ms) << "}" << (i + 1 < totals.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    Tracer::get().enable(args.trace);
    // One thread per batch: intra_op_threads = 1 covers the executors, but
    // the fused kernel's arena path (and any executor left at the default
    // parallelism) sizes itself to the process-global pool.  Retired before
    // anything compiles, that pool runs every batch inline, so a batch waits
    // on one core and not on the slowest of four on a shared host.
    temco::ThreadPool::global().shutdown();

    Report report;
    report.note("cpu_model", cpu_model());
    report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
    report.note("gemm_isa", temco::kernels::gemm::active_isa_name());
    report.note("build_type", PERFBENCH_BUILD_TYPE);
    report.note("seed", std::to_string(args.seed));

    if (args.workload == "dense_b32" || args.workload == "unet_b32") {
      run_offline(args, report);
    } else if (args.workload == "serve_mix") {
      run_serving(args, report);
    } else {
      TEMCO_FAIL() << "unknown workload '" << args.workload << "'";
    }
    if (args.trace) {
      report.note("spans", std::to_string(Tracer::get().size()));
      if (!args.trace_out.empty()) {
        Tracer::get().write(args.trace_out);
        report.note("trace_file", args.trace_out);
      }
    }
    write_report(args, report);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
