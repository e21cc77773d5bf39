#include "layers.hpp"

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "core/temco.hpp"
#include "kernels/kernels.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/budget.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/executor.hpp"
#include "support/align.hpp"

namespace perfbench {

namespace {

// Op classes the kernel replay reports.  Depthwise convolutions count as
// conv_kxk; linear, activations, upsample, flatten and softmax as other.
enum KernelClass : std::size_t { kFused, kConv1x1, kConvKxK, kAdd, kConcat, kPool, kOther };
constexpr std::array<const char*, 7> kClassNames = {"fused", "conv1x1", "conv_kxk", "add",
                                                    "concat", "pool", "other"};

KernelClass class_of(const ir::Node& node) {
  switch (node.kind) {
    case ir::OpKind::kFusedConvActConv:
      return kFused;
    case ir::OpKind::kConv2d: {
      const Shape& w = node.weights[0].shape();
      return w[2] == 1 && w[3] == 1 ? kConv1x1 : kConvKxK;
    }
    case ir::OpKind::kDepthwiseConv2d:
      return kConvKxK;
    case ir::OpKind::kAdd:
      return kAdd;
    case ir::OpKind::kConcat:
      return kConcat;
    case ir::OpKind::kPool:
    case ir::OpKind::kGlobalAvgPool:
      return kPool;
    default:
      return kOther;
  }
}

/// Span name of the kernels:: entry point a node replays through.
const char* kernel_span(ir::OpKind kind) {
  switch (kind) {
    case ir::OpKind::kConv2d: return "kernels::conv2d";
    case ir::OpKind::kDepthwiseConv2d: return "kernels::depthwise_conv2d";
    case ir::OpKind::kRelu: return "kernels::relu";
    case ir::OpKind::kSilu: return "kernels::silu";
    case ir::OpKind::kPool: return "kernels::pool";
    case ir::OpKind::kGlobalAvgPool: return "kernels::global_avg_pool";
    case ir::OpKind::kUpsample: return "kernels::upsample_nearest";
    case ir::OpKind::kAdd: return "kernels::add_n";
    case ir::OpKind::kConcat: return "kernels::concat_channels";
    case ir::OpKind::kFlatten: return "kernels::flatten";
    case ir::OpKind::kLinear: return "kernels::linear";
    case ir::OpKind::kSoftmax: return "kernels::softmax";
    case ir::OpKind::kFusedConvActConv: return "kernels::fused_conv_act_conv";
    case ir::OpKind::kInput: break;
  }
  return "kernels::none";
}

struct FusedScratch {
  float* base = nullptr;
  std::int64_t slot_floats = 0;
  std::size_t slots = 0;
};

/// The executor's per-node dispatch, re-done through the public kernels::
/// entry points with the executor's packed weights and arena views.
void replay_node(const ir::Node& node, const std::vector<const Tensor*>& in, Tensor& out,
                 const FusedScratch& scratch, const float* prepacked) {
  using ir::OpKind;
  const ir::OpAttrs& a = node.attrs;
  switch (node.kind) {
    case OpKind::kInput:
      break;
    case OpKind::kConv2d:
      kernels::conv2d(*in[0], node.weights[0], node.weights[1], a.stride_h, a.stride_w, a.pad_h,
                      a.pad_w, out, prepacked);
      break;
    case OpKind::kDepthwiseConv2d:
      kernels::depthwise_conv2d(*in[0], node.weights[0], node.weights[1], a.stride_h, a.stride_w,
                                a.pad_h, a.pad_w, out);
      break;
    case OpKind::kRelu:
      kernels::relu(*in[0], out);
      break;
    case OpKind::kSilu:
      kernels::silu(*in[0], out);
      break;
    case OpKind::kPool:
      kernels::pool(*in[0], a.pool_kind, a.pool_kh, a.pool_kw, a.pool_sh, a.pool_sw, out);
      break;
    case OpKind::kGlobalAvgPool:
      kernels::global_avg_pool(*in[0], out);
      break;
    case OpKind::kUpsample:
      kernels::upsample_nearest(*in[0], a.upsample_factor, out);
      break;
    case OpKind::kAdd:
      kernels::add_n(in, out);
      break;
    case OpKind::kConcat:
      kernels::concat_channels(in, out);
      break;
    case OpKind::kFlatten:
      kernels::flatten(*in[0], out);
      break;
    case OpKind::kLinear:
      kernels::linear(*in[0], node.weights[0], node.weights[1], out);
      break;
    case OpKind::kSoftmax:
      kernels::softmax(*in[0], out);
      break;
    case OpKind::kFusedConvActConv:
      kernels::fused_conv_act_conv(*in[0], node.weights[0], node.weights[1], node.weights[2],
                                   node.weights[3], a.act, a.fused_has_pool, a.pool_kind,
                                   a.pool_kh, a.pool_sh, out, scratch.base, scratch.slot_floats,
                                   scratch.slots, prepacked);
      break;
  }
}

struct ClassTotals {
  std::array<double, kClassNames.size()> ms{};
  std::array<double, kClassNames.size()> calls{};
  std::array<double, kClassNames.size()> flops{};
  std::array<double, kClassNames.size()> bytes{};
  std::array<double, kClassNames.size()> model_ms{};
};

/// One executed variant's timings, kept for the per-variant self-checks.
/// The paired figures are medians over repetitions of a difference or ratio
/// taken within one repetition, whose passes run back to back, so a burst of
/// host load that slows a stretch of repetitions cancels out of them.
struct VariantTimes {
  std::string label;
  double exec_ms = 0.0;          ///< median Executor::run
  double bare_ms = 0.0;          ///< median replay loop, one clock around it
  double replay_ms = 0.0;        ///< median sum of the per-kernel clocks
  double clocked_wall_ms = 0.0;  ///< median loop those clocks sit in
  double overhead_ms = 0.0;      ///< paired: Executor::run - bare replay
  double residual_ms = 0.0;      ///< paired: kernel clocks + overhead - Executor::run
  double bare_over_exec = 0.0;   ///< paired: bare replay / Executor::run
  double max_abs_diff = 0.0;    ///< replay outputs vs the executor's
};

struct ExecTotals {
  double exec_ms = 0.0;
  double overhead_ms = 0.0;
  double wavefront_ms = 0.0;
  double reference_ms = 0.0;
  double heap_allocs = 0.0;   ///< operator new calls per executor run
  double executor_allocs = 0.0;  ///< ExecutionResult::heap_allocations per run
  ClassTotals classes;
  std::vector<VariantTimes> variants;
};

std::vector<Tensor> random_inputs(const ir::Graph& graph, std::uint64_t seed) {
  std::vector<Tensor> inputs;
  Rng rng(seed);
  for (const ir::Node& node : graph.nodes()) {
    if (node.kind == ir::OpKind::kInput) inputs.push_back(Tensor::random_normal(node.out_shape, rng));
  }
  return inputs;
}

std::vector<Tensor> output_buffers(const ir::Graph& graph) {
  std::vector<Tensor> outputs;
  for (const ir::ValueId id : graph.outputs()) outputs.push_back(Tensor::zeros(graph.node(id).out_shape));
  return outputs;
}

template <typename F>
double timed_ms(F&& body) {
  const auto start = Clock::now();
  body();
  return seconds_since(start) * 1e3;
}

/// timed_ms under a span that opens before and closes after the clock, so
/// the tracer's own cost stays out of the figure.
template <typename F>
double traced_ms(const char* name, F&& body) {
  SpanScope span(name);
  return timed_ms(std::forward<F>(body));
}

/// What the tracer costs per span: the median over repeats of a batch of
/// empty spans.
double tracer_ns_per_span() {
  constexpr int kSpans = 1000;
  std::vector<double> ns;
  for (int r = 0; r < 5; ++r) {
    ns.push_back(timed_ms([] {
                   for (int i = 0; i < kSpans; ++i) SpanScope span("perfbench::tracer_probe");
                 }) * 1e6 / kSpans);
  }
  return median(ns);
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(6);
  out << v;
  return out.str();
}

/// Executor, kernel replay, wavefront and decomposed-reference timings for
/// one batch variant, each the median of `reps` interleaved repetitions.
void probe_variant(const LayerModel& m, std::size_t batch, int reps, ExecTotals& totals) {
  const serve::CompiledModel& model = *m.compiled;
  const ir::Graph& graph = model.graph(batch);
  const runtime::ArenaPlan& plan = model.plan(batch);
  const std::size_t intra = model.options().intra_op_threads;

  // A session-shaped executor: the compiled plan and packing, bound to a
  // slab this probe owns so the replay can address the same bytes.
  Buffer slab(static_cast<float*>(std::aligned_alloc(static_cast<std::size_t>(kTensorAlignment),
                                                     static_cast<std::size_t>(model.slab_bytes()))),
              [](float* p) { std::free(p); });
  TEMCO_CHECK(slab != nullptr) << "slab allocation failed";
  std::memset(slab.get(), 0, static_cast<std::size_t>(model.slab_bytes()));
  runtime::ExecutorOptions exec_options;
  exec_options.use_arena = true;
  exec_options.intra_op_threads = intra;
  runtime::ExecutorBinding binding;
  binding.prepack = &model.prepack();
  binding.plan = &plan;
  binding.slab = slab.get();
  binding.slab_bytes = model.slab_bytes();
  runtime::Executor executor(graph, exec_options, binding);

  const std::vector<Tensor> inputs = random_inputs(graph, 0x5eed + batch);
  std::vector<Tensor> outputs = output_buffers(graph);

  // Arena views and argument lists, as the executor binds them.
  std::vector<Tensor> bound(graph.size());
  for (const ir::Node& node : graph.nodes()) {
    const std::int64_t offset = plan.block(node.id).offset / static_cast<std::int64_t>(sizeof(float));
    bound[static_cast<std::size_t>(node.id)] = Tensor(node.out_shape, Buffer(slab, slab.get() + offset));
  }
  std::vector<std::vector<const Tensor*>> args(graph.size());
  std::vector<KernelClass> classes(graph.size());
  std::vector<std::size_t> input_slots;
  runtime::CostModel cost_model;
  for (const ir::Node& node : graph.nodes()) {
    const std::size_t slot = static_cast<std::size_t>(node.id);
    for (const ir::ValueId in : node.inputs) args[slot].push_back(&bound[static_cast<std::size_t>(in)]);
    classes[slot] = class_of(node);
    if (node.kind == ir::OpKind::kInput) {
      input_slots.push_back(slot);
      continue;
    }
    std::int64_t moved = node.out_shape.bytes() + node.weight_bytes();
    for (const ir::ValueId in : node.inputs) moved += graph.node(in).out_shape.bytes();
    totals.classes.calls[classes[slot]] += 1.0;
    totals.classes.flops[classes[slot]] += static_cast<double>(graph.node_flops(node.id));
    totals.classes.bytes[classes[slot]] += static_cast<double>(moved);
    totals.classes.model_ms[classes[slot]] += cost_model.node_seconds(graph, node) * 1e3;
  }
  const FusedScratch scratch{
      slab.get() + plan.scratch_offset / static_cast<std::int64_t>(sizeof(float)),
      plan.scratch_slot_bytes / static_cast<std::int64_t>(sizeof(float)), plan.scratch_slots};

  std::unique_ptr<ThreadPool> intra_pool;
  if (intra != 0) intra_pool = std::make_unique<ThreadPool>(intra);

  // The executor's later nodes may reuse the input blocks, so every replay
  // pass restages the inputs first, untimed.
  auto stage_inputs = [&] {
    for (std::size_t i = 0; i < input_slots.size(); ++i) {
      std::memcpy(bound[input_slots[i]].data(), inputs[i].data(),
                  static_cast<std::size_t>(inputs[i].shape().bytes()));
    }
  };
  // A bare pass times the loop as a whole, as Executor::run is timed; a
  // clocked pass reads the clock once after every kernel and charges each
  // kernel the time since the previous read; one traced pass, untimed,
  // records a span around every kernels:: call.
  enum class Pass { kBare, kClocked, kTraced };
  std::array<std::vector<double>, kClassNames.size()> class_ms;
  std::vector<double> exec_ms, bare_ms, replay_ms, clocked_wall_ms;
  std::vector<double> allocs, executor_allocs;
  auto replay_pass = [&](Pass pass) {
    ScopedIntraOpPool scope(intra_pool ? intra_pool.get() : ScopedIntraOpPool::active());
    stage_inputs();
    std::array<double, kClassNames.size()> sums{};
    double total = 0.0;
    const double wall = timed_ms([&] {
      auto mark = Clock::now();
      for (const ir::Node& node : graph.nodes()) {
        if (node.kind == ir::OpKind::kInput) continue;
        const std::size_t slot = static_cast<std::size_t>(node.id);
        auto run = [&] {
          replay_node(node, args[slot], bound[slot], scratch, model.prepack().blob(node.id));
        };
        if (pass == Pass::kBare) {
          run();
        } else if (pass == Pass::kTraced) {
          SpanScope span(kernel_span(node.kind));
          run();
        } else {
          run();
          const auto now = Clock::now();
          const double ms = std::chrono::duration<double, std::milli>(now - mark).count();
          mark = now;
          sums[classes[slot]] += ms;
          total += ms;
        }
      }
    });
    if (pass == Pass::kBare) bare_ms.push_back(wall);
    if (pass != Pass::kClocked) return;
    for (std::size_t c = 0; c < sums.size(); ++c) class_ms[c].push_back(sums[c]);
    replay_ms.push_back(total);
    clocked_wall_ms.push_back(wall);
  };

  executor.run_into(inputs, outputs);  // warm-up: lazy kernel buffers, caches
  executor.run_into(inputs, outputs);
  replay_pass(Pass::kBare);
  bare_ms.clear();
  // Executor and bare replay swap places every repetition: whichever runs
  // second after the other's loop is otherwise consistently a little slower.
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 1) replay_pass(Pass::kBare);
    runtime::ExecutionResult result;
    std::uint64_t run_allocs = 0;
    exec_ms.push_back(traced_ms("runtime::Executor::run", [&] {
      const std::uint64_t before = heap_allocations();
      result = executor.run_into(inputs, outputs);
      run_allocs = heap_allocations() - before;
    }));
    allocs.push_back(static_cast<double>(run_allocs));
    executor_allocs.push_back(static_cast<double>(result.heap_allocations));
    if (r % 2 == 0) replay_pass(Pass::kBare);
    replay_pass(Pass::kClocked);
  }
  if (Tracer::get().enabled()) replay_pass(Pass::kTraced);

  VariantTimes v;
  v.label = m.name + " b" + std::to_string(batch);
  v.exec_ms = median(exec_ms);
  v.bare_ms = median(bare_ms);
  v.replay_ms = median(replay_ms);
  v.clocked_wall_ms = median(clocked_wall_ms);
  std::vector<double> overhead, residual, ratio;
  for (std::size_t r = 0; r < exec_ms.size(); ++r) {
    overhead.push_back(exec_ms[r] - bare_ms[r]);
    residual.push_back(replay_ms[r] - bare_ms[r]);
    ratio.push_back(bare_ms[r] / exec_ms[r]);
  }
  v.overhead_ms = median(overhead);
  v.residual_ms = median(residual);
  v.bare_over_exec = median(ratio);
  // The arena now holds the last replay's values, `outputs` the last run's.
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const Tensor& replayed = bound[static_cast<std::size_t>(graph.outputs()[i])];
    for (std::int64_t j = 0; j < outputs[i].numel(); ++j) {
      v.max_abs_diff = std::max(v.max_abs_diff,
                                static_cast<double>(std::fabs(replayed.data()[j] - outputs[i].data()[j])));
    }
  }
  totals.exec_ms += v.exec_ms;
  totals.overhead_ms += v.overhead_ms;
  for (std::size_t c = 0; c < class_ms.size(); ++c) totals.classes.ms[c] += median(class_ms[c]);
  totals.heap_allocs += median(allocs);
  totals.executor_allocs += median(executor_allocs);
  totals.variants.push_back(std::move(v));

  // Inter-op parallel: the same graph on the wavefront executor, one lane
  // per hardware thread (it plans its own wavefront-widened arena).
  {
    runtime::ExecutorOptions wave_options = exec_options;
    wave_options.parallelism = std::max(1u, std::thread::hardware_concurrency());
    runtime::ExecutorBinding wave_binding;
    wave_binding.prepack = &model.prepack();
    runtime::Executor wave(graph, wave_options, wave_binding);
    std::vector<Tensor> wave_out = output_buffers(graph);
    wave.run_into(inputs, wave_out);
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
      ms.push_back(traced_ms("runtime::Executor::run.wavefront", [&] { wave.run_into(inputs, wave_out); }));
    }
    totals.wavefront_ms += median(ms);
  }

  // Fig. 11's baseline: the decomposed graph on the same (arena) executor.
  {
    const ir::Graph decomposed = ir::rebatched(m.decomposed, static_cast<std::int64_t>(batch));
    runtime::Executor reference(decomposed, exec_options);
    std::vector<Tensor> ref_out = output_buffers(decomposed);
    reference.run_into(inputs, ref_out);
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
      ms.push_back(
          traced_ms("runtime::Executor::run.decomposed", [&] { reference.run_into(inputs, ref_out); }));
    }
    totals.reference_ms += median(ms);
  }
}

}  // namespace

void probe_layers(const std::vector<LayerModel>& models, int reps, Report& report) {
  // ---- core: each pass's public function on the decomposed graph ----------
  double skip_s = 0, transforms_s = 0, fusion_s = 0, dce_s = 0;
  std::int64_t nodes_in = 0, nodes_out = 0;
  core::OptimizeStats stats;
  bool stats_match = true;
  // ---- runtime: planners ---------------------------------------------------
  double plan_s = 0, budget_s = 0;
  std::int64_t remat_nodes = 0, floor_bytes = 0, slab_bytes = 0;
  bool remat_match = true;
  std::ostringstream mismatch;

  constexpr int kPassReps = 3;
  for (const LayerModel& m : models) {
    const core::TemcoOptions& options = m.compiled->options().temco;
    std::vector<double> t_skip, t_transforms, t_fusion, t_dce;
    ir::Graph optimized;
    for (int r = 0; r < kPassReps; ++r) {
      core::OptimizeStats local;
      ir::Graph g1, g2, g3;
      t_skip.push_back(traced_ms("core::optimize_skip_connections", [&] {
        g1 = core::optimize_skip_connections(m.decomposed, options, &local);
      }));
      t_transforms.push_back(traced_ms("core::transform_layers", [&] {
        g2 = core::transform_layers(g1, options, &local);
      }));
      t_fusion.push_back(traced_ms("core::fuse_activations", [&] {
        g3 = core::fuse_activations(g2, options, &local);
      }));
      t_dce.push_back(traced_ms("core::eliminate_dead_code", [&] {
        optimized = core::eliminate_dead_code(g3, &local);
      }));
      if (r > 0) continue;
      const core::OptimizeStats& c = m.compiled->stats();
      stats_match = stats_match && local.to_string() == c.to_string();
      stats.skips_optimized += local.skips_optimized;
      stats.restore_copies_inserted += local.restore_copies_inserted;
      stats.concat_splits += local.concat_splits;
      stats.lconv_merges += local.lconv_merges;
      stats.fused_kernels += local.fused_kernels;
    }
    skip_s += median(t_skip) / 1e3;
    transforms_s += median(t_transforms) / 1e3;
    fusion_s += median(t_fusion) / 1e3;
    dce_s += median(t_dce) / 1e3;
    nodes_in += static_cast<std::int64_t>(m.decomposed.size());
    nodes_out += static_cast<std::int64_t>(optimized.size());

    // The arena options and slab cap CompiledModel::compile used.
    const serve::CompileOptions& compiled_with = m.compiled->options();
    runtime::ArenaOptions arena;
    arena.scratch_slots = 0;
    if (compiled_with.arena_canaries) arena.canary_bytes = kTensorAlignment;
    const std::int64_t cap = compiled_with.max_arena_bytes > 0 ? compiled_with.max_arena_bytes
                                                               : compiled_with.temco.max_arena_bytes;

    for (const std::size_t k : m.batches) {
      std::vector<double> t;
      for (int r = 0; r < kPassReps; ++r) {
        t.push_back(traced_ms("runtime::plan_arena", [&] {
          runtime::plan_arena(m.compiled->graph(k), arena);
        }));
      }
      plan_s += median(t) / 1e3;
    }

    // Compile runs the budget search only under a cap, on the variant that
    // sizes the slab; without one there is nothing to time.
    const std::size_t widest = m.compiled->max_batch();
    std::int64_t remat = 0;
    if (cap > 0) {
      runtime::BudgetOptions budget;
      budget.max_bytes = cap;
      budget.arena = arena;
      runtime::BudgetScheduleResult scheduled;
      budget_s += traced_ms("runtime::schedule_for_budget", [&] {
                    scheduled = runtime::schedule_for_budget(
                        ir::rebatched(optimized, static_cast<std::int64_t>(widest)), budget);
                  }) / 1e3;
      remat = scheduled.remat_nodes;
    }
    remat_nodes += remat;
    const std::size_t compiled_nodes = m.compiled->graph(1).size();
    const std::size_t expected_nodes = optimized.size() + static_cast<std::size_t>(remat);
    if (compiled_nodes != expected_nodes) {
      remat_match = false;
      mismatch << m.name << ": compiled " << compiled_nodes << " nodes, passes+remat give "
               << expected_nodes << "; ";
    }
    floor_bytes += runtime::schedule_floor_bytes(m.compiled->graph(widest));
    slab_bytes += m.compiled->slab_bytes();
  }

  report.metric("core.skip_opt.s", skip_s, "s");
  report.metric("core.transforms.s", transforms_s, "s");
  report.metric("core.fusion.s", fusion_s, "s");
  report.metric("core.dce.s", dce_s, "s");
  report.metric("core.nodes_in", static_cast<double>(nodes_in), "count");
  report.metric("core.nodes_out", static_cast<double>(nodes_out), "count");
  report.metric("core.skips_optimized", stats.skips_optimized, "count");
  report.metric("core.restore_copies", stats.restore_copies_inserted, "count");
  report.metric("core.concat_splits", stats.concat_splits, "count");
  report.metric("core.lconv_merges", stats.lconv_merges, "count");
  report.metric("core.fused_kernels", stats.fused_kernels, "count");
  report.metric("runtime.plan_arena.s", plan_s, "s");
  report.metric("runtime.budget.s", budget_s, "s");
  report.metric("runtime.budget.remat_nodes", static_cast<double>(remat_nodes), "count");
  report.metric("runtime.floor_bytes", static_cast<double>(floor_bytes), "B");
  report.metric("runtime.slab_over_floor",
                floor_bytes > 0 ? static_cast<double>(slab_bytes) / static_cast<double>(floor_bytes)
                                : 0.0,
                "x");
  report.check("passes_match_compile", stats_match && remat_match,
               stats_match ? mismatch.str() + "per-pass OptimizeStats equal compile's"
                           : "per-pass OptimizeStats differ from compile's");

  // ---- runtime executor, kernels, wavefront, reference ---------------------
  ExecTotals totals;
  for (const LayerModel& m : models) {
    for (const std::size_t k : m.batches) probe_variant(m, k, reps, totals);
  }
  // The executor's own cost: its time minus the same kernels replayed bare
  // in the same repetition.  The per-kernel clocks are kept out of it, since
  // each charges a clock read to the kernel it times.
  const double overhead_ms = totals.overhead_ms;
  report.metric("runtime.exec.ms", totals.exec_ms, "ms");
  report.metric("runtime.exec.overhead_ms", overhead_ms, "ms");
  report.metric("runtime.exec.heap_allocs", totals.heap_allocs, "count");
  report.metric("runtime.wavefront.ms", totals.wavefront_ms, "ms");
  report.metric("ref.decomposed_ms", totals.reference_ms, "ms");
  report.metric("ref.overhead_x",
                totals.reference_ms > 0 ? totals.exec_ms / totals.reference_ms : 0.0, "x");
  for (std::size_t c = 0; c < kClassNames.size(); ++c) {
    const std::string prefix = std::string("kernels.") + kClassNames[c];
    const double ms = totals.classes.ms[c];
    report.metric(prefix + ".ms", ms, "ms");
    report.metric(prefix + ".calls", totals.classes.calls[c], "count");
    report.metric(prefix + ".gflops", ms > 0 ? totals.classes.flops[c] / (ms * 1e6) : 0.0,
                  "GFLOP/s");
    report.metric(prefix + ".gbytes_s", ms > 0 ? totals.classes.bytes[c] / (ms * 1e6) : 0.0,
                  "GB/s");
    report.metric(prefix + ".model_ms", totals.classes.model_ms[c], "ms");
  }

  // Self-checks, on measurements taken apart from each other.  The replay
  // must compute what the executor computed.  The per-kernel clocks (clocked
  // pass) plus the overhead (executor pass minus bare pass) must add back up
  // to the executor's time.  And per variant, the bare replay runs the
  // executor's kernels without the executor's dispatch, so it must not take
  // longer than Executor::run; if it does, the kernel figures are not the
  // executor's.  Both compare passes of one repetition (the paired figures
  // of VariantTimes).  The slack is relative, with a floor for batch-1
  // variants that run in tens of microseconds.
  constexpr double kMaxReplayDiff = 0.0;  // same kernels, same inputs: bitwise
  constexpr double kReconcileTolerance = 0.05;
  constexpr double kSlackFloorMs = 0.005;
  double class_sum_ms = 0.0, residual_ms = 0.0;
  for (const double ms : totals.classes.ms) class_sum_ms += ms;
  for (const VariantTimes& v : totals.variants) residual_ms += v.residual_ms;
  report.check("exec_reconciles",
               std::fabs(residual_ms) <= kReconcileTolerance * totals.exec_ms,
               "sum(kernels.*.ms) " + fmt(class_sum_ms) + " + overhead " + fmt(overhead_ms) +
                   " vs runtime.exec.ms " + fmt(totals.exec_ms) +
                   " ms; per repetition, kernel clocks + overhead - Executor::run = " +
                   fmt(residual_ms) + " ms (median, summed over variants; tolerance " +
                   fmt(kReconcileTolerance * 100) + "% of runtime.exec.ms)");
  bool same_outputs = true, bounded = true;
  std::ostringstream outputs_detail, bound_detail;
  for (const VariantTimes& v : totals.variants) {
    const char* sep = &v == &totals.variants.front() ? "" : "; ";
    same_outputs = same_outputs && v.max_abs_diff <= kMaxReplayDiff;
    bounded = bounded && v.bare_over_exec <= 1.0 + std::max(kReconcileTolerance,
                                                            kSlackFloorMs / v.exec_ms);
    outputs_detail << sep << v.label << " max |replay - executor| " << fmt(v.max_abs_diff);
    bound_detail << sep << v.label << " replay / Executor::run " << fmt(v.bare_over_exec)
                 << " per repetition (medians: replay " << fmt(v.bare_ms) << " ms, clocked "
                 << fmt(v.clocked_wall_ms) << ", kernels " << fmt(v.replay_ms)
                 << ", Executor::run " << fmt(v.exec_ms) << " ms)";
  }
  report.check("replay_matches_executor", same_outputs, outputs_detail.str());
  report.check("replay_within_executor", bounded,
               bound_detail.str() + " (slack " + fmt(kReconcileTolerance * 100) + "% or " +
                   fmt(kSlackFloorMs * 1e3) + " us, whichever is larger)");
  report.note("tracer_ns_per_span", fmt(tracer_ns_per_span()) +
                                        " (an empty span, opened and closed; every span in this "
                                        "file opens outside the clock it labels)");
  // Reported, not gating: the arena path still calls operator new (the fused
  // kernel's dispatch onto the global thread pool), and a gate here would fail
  // every traced run on a property of the program, not of its outputs.
  report.expect("arena_exec_zero_heap_allocs", totals.heap_allocs == 0 && totals.executor_allocs == 0,
                "operator new calls per arena run: " + fmt(totals.heap_allocs) +
                    ", executor-reported tensor allocations: " + fmt(totals.executor_allocs));
}

}  // namespace perfbench
