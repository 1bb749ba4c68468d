// End-to-end BERT step benchmark program. Runs ONE workload per process
// through the public whole-stack API -- EncoderStackT + StackArenaT + the
// graph executor, with MixedPrecisionAdam for training -- and prints the
// raw samples (per-step times, losses, counters, plan facts) as one JSON
// object on stdout. benchmark/run.py builds this program, starts its
// processes and computes every statistic.
//
//   xflow_bench --workload=train-base --seed=1 --threads=4 --seconds=10
//               [--steps=N] [--trace=FILE] [--reference] [--setup-only]
//
// The timed loop is closed: one caller thread runs steps back to back for
// --seconds (or exactly --steps). --reference runs the correctness
// baseline instead (unfused kernels, one thread, no memory budget,
// autotuner off) and stops after warm-up step 0. --setup-only stops there
// too: one more set-up sample from a cold process.
// --trace records spans (name, start, end, parent, step) around every
// public call into a buffer reserved up front, writes them to FILE as
// Chrome-trace JSON, and replays the graph's contractions through
// EinsumInto after the timed loop.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "config/autotune.hpp"
#include "fusion/fuser.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/checkpoint.hpp"
#include "graph/executor.hpp"
#include "graph/memory_plan.hpp"
#include "graph/verify.hpp"
#include "tensor/einsum.hpp"
#include "tensor/memstats.hpp"
#include "transformer/arena.hpp"
#include "transformer/embedding.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

namespace {

using namespace xflow;
using namespace xflow::transformer;
using Clock = std::chrono::steady_clock;

constexpr int kPoolSize = 16;    // input batches the steps cycle through
constexpr int kMinSteps = 3;     // timed steps even when --seconds is short
constexpr int kMaxSteps = 20000;
constexpr int kReplayReps = 3;   // timed calls per replayed contraction

struct Workload {
  const char* name;
  graph::ModelDims dims;
  int layers;
  std::int64_t vocab;  // 0: forward-only stack on a pre-embedded x
  float dropout;
  std::size_t budget_bytes;  // 0: no checkpoint budget
  int warmup_steps;

  [[nodiscard]] bool train() const { return vocab > 0; }
};

graph::ModelDims Dims(std::int64_t b, std::int64_t seq, std::int64_t h,
                      std::int64_t p, std::int64_t i, std::int64_t u) {
  graph::ModelDims d;
  d.b = b;
  d.j = d.k = seq;
  d.h = h;
  d.p = p;
  d.i = i;
  d.u = u;
  return d;
}

// benchmark/README.md says why each workload exists.
const Workload kWorkloads[] = {
    {"train-base", Dims(2, 128, 12, 64, 768, 3072), 2, 1024, 0.1f, 0, 3},
    {"train-long-ckpt", Dims(2, 512, 4, 64, 256, 1024), 2, 1024, 0.1f,
     std::size_t{48} << 20, 3},
    {"infer-base", graph::ModelDims::BertBase(), 2, 0, 0.0f, 0, 3},
    {"train-tiny-deep", Dims(2, 32, 4, 16, 64, 128), 12, 1024, 0.1f, 0, 5},
};

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw InvalidArgument(StrFormat("unknown workload '%s'", name.c_str()));
}

/// Spans kept in a buffer reserved up front, so recording never allocates.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    int parent = -1;
    int step = -1;  // -1: set-up
  };

  /// RAII span; with a null tracer it records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int step = -1)
        : tracer_(tracer),
          index_(tracer != nullptr ? tracer->Begin(name, step) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(std::size_t capacity) : origin_(Clock::now()) {
    spans_.reserve(capacity);
    open_.reserve(16);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int Begin(const char* name, int step) {
    require(spans_.size() < spans_.capacity(), "span buffer is full");
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.step = step;
    s.t0_ns = Now();
    spans_.push_back(s);
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
  }
  void End(int index) {
    spans_[static_cast<std::size_t>(index)].t1_ns = Now();
    open_.pop_back();
  }
  [[nodiscard]] std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// FNV-1a over raw bytes: the output digest the reference run must match.
class Fnv1a {
 public:
  void Add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Add(const TensorH& t) {
    Add(t.data(), static_cast<std::size_t>(t.size()) * sizeof(Half));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

bool AllFinite(const TensorH& t) {
  for (const Half h : t.values()) {
    if (!std::isfinite(float(h))) return false;
  }
  return true;
}

/// Minimal JSON object writer for the result line.
class JsonObject {
 public:
  void Add(const char* key, double v) {
    Key(key);
    out_ += Number(v);
  }
  void Add(const char* key, std::int64_t v) {
    Key(key);
    out_ += StrFormat("%lld", static_cast<long long>(v));
  }
  void Add(const char* key, int v) { Add(key, static_cast<std::int64_t>(v)); }
  void Add(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
  }
  void Add(const char* key, const std::string& v) {
    Key(key);
    out_ += '"' + v + '"';
  }
  void Add(const char* key, const std::vector<double>& v) {
    Key(key);
    out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out_ += ',';
      out_ += Number(v[i]);
    }
    out_ += ']';
  }
  [[nodiscard]] std::string str() const { return out_ + '}'; }

 private:
  static std::string Number(double v) {
    return std::isfinite(v) ? StrFormat("%.17g", v) : "null";
  }
  void Key(const char* key) {
    out_ += out_.size() > 1 ? ",\"" : "\"";
    out_ += key;
    out_ += "\":";
  }
  std::string out_ = "{";
};

void WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  require(f != nullptr, StrFormat("cannot write trace '%s'", path.c_str()));
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"step\":%d}}",
                 i > 0 ? "," : "", s.name, static_cast<double>(s.t0_ns) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, i, s.parent,
                 s.step);
  }
  std::fprintf(f, "\n]}\n");
  require(std::fclose(f) == 0,
          StrFormat("cannot finish trace '%s'", path.c_str()));
}

/// The operands a contraction reads or writes as one tensor: a stacked
/// Q/K/V member list spans its members along the leading dim, exactly as
/// the executor's group view does.
Shape OperandShape(const graph::DataflowGraph& g,
                   const std::vector<std::string>& names) {
  std::vector<DimExt> dims = g.tensor(names.front()).shape.dims();
  for (std::size_t m = 1; m < names.size(); ++m) {
    dims.front().extent += g.tensor(names[m]).shape.dims().front().extent;
  }
  return Shape(std::move(dims));
}

/// Calls fn(op_index, spec, a, b, out) for every contraction op of `g`,
/// with seeded operands at the shapes the executor binds: operand roles
/// resolved as its schedule does, stacked members as one spanning tensor.
template <typename Fn>
void ForEachContraction(const graph::DataflowGraph& g,
                        const std::vector<graph::PlanGroup>& groups,
                        std::uint64_t seed, Fn&& fn) {
  const auto is_group = [&](const std::vector<std::string>& names) {
    return std::any_of(groups.begin(), groups.end(),
                       [&](const graph::PlanGroup& gr) {
                         return gr.members == names;
                       });
  };
  for (std::size_t i = 0; i < g.ops().size(); ++i) {
    const graph::OpNode& op = g.ops()[i];
    if (op.kind != graph::OpKind::kContraction) continue;
    std::vector<std::string> a_names(op.inputs.begin(), op.inputs.end() - 1);
    std::vector<std::string> b_names{op.inputs.back()};
    const std::vector<std::string> tail(op.inputs.begin() + 1,
                                        op.inputs.end());
    if (op.inputs.size() > 2 && is_group(tail)) {
      a_names = {op.inputs.front()};
      b_names = tail;
    }
    const auto a = TensorH::Random(OperandShape(g, a_names), seed + 2 * i);
    const auto b = TensorH::Random(OperandShape(g, b_names), seed + 2 * i + 1);
    TensorH out(OperandShape(g, op.outputs));
    fn(static_cast<int>(i), EinsumSpec::Parse(op.einsum), a, b, out);
  }
}

/// Tunes every contraction bucket of `g` from the calling thread, exactly
/// as the executor's dispatch does on first use (same classification,
/// bucket and measured candidates, at the global pool's thread count).
/// Left to the executor, tuning happens inside concurrent steps while
/// config::Autotune holds its cache mutex; the measuring thread's
/// ParallelFor wait can steal another contraction step, which re-enters
/// Autotune on the same thread and blocks forever. Tuning up front, with
/// no executor tasks queued, leaves the steps nothing to tune.
void PretuneContractions(const graph::DataflowGraph& g,
                         const std::vector<graph::PlanGroup>& groups,
                         std::uint64_t seed) {
  ForEachContraction(g, groups, seed, [](int, const EinsumSpec& spec,
                                         const TensorH& a, const TensorH& b,
                                         TensorH& out) {
    const EinsumClassInfo& info = ClassifyEinsum(spec, a.shape(), b.shape());
    config::Autotune(
        config::BucketOf(info.cls, info.extents, sizeof(Half)),
        [&](const EinsumExecConfig& cand) {
          const auto t0 = Clock::now();
          EinsumLowered(spec, info.cls, a, b, out, 1.0f, 0.0f, &cand);
          return std::chrono::duration<double>(Clock::now() - t0).count();
        });
  });
}

struct ReplayResult {
  double fwd_ms = 0;
  double bwd_ms = 0;
};

/// Times every contraction op of `g` through EinsumInto at the graph's
/// operand shapes (median of kReplayReps calls each, after one untimed
/// call that fills the einsum caches), split at the executor's
/// forward/backward boundary.
ReplayResult ReplayContractions(const graph::DataflowGraph& g,
                                const std::vector<graph::PlanGroup>& groups,
                                int backward_begin, std::uint64_t seed) {
  ReplayResult result;
  ForEachContraction(g, groups, seed, [&](int index, const EinsumSpec& spec,
                                          const TensorH& a, const TensorH& b,
                                          TensorH& out) {
    EinsumInto(spec, a, b, out);
    std::vector<double> ms;
    for (int r = 0; r < kReplayReps; ++r) {
      const auto t0 = Clock::now();
      EinsumInto(spec, a, b, out);
      ms.push_back(Ms(Clock::now() - t0));
    }
    (index < backward_begin ? result.fwd_ms : result.bwd_ms) += Median(ms);
  });
  return result;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int threads = 1;
  double seconds = 10;
  int steps = 0;  // > 0: exactly this many timed steps
  std::string trace_path;
  bool reference = false;
  bool setup_only = false;
};

/// One parameter under Adam: fp32 master, fp16 working copy, gradient.
struct Param {
  std::string name;
  TensorF master;
  TensorH* working = nullptr;
  TensorH* grad = nullptr;
};

/// One pooled input: token ids + loss target (training) or a
/// pre-embedded x (forward-only).
struct Batch {
  TokenIds tokens;
  TensorH target;
  TensorH x;
};

std::string RunWorkload(const Options& opt) {
  const Workload& w = FindWorkload(opt.workload);
  const graph::ModelDims& d = w.dims;
  const Shape ibj("ibj", {d.i, d.b, d.j});
  std::uint64_t seed_state = opt.seed;
  const std::uint64_t param_seed = SplitMix64(seed_state);
  const std::uint64_t embed_seed = SplitMix64(seed_state);
  const std::uint64_t dropout_seed = SplitMix64(seed_state);
  std::uint64_t pool_state = SplitMix64(seed_state);

  // The inputs: a seeded pool the steps cycle through.
  std::vector<Batch> pool(kPoolSize);
  for (Batch& batch : pool) {
    if (w.train()) {
      batch.tokens.resize(static_cast<std::size_t>(d.b * d.j));
      for (auto& id : batch.tokens) {
        id = static_cast<std::int32_t>(SplitMix64(pool_state) %
                                       static_cast<std::uint64_t>(w.vocab));
      }
      batch.target = TensorH::Random(ibj, SplitMix64(pool_state));
    } else {
      batch.x = TensorH::Random(ibj, SplitMix64(pool_state));
    }
  }

  const bool tracing = !opt.trace_path.empty();
  // Set-up spans, then per step: step, bind, forward, backward, adam.
  Tracer tracer(tracing ? 64 + 5 * static_cast<std::size_t>(
                                       w.warmup_steps + kMaxSteps)
                        : 0);
  Tracer* tr = tracing ? &tracer : nullptr;

  EncoderConfig cfg;
  cfg.dims = d;
  cfg.dropout_prob = w.dropout;
  cfg.seed = dropout_seed;
  cfg.use_fused_kernels = !opt.reference;
  const std::size_t budget = opt.reference ? 0 : w.budget_bytes;
  graph::StackGraphOptions stack_options{.num_layers = w.layers,
                                         .include_backward = w.train(),
                                         .vocab = w.vocab,
                                         .include_loss = w.train()};

  const auto setup_start = Clock::now();
  std::optional<EncoderStack> stack;
  std::optional<Embedding> embed;
  std::vector<EncoderGradients> grads(static_cast<std::size_t>(w.layers));
  std::optional<TensorH> d_token, d_pos;
  std::vector<Param> params;
  MixedPrecisionAdam adam;
  {
    Tracer::Scope span(tr, "transformer.init");
    stack.emplace(cfg, w.layers, param_seed);
    if (w.train()) {
      embed.emplace(w.vocab, d, embed_seed);
      d_token.emplace(embed->token_table().shape());
      d_pos.emplace(embed->pos_table().shape());
      for (int l = 0; l < w.layers; ++l) {
        auto& layer_grads = grads[static_cast<std::size_t>(l)].params;
        layer_grads.EnsureShapes(d);
        auto named = stack->layer(l).params().Named();
        auto named_grads = layer_grads.Named();
        for (std::size_t p = 0; p < named.size(); ++p) {
          params.push_back({StrFormat("L%d.%s", l, named[p].first.c_str()),
                            named[p].second->Cast<float>(), named[p].second,
                            named_grads[p].second});
        }
      }
      params.push_back({"token_table", embed->token_table().Cast<float>(),
                        &embed->token_table(), &*d_token});
      params.push_back({"pos_table", embed->pos_table().Cast<float>(),
                        &embed->pos_table(), &*d_pos});
    }
  }

  graph::CheckpointedStackPlan planned;
  graph::PlanOptions plan_options;
  {
    Tracer::Scope span(tr, "graph.build");
    planned.graph = graph::BuildEncoderStack(d, stack_options);
  }
  {
    Tracer::Scope span(tr, "transformer.plan_options");
    plan_options = StackPlanOptions<Half>(planned.graph);
  }
  {
    Tracer::Scope span(tr, "graph.plan");
    planned.plan = graph::PlanMemory(planned.graph, plan_options);
  }
  const double unbudgeted_peak_bytes =
      static_cast<double>(planned.plan.PeakBytes());
  if (budget > 0 && planned.plan.PeakBytes() > budget) {
    {
      Tracer::Scope span(tr, "graph.plan");
      planned = graph::PlanCheckpointedStack(
          d, stack_options,
          [](const graph::DataflowGraph& g) { return StackPlanOptions<Half>(g); },
          budget);
    }
    Tracer::Scope span(tr, "transformer.plan_options");
    plan_options = StackPlanOptions<Half>(planned.graph);
  }
  {
    Tracer::Scope span(tr, "graph.verify");
    const graph::VerifyReport report =
        graph::Verify(planned.graph, planned.plan, plan_options);
    require(report.ok(), report.Summary());
  }
  std::optional<StackArenaT<Half>> arena;
  {
    Tracer::Scope span(tr, "transformer.make_arena");
    arena.emplace(std::move(planned));
  }
  graph::GraphExecutor* ex = nullptr;
  {
    Tracer::Scope span(tr, "graph.executor.create");
    ex = &stack->Executor(*arena);
  }
  if (w.train()) {
    Tracer::Scope span(tr, "graph.executor.bind");
    ex->BindInput("token_table", embed->token_table());
    ex->BindInput("pos_table", embed->pos_table());
    ex->BindOutput("d_token_table", *d_token);
    ex->BindOutput("d_pos_table", *d_pos);
    for (int l = 0; l < w.layers; ++l) {
      for (auto& [name, tensor] :
           grads[static_cast<std::size_t>(l)].params.Named()) {
        ex->BindOutput(StrFormat("L%d.d_%s", l, name.c_str()), *tensor);
      }
    }
  }

  const TensorH* y = nullptr;  // forward-only output (an arena view)
  // One closed-loop step over pool entry `step`; returns the loss
  // (training) or 0 (forward-only).
  const auto run_step = [&](int step, const char* span_name) -> double {
    Tracer::Scope span(tr, span_name, step);
    const Batch& batch = pool[static_cast<std::size_t>(step % kPoolSize)];
    if (!w.train()) {
      Tracer::Scope fwd(tr, "graph.executor.forward", step);
      y = &stack->Forward(batch.x, *arena);
      return 0;
    }
    {
      Tracer::Scope bind(tr, "graph.executor.bind", step);
      ex->BindTokens(batch.tokens);
      ex->BindInput("target", batch.target);
    }
    {
      Tracer::Scope fwd(tr, "graph.executor.forward", step);
      ex->Forward();
    }
    {
      Tracer::Scope bwd(tr, "graph.executor.backward", step);
      ex->Backward();
    }
    Tracer::Scope step_adam(tr, "transformer.training.adam", step);
    for (Param& p : params) adam.Step(p.name, p.master, *p.working, *p.grad);
    return ex->last_loss();
  };
  // The digest the reference run must reproduce: loss and every weight
  // gradient after warm-up step 0 (training), or the output (forward-only).
  const auto digest = [&](double loss) {
    Fnv1a h;
    if (w.train()) {
      h.Add(&loss, sizeof(loss));
      for (const Param& p : params) h.Add(*p.grad);
    } else {
      h.Add(*y);
    }
    return StrFormat("%016llx", static_cast<unsigned long long>(h.value()));
  };

  const std::int64_t measures_before = memstats::Read().autotune_measures;
  if (!opt.reference) {
    Tracer::Scope span(tr, "config.autotune.pretune");
    PretuneContractions(arena->graph(), plan_options.groups, opt.seed);
  }
  const std::int64_t pretuned = memstats::Read().autotune_measures;
  // Buckets the steps tuned themselves: must stay 0 (PretuneContractions).
  const auto step_tunes = [&] {
    return memstats::Read().autotune_measures - pretuned;
  };
  // Set-up ends with warm-up step 0, the last step that does one-off work;
  // later warm-up steps are steady steps that only fill caches.
  std::vector<double> warmup_losses{run_step(0, "warmup.first_step")};
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - setup_start).count();
  const std::string hash = digest(warmup_losses.back());
  const bool measured = !opt.reference && !opt.setup_only;
  for (int s = 1; measured && s < w.warmup_steps; ++s) {
    warmup_losses.push_back(run_step(s, "warmup.step"));
  }

  JsonObject out;
  out.Add("workload", std::string(w.name));
  out.Add("train", w.train());
  out.Add("reference", opt.reference);
  out.Add("hash", hash);
  out.Add("setup_s", setup_s);
  out.Add("warmup_losses", warmup_losses);
  if (!measured) {
    out.Add("step_tunes", step_tunes());
    return out.str();
  }

  std::vector<double> step_ms, losses;
  step_ms.reserve(kMaxSteps);
  losses.reserve(kMaxSteps);
  int failed_steps = 0;
  std::int64_t allocs = 0, alloc_bytes = 0, table_builds = 0,
               class_builds = 0, autotune_hits = 0;
  const auto loop_start = Clock::now();
  for (int s = 0; s < kMaxSteps; ++s) {
    if (opt.steps > 0 ? s >= opt.steps
                      : s >= kMinSteps &&
                            Clock::now() - loop_start >=
                                std::chrono::duration<double>(opt.seconds)) {
      break;
    }
    const int step = w.warmup_steps + s;
    const memstats::Snapshot before = memstats::Read();
    const auto t0 = Clock::now();
    double loss = 0;
    bool ok = true;
    try {
      loss = run_step(step, "step");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "xflow_bench: step %d failed: %s\n", step, e.what());
      ok = false;
    }
    const auto t1 = Clock::now();
    const memstats::Snapshot after = memstats::Read();
    allocs += (after.tensor_allocs - before.tensor_allocs) +
              (after.workspace_allocs - before.workspace_allocs);
    alloc_bytes += (after.tensor_bytes - before.tensor_bytes) +
                   (after.workspace_bytes - before.workspace_bytes);
    table_builds += after.einsum_table_builds - before.einsum_table_builds;
    class_builds += after.einsum_class_builds - before.einsum_class_builds;
    autotune_hits += after.autotune_hits - before.autotune_hits;
    ok = ok && (w.train() ? std::isfinite(loss) : AllFinite(*y));
    if (!ok) ++failed_steps;
    step_ms.push_back(Ms(t1 - t0));
    losses.push_back(loss);
  }
  const auto steps = static_cast<std::int64_t>(step_ms.size());

  const graph::DataflowGraph& g = arena->graph();
  double recompute_flop = 0;
  for (const graph::OpNode& op : g.ops()) {
    if (!op.recompute_of.empty()) recompute_flop += graph::CostOf(g, op).flop;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  out.Add("threads", ThreadPool::Global().threads());
  out.Add("compiler", std::string(__VERSION__));
  out.Add("build_type", std::string(XFLOW_BENCH_BUILD_TYPE));
  out.Add("tokens_per_step", static_cast<std::int64_t>(d.b * d.j));
  out.Add("step_ms", step_ms);
  out.Add("losses", losses);
  out.Add("failed_steps", failed_steps);
  out.Add("peak_rss_kib", static_cast<std::int64_t>(usage.ru_maxrss));
  out.Add("autotune_measures", pretuned - measures_before);
  out.Add("step_tunes", step_tunes());
  out.Add("allocs", allocs);
  out.Add("alloc_bytes", alloc_bytes);
  out.Add("table_builds", table_builds);
  out.Add("class_builds", class_builds);
  out.Add("autotune_hits", autotune_hits);
  out.Add("steady_steps", steps);
  out.Add("launches", ex->num_steps());
  out.Add("plan_peak_bytes", static_cast<double>(arena->plan().PeakBytes()));
  out.Add("plan_naive_bytes",
          static_cast<double>(arena->plan().NaiveSumBytes()));
  out.Add("unbudgeted_peak_bytes", unbudgeted_peak_bytes);
  out.Add("recompute_layers",
          static_cast<int>(arena->recompute_layers().size()));
  out.Add("recompute_flop", recompute_flop);
  out.Add("graph_flop", graph::TotalFlop(g));
  out.Add("contraction_flop",
          graph::FlopByClass(g).at(graph::OpClass::kContraction));
  out.Add("movement_elems", graph::TotalDataMovementElems(g));

  if (tracing) {
    std::vector<double> fuse_ms;
    for (int r = 0; r < kReplayReps; ++r) {
      const auto t0 = Clock::now();
      const fusion::FusionResult fused = fusion::FuseMaximally(g);
      fuse_ms.push_back(Ms(Clock::now() - t0));
      require(!fused.kernels.empty(), "fusion pass returned no kernels");
    }
    const ReplayResult replay = ReplayContractions(
        g, plan_options.groups, ex->backward_begin(), opt.seed);
    out.Add("fuse_ms", Median(fuse_ms));
    out.Add("einsum_fwd_ms", replay.fwd_ms);
    out.Add("einsum_bwd_ms", replay.bwd_ms);
    WriteChromeTrace(tracer, opt.trace_path);
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "xflow_bench: built without NDEBUG; configure with "
               "-DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  // Measure what users run: no stray runtime knob may change the
  // executor, the verifier or the tuner (autotune stays at "measure").
  for (const char* knob : {"XFLOW_THREADS", "XFLOW_TASK_SCHED", "XFLOW_VERIFY",
                           "XFLOW_AUTOTUNE", "XFLOW_GRAPH_EXEC"}) {
    unsetenv(knob);
  }
  try {
    const ArgParser args(argc, argv);
    Options opt;
    opt.workload = args.GetString("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
    opt.threads = static_cast<int>(args.GetInt("threads", 1));
    opt.seconds = args.GetDouble("seconds", 10);
    opt.steps = static_cast<int>(args.GetInt("steps", 0));
    opt.trace_path = args.GetString("trace", "");
    opt.reference = args.GetFlag("reference");
    opt.setup_only = args.GetFlag("setup-only");
    const auto unknown = args.UnknownOptions();
    require(unknown.empty(),
            StrFormat("unknown option --%s", unknown.empty()
                                                 ? ""
                                                 : unknown.front().c_str()));
    if (opt.reference) {
      // The baseline the fused, threaded, budgeted run must match bitwise:
      // tuning is numerics-free, so it is off here to keep the run short.
      opt.threads = 1;
      setenv("XFLOW_AUTOTUNE", "off", 1);
    }
    ThreadPool::SetGlobalThreads(opt.threads);
    std::printf("%s\n", RunWorkload(opt).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xflow_bench: %s\n", e.what());
    return 1;
  }
}
