#include "graph/memory_plan.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace xflow::graph {

namespace {

/// A placement unit: one container, or one packed group of containers.
struct Unit {
  std::string name;  // group name, or the tensor name for singles
  std::vector<TensorPlacement> members;  // packed in order; offsets relative
  std::vector<int> ops;      // accessor ops (producers + consumers), deduped
  std::vector<int> writers;  // producer ops of the members, deduped
  std::size_t bytes = 0;                 // packed total
  std::size_t base = 0;                  // slab offset once placed
  int first_use = 0;
  int last_use = 0;
  bool pinned = false;
};

bool Overlaps(const Unit& a, const Unit& b) {
  return a.first_use <= b.last_use && b.first_use <= a.last_use;
}

/// Transitive successor closure over the op DAG, one bitset row per op
/// (own bit set). Builders emit ops in topological order (rule
/// graph/topo-order), so a reverse scan folds every consumer's closure
/// into its producer in one pass.
class OpReachability {
 public:
  explicit OpReachability(const DataflowGraph& graph)
      : words_((graph.ops().size() + 63) / 64),
        bits_(graph.ops().size() * words_, 0) {
    for (std::size_t i = graph.ops().size(); i-- > 0;) {
      std::uint64_t* row = bits_.data() + i * words_;
      row[i / 64] |= std::uint64_t{1} << (i % 64);
      for (const auto& out : graph.ops()[i].outputs) {
        for (int c : graph.ConsumersOf(out)) {
          const std::uint64_t* crow =
              bits_.data() + static_cast<std::size_t>(c) * words_;
          for (std::size_t w = 0; w < words_; ++w) row[w] |= crow[w];
        }
      }
    }
  }

  /// True when a path a -> ... -> b exists (a == b counts as reachable).
  [[nodiscard]] bool Reaches(int a, int b) const {
    return (bits_[static_cast<std::size_t>(a) * words_ +
                  static_cast<std::size_t>(b) / 64] >>
            (static_cast<std::size_t>(b) % 64)) &
           1u;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

std::size_t AlignUp(std::size_t v, std::size_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

}  // namespace

const TensorPlacement& MemoryPlan::at(const std::string& name) const {
  const auto it = placements_.find(name);
  require(it != placements_.end(),
          StrFormat("memory plan has no container '%s'", name.c_str()));
  return it->second;
}

double MemoryPlan::Reduction() const {
  if (naive_bytes_ == 0) return 0.0;
  return 1.0 - static_cast<double>(peak_bytes_) /
                   static_cast<double>(naive_bytes_);
}

std::string MemoryPlan::Summary() const {
  return StrFormat(
      "planned %zu containers into %zu bytes (naive sum %zu, %.1f%% saved)",
      placements_.size(), peak_bytes_, naive_bytes_, 100.0 * Reduction());
}

MemoryPlan MemoryPlan::FromPlacements(
    std::map<std::string, TensorPlacement> placements, std::size_t peak_bytes,
    std::size_t naive_bytes) {
  MemoryPlan plan;
  plan.placements_ = std::move(placements);
  plan.peak_bytes_ = peak_bytes;
  plan.naive_bytes_ = naive_bytes;
  return plan;
}

MemoryPlan PlanMemory(const DataflowGraph& graph,
                      const PlanOptions& options) {
  require(options.alignment > 0, "alignment must be positive");
  const int last_op = static_cast<int>(graph.ops().size()) - 1;
  auto elem_bytes = [&](const TensorNode& t) {
    return options.elem_bytes ? options.elem_bytes(t)
                              : options.default_elem_bytes;
  };
  // Liveness: producer .. last consumer. No in-graph consumer means the
  // tensor (an output or a forward-only saved tensor) is read after the
  // step, so it stays live to the end; graph inputs are pinned -- the
  // caller owns their contents for the whole step.
  auto excluded = [&](const std::string& name) {
    return std::find(options.exclude.begin(), options.exclude.end(), name) !=
           options.exclude.end();
  };
  // Fused spans: every member op of a span acts, for liveness purposes,
  // across the whole span -- its outputs are born at the span's first
  // index and its inputs stay live to the span's last.
  std::vector<std::pair<int, int>> op_span(graph.ops().size());
  for (std::size_t i = 0; i < op_span.size(); ++i) {
    op_span[i] = {static_cast<int>(i), static_cast<int>(i)};
  }
  for (const auto& span : options.fused_spans) {
    std::vector<int> members;
    for (const auto& op_name : span) {
      if (const int i = graph.OpIndex(op_name); i >= 0) members.push_back(i);
    }
    if (members.empty()) continue;
    require(members.size() == span.size(),
            StrFormat("fused span '%s' is only partially present",
                      Join(span, "' + '").c_str()));
    const auto [lo, hi] = std::minmax_element(members.begin(), members.end());
    for (int i : members) op_span[static_cast<std::size_t>(i)] = {*lo, *hi};
  }
  auto interval = [&](const std::string& name) {
    const int producer = graph.ProducerOf(name);
    const int first =
        producer < 0 ? -1 : op_span[static_cast<std::size_t>(producer)].first;
    const auto& consumers = graph.ConsumersOf(name);
    int last = -1;
    for (int c : consumers) {
      last = std::max(last, op_span[static_cast<std::size_t>(c)].second);
    }
    if (producer < 0 || consumers.empty()) {
      last = last_op;
      // Exceptions to "no consumer -> live to end", both checkpoint
      // artifacts (mirrored by the verifier's liveness re-derivation,
      // graph/verify.cpp):
      //  * an unread output of a recompute clone (e.g. the re-derived
      //    layer output "L<l>.y@r" -- the backward pass reads the stored
      //    original) is a byproduct of the clone kernel, not a result
      //    anyone reads after the step: it dies with its producer;
      //  * an original whose backward readers were retargeted to its "@r"
      //    clone has no consumers left, but it is not a step output
      //    either: it dies with its producer -- that early death is the
      //    entire point of checkpointing. Stored layer boundaries
      //    ("L<l>.y") are exempt: the top one IS the step output.
      if (producer >= 0 && consumers.empty()) {
        const bool clone_byproduct =
            !graph.ops()[static_cast<std::size_t>(producer)]
                 .recompute_of.empty();
        const bool recompute_dropped =
            graph.HasTensor(name + "@r") && !name.ends_with(".y");
        if (clone_byproduct || recompute_dropped) {
          last = op_span[static_cast<std::size_t>(producer)].second;
        }
      }
    }
    return std::pair<int, int>{first, std::max(first, last)};
  };
  // Accessor/writer sets feed the concurrency check below; these are the
  // actual graph ops (rule plan/concurrent-overlap is op-level -- fused
  // atomicity is already handled by the span-widened liveness, which
  // keeps two liveness-disjoint units out of any common span).
  auto add_accessors = [&](const std::string& name, Unit& u) {
    const int producer = graph.ProducerOf(name);
    if (producer >= 0) {
      u.ops.push_back(producer);
      u.writers.push_back(producer);
    }
    for (int c : graph.ConsumersOf(name)) u.ops.push_back(c);
  };
  auto dedupe_accessors = [](Unit& u) {
    std::sort(u.ops.begin(), u.ops.end());
    u.ops.erase(std::unique(u.ops.begin(), u.ops.end()), u.ops.end());
    std::sort(u.writers.begin(), u.writers.end());
    u.writers.erase(std::unique(u.writers.begin(), u.writers.end()),
                    u.writers.end());
  };
  auto member_of = [&](const std::string& name) -> const PlanGroup* {
    for (const auto& g : options.groups) {
      for (const auto& m : g.members) {
        if (m == name) return &g;
      }
    }
    return nullptr;
  };

  MemoryPlan plan;
  plan.options_ = options;
  std::vector<Unit> units;
  for (const auto& g : options.groups) {
    require(!g.members.empty(),
            StrFormat("plan group '%s' has no members", g.name.c_str()));
    // A group only applies when the graph has all of its members (e.g.
    // the backward gradient stack is absent from forward-only graphs);
    // a partially present group is a caller bug.
    std::size_t present = 0;
    for (const auto& name : g.members) present += graph.HasTensor(name);
    if (present == 0) continue;
    require(present == g.members.size(),
            StrFormat("plan group '%s' is only partially present",
                      g.name.c_str()));
    if (g.members.size() > 1) plan.groups_.push_back(g);
    Unit u;
    u.name = g.name;
    u.first_use = last_op;
    u.last_use = -1;
    for (const auto& name : g.members) {
      const TensorNode& t = graph.tensor(name);
      require(!t.is_weight, StrFormat("plan group '%s' contains weight '%s'",
                                      g.name.c_str(), name.c_str()));
      const auto [first, last] = interval(name);
      u.first_use = std::min(u.first_use, first);
      u.last_use = std::max(u.last_use, last);
      u.pinned = u.pinned || first < 0;
      TensorPlacement p;
      p.name = name;
      p.shape = t.shape;
      p.elem_bytes = elem_bytes(t);
      p.offset = u.bytes;  // packed tightly: the stacked view needs
                           // members back to back with no padding
      p.bytes =
          static_cast<std::size_t>(t.shape.num_elements()) * p.elem_bytes;
      u.bytes += p.bytes;
      u.members.push_back(std::move(p));
      add_accessors(name, u);
    }
    dedupe_accessors(u);
    units.push_back(std::move(u));
  }
  for (const auto& [name, t] : graph.tensors()) {
    if (t.is_weight || excluded(name) || member_of(name) != nullptr) continue;
    Unit u;
    u.name = name;
    const auto [first, last] = interval(name);
    u.first_use = first;
    u.last_use = last;
    u.pinned = first < 0;
    TensorPlacement p;
    p.name = name;
    p.shape = t.shape;
    p.elem_bytes = elem_bytes(t);
    p.bytes = static_cast<std::size_t>(t.shape.num_elements()) * p.elem_bytes;
    u.bytes = p.bytes;
    u.members.push_back(std::move(p));
    add_accessors(name, u);
    dedupe_accessors(u);
    units.push_back(std::move(u));
  }

  // First-fit in a deterministic order: earlier birth first, then larger
  // blocks (classic interval-coloring heuristic), then by name.
  std::sort(units.begin(), units.end(), [](const Unit& a, const Unit& b) {
    if (a.first_use != b.first_use) return a.first_use < b.first_use;
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    return a.name < b.name;
  });

  // Concurrency safety: the executor may run graph-independent steps at
  // the same time, so liveness disjointness alone no longer licenses byte
  // reuse -- two units may share bytes only when every access to the
  // earlier-live one is ordered *by graph edges* before every access to
  // the later one (rule plan/concurrent-overlap). Liveness uses
  // span-widened op indices, so two liveness-disjoint units can never
  // share a fused step; the remaining question is pure reachability.
  const OpReachability reach(graph);
  // The executor's Forward()/Backward() call boundary is a hard
  // synchronization point (recompute clones count as backward -- they run
  // inside Backward()): accesses on opposite sides of it are ordered even
  // without a graph path. Without this, a checkpointed layer's recompute
  // clones -- which read only graph inputs and weights, so no path links
  // them to the layer's original forward ops -- could never reuse the
  // originals' bytes, defeating checkpointing. Mirrored by the verifier's
  // plan/concurrent-overlap rule (graph/verify.cpp).
  const int bwd_begin = graph.BackwardBegin();
  // Every access to `early` must be a graph predecessor of every *write*
  // to `late` (or separated from it by the pass barrier); reads of `late`
  // are then ordered transitively through their member's producer edge.
  // (a == b cannot happen for liveness-disjoint units -- an op touching
  // both puts both intervals across itself -- but is rejected
  // defensively.)
  // A recompute-clone unit: everything it writes is produced by a
  // checkpoint-recompute twin. Clones read only graph inputs and weights,
  // so no graph path orders them against the subgraphs whose bytes they
  // should reuse (another layer's backward temporaries) -- yet that reuse
  // is exactly what makes checkpointing pay. It is still race-free: the
  // executor orders steps by the slab bytes they touch (BuildStepDeps),
  // which serializes byte-sharing steps in schedule order, so for
  // clone-involved pairs kernel-level schedule order alone licenses
  // reuse. The verifier mirrors this by exempting clone-involved pairs
  // from plan/concurrent-overlap (their liveness is still checked).
  auto clone_unit = [&](const Unit& u) {
    for (int w : u.writers) {
      if (graph.ops()[static_cast<std::size_t>(w)].recompute_of.empty()) {
        return false;
      }
    }
    return !u.writers.empty();
  };
  auto ordered_before = [&](const Unit& early, const Unit& late) {
    if (early.ops.empty() || late.writers.empty()) return false;
    if (early.ops.back() < bwd_begin && late.writers.front() >= bwd_begin) {
      return true;  // accessor sets are sorted: all-forward vs all-backward
    }
    if (clone_unit(early) || clone_unit(late)) {
      // Kernel-level schedule order: every fused kernel touching `early`
      // must fully precede every kernel writing `late`.
      int early_end = -1;
      for (int a : early.ops) {
        early_end =
            std::max(early_end, op_span[static_cast<std::size_t>(a)].second);
      }
      int late_begin = static_cast<int>(graph.ops().size());
      for (int b : late.writers) {
        late_begin =
            std::min(late_begin, op_span[static_cast<std::size_t>(b)].first);
      }
      if (early_end < late_begin) return true;
    }
    for (int a : early.ops) {
      for (int b : late.writers) {
        if (a == b || !reach.Reaches(a, b)) return false;
      }
    }
    return true;
  };
  auto conflicts = [&](const Unit& a, const Unit& b) {
    if (Overlaps(a, b)) return true;
    return a.last_use < b.first_use ? !ordered_before(a, b)
                                    : !ordered_before(b, a);
  };

  std::vector<std::pair<std::size_t, std::size_t>> occupied;  // offset, end
  std::vector<Unit> placed;
  for (Unit& u : units) {
    occupied.clear();
    for (const Unit& v : placed) {
      if (conflicts(u, v)) occupied.emplace_back(v.base, v.base + v.bytes);
    }
    std::sort(occupied.begin(), occupied.end());
    std::size_t offset = 0;
    for (const auto& [begin, end] : occupied) {
      if (offset + u.bytes <= begin) break;
      offset = std::max(offset, AlignUp(end, options.alignment));
    }
    plan.peak_bytes_ = std::max(plan.peak_bytes_, offset + u.bytes);
    u.base = offset;
    for (TensorPlacement& p : u.members) {
      plan.naive_bytes_ += AlignUp(p.bytes, options.alignment);
      p.offset += offset;
      p.first_use = u.first_use;
      p.last_use = u.last_use;
      p.pinned = u.pinned;
      plan.placements_.emplace(p.name, p);
    }
    if (u.members.size() > 1) {
      TensorPlacement alias;
      alias.name = u.name;
      alias.elem_bytes = u.members.front().elem_bytes;
      alias.offset = offset;
      alias.bytes = u.bytes;
      alias.first_use = u.first_use;
      alias.last_use = u.last_use;
      alias.pinned = u.pinned;
      plan.placements_.emplace(u.name, std::move(alias));
    }
    u.members.clear();
    placed.push_back(std::move(u));
  }
  return plan;
}

}  // namespace xflow::graph
