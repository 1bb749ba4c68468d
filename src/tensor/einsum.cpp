#include "tensor/einsum.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/memstats.hpp"

namespace xflow {

namespace {

bool Contains(std::string_view s, char c) {
  return s.find(c) != std::string_view::npos;
}

/// "[b:2,i:24]" -- operand shapes as they appear in diagnostics, so a
/// failed contraction names exactly the (spec, shapes) site that broke.
std::string ShapeStr(const Shape& s) {
  std::string out = "[";
  bool first = true;
  for (const auto& d : s.dims()) {
    if (!first) out += ',';
    first = false;
    out += d.name;
    out += ':';
    out += std::to_string(d.extent);
  }
  out += ']';
  return out;
}

std::string SpecStr(const EinsumSpec& spec) {
  std::string out;
  out.reserve(spec.a.size() + spec.b.size() + spec.out.size() + 3);
  out += spec.a;
  out += ',';
  out += spec.b;
  out += "->";
  out += spec.out;
  return out;
}

/// Builds, for a group of dims, the table of memory offsets in `stride_src`
/// over the flattened group index (row-major in group order). The group's
/// extents come from `extent_src`; dims missing from `stride_src` contribute
/// stride 0 (broadcast), so the table always spans the full group space.
std::vector<std::int64_t> OffsetTable(const std::string& group,
                                      const Shape& extent_src,
                                      const Shape& stride_src) {
  std::int64_t total = 1;
  std::vector<std::int64_t> extents, strides;
  for (char d : group) {
    const std::int64_t e = extent_src.extent(d);
    extents.push_back(e);
    strides.push_back(stride_src.has(d) ? stride_src.stride(d) : 0);
    total *= e;
  }
  std::vector<std::int64_t> table(static_cast<std::size_t>(total));
  std::vector<std::int64_t> idx(group.size(), 0);
  for (std::int64_t flat = 0; flat < total; ++flat) {
    std::int64_t off = 0;
    for (std::size_t d = 0; d < group.size(); ++d) off += idx[d] * strides[d];
    table[static_cast<std::size_t>(flat)] = off;
    for (int d = static_cast<int>(group.size()) - 1; d >= 0; --d) {
      auto du = static_cast<std::size_t>(d);
      if (++idx[du] < extents[du]) break;
      idx[du] = 0;
    }
  }
  return table;
}

std::int64_t GroupSize(const std::string& group, const Shape& shape) {
  std::int64_t total = 1;
  for (char d : group) total *= shape.has(d) ? shape.extent(d) : 1;
  return total;
}

/// The nine offset tables one (spec, operand shapes, output shape)
/// combination needs, built once and cached: transformer layers run the
/// same handful of contractions every step, and a steady-state step must
/// not rebuild its tables (the executor's allocation-free contract --
/// cache misses are metered via memstats::einsum_table_builds).
struct EinsumTables {
  std::vector<std::int64_t> a_batch, b_batch, c_batch;
  std::vector<std::int64_t> a_m, c_m;
  std::vector<std::int64_t> b_n, c_n;
  std::vector<std::int64_t> a_k, b_k;
};

void AppendShapeSig(const Shape& s, std::string& key) {
  for (const auto& d : s.dims()) {
    key += d.name;
    key += std::to_string(d.extent);
    key += '.';
  }
  key += '|';
}

const EinsumTables& CachedTables(const EinsumSpec& spec, const Shape& a,
                                 const Shape& b, const Shape& c) {
  // Dense tensors derive their strides from the shape, so (spec, shapes)
  // fully determines every table. The cache is tiny in practice (one
  // entry per distinct contraction site per model configuration) and
  // never evicts; map nodes keep returned references stable.
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<EinsumTables>> cache;
  std::string key;
  key.reserve(64);
  key += spec.a;
  key += ',';
  key += spec.b;
  key += '>';
  key += spec.out;
  key += '|';
  AppendShapeSig(a, key);
  AppendShapeSig(b, key);
  AppendShapeSig(c, key);

  const std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto tables = std::make_unique<EinsumTables>();
    tables->a_batch = OffsetTable(spec.batch_dims, a, a);
    tables->b_batch = OffsetTable(spec.batch_dims, a, b);
    tables->c_batch = OffsetTable(spec.batch_dims, a, c);
    tables->a_m = OffsetTable(spec.m_dims, a, a);
    tables->c_m = OffsetTable(spec.m_dims, a, c);
    tables->b_n = OffsetTable(spec.n_dims, b, b);
    tables->c_n = OffsetTable(spec.n_dims, b, c);
    tables->a_k = OffsetTable(spec.k_dims, a, a);
    tables->b_k = OffsetTable(spec.k_dims, a, b);
    memstats::RecordEinsumTableBuild();
    it = cache.emplace(std::move(key), std::move(tables)).first;
  }
  return *it->second;
}

}  // namespace

EinsumSpec EinsumSpec::Parse(std::string_view spec) {
  const auto comma = spec.find(',');
  const auto arrow = spec.find("->");
  require(comma != std::string_view::npos && arrow != std::string_view::npos &&
              comma < arrow,
          StrFormat("malformed einsum spec '%.*s'",
                    static_cast<int>(spec.size()), spec.data()));
  EinsumSpec s;
  s.a = std::string(spec.substr(0, comma));
  s.b = std::string(spec.substr(comma + 1, arrow - comma - 1));
  s.out = std::string(spec.substr(arrow + 2));

  for (char d : s.out) {
    const bool in_a = Contains(s.a, d), in_b = Contains(s.b, d);
    require(in_a || in_b,
            StrFormat("einsum spec '%s': output dim '%c' appears in "
                      "neither input ('%s' / '%s')",
                      SpecStr(s).c_str(), d, s.a.c_str(), s.b.c_str()));
    if (in_a && in_b) {
      s.batch_dims += d;
    } else if (in_a) {
      s.m_dims += d;
    } else {
      s.n_dims += d;
    }
  }
  for (char d : s.a) {
    if (!Contains(s.out, d)) {
      require(Contains(s.b, d),
              StrFormat("einsum spec '%s': contracted dim '%c' of input "
                        "'%s' does not appear in input '%s'",
                        SpecStr(s).c_str(), d, s.a.c_str(), s.b.c_str()));
      s.k_dims += d;
    }
  }
  for (char d : s.b) {
    require(Contains(s.out, d) || Contains(s.a, d),
            StrFormat("einsum spec '%s': dim '%c' of input '%s' appears "
                      "in neither input '%s' nor output '%s'",
                      SpecStr(s).c_str(), d, s.b.c_str(), s.a.c_str(),
                      s.out.c_str()));
  }
  return s;
}

std::int64_t EinsumSpec::FlopCount(const Shape& a_shape,
                                   const Shape& b_shape) const {
  const auto e = ContractionExtents(*this, a_shape, b_shape);
  return 2 * e.batch * e.m * e.n * e.k;
}

GemmExtents ContractionExtents(const EinsumSpec& spec, const Shape& a_shape,
                               const Shape& b_shape) {
  const auto missing = [&](char d, const char* group) {
    return StrFormat(
        "einsum '%s': %s dim '%c' missing from operand shapes a=%s b=%s",
        SpecStr(spec).c_str(), group, d, ShapeStr(a_shape).c_str(),
        ShapeStr(b_shape).c_str());
  };
  GemmExtents e;
  for (char d : spec.batch_dims) {
    require(a_shape.has(d) || b_shape.has(d), missing(d, "batch"));
    e.batch *= a_shape.has(d) ? a_shape.extent(d) : b_shape.extent(d);
  }
  for (char d : spec.m_dims) {
    require(a_shape.has(d), missing(d, "m"));
    e.m *= a_shape.extent(d);
  }
  for (char d : spec.n_dims) {
    require(b_shape.has(d), missing(d, "n"));
    e.n *= b_shape.extent(d);
  }
  for (char d : spec.k_dims) {
    require(a_shape.has(d), missing(d, "k"));
    e.k *= a_shape.extent(d);
  }
  return e;
}

std::string_view ToString(EinsumClass cls) {
  switch (cls) {
    case EinsumClass::kUnclassified:
      return "unclassified";
    case EinsumClass::kGemm:
      return "gemm";
    case EinsumClass::kBatchedGemm:
      return "batched-gemm";
    case EinsumClass::kGemv:
      return "gemv";
    case EinsumClass::kGer:
      return "ger";
    case EinsumClass::kReduction:
      return "reduction";
    case EinsumClass::kView:
      return "view";
  }
  return "unclassified";
}

const EinsumClassInfo& ClassifyEinsum(const EinsumSpec& spec,
                                      const Shape& a_shape,
                                      const Shape& b_shape) {
  // Same lifecycle as CachedTables: (spec, operand shapes) fully
  // determines the extents, the cache never evicts, and map nodes keep
  // the returned references stable. Misses are metered so steady-state
  // zero-rebuild tests cover classification too.
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<EinsumClassInfo>> cache;
  std::string key;
  key.reserve(48);
  key += spec.a;
  key += ',';
  key += spec.b;
  key += '>';
  key += spec.out;
  key += '|';
  AppendShapeSig(a_shape, key);
  AppendShapeSig(b_shape, key);

  const std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto info = std::make_unique<EinsumClassInfo>();
    info->extents = ContractionExtents(spec, a_shape, b_shape);
    info->cls = ClassifyContraction(info->extents);
    memstats::RecordEinsumClassBuild();
    it = cache.emplace(std::move(key), std::move(info)).first;
  }
  return *it->second;
}

namespace {

/// Default rows-per-task for the specialized row-partitioned kernels; the
/// autotuner also tries 16 and 256 (EinsumExecConfig::row_grain).
constexpr std::int64_t kDefaultRowGrain = 64;

}  // namespace

template <typename T>
void EinsumLowered(const EinsumSpec& spec, EinsumClass cls, const Tensor<T>& a,
                   const Tensor<T>& b, Tensor<T>& out, float alpha, float beta,
                   const EinsumExecConfig* exec) {
  // Validate extents agree across operands.
  for (char d : spec.k_dims) {
    require(a.extent(d) == b.extent(d),
            StrFormat("einsum '%s': contracted dim '%c' extent mismatch: "
                      "a=%s vs b=%s",
                      SpecStr(spec).c_str(), d, ShapeStr(a.shape()).c_str(),
                      ShapeStr(b.shape()).c_str()));
  }
  for (char d : spec.batch_dims) {
    require(a.extent(d) == b.extent(d) && a.extent(d) == out.extent(d),
            StrFormat("einsum '%s': batch dim '%c' extent mismatch: a=%s "
                      "b=%s out=%s",
                      SpecStr(spec).c_str(), d, ShapeStr(a.shape()).c_str(),
                      ShapeStr(b.shape()).c_str(),
                      ShapeStr(out.shape()).c_str()));
  }
  // The output tables index `out` over the operands' free-dim extents, so
  // each m (n) dim must be in `out` with a's (b's) extent. (A dim missing
  // from its operand fails by name in ContractionExtents.)
  const auto check_free = [&](char d, const Tensor<T>& operand) {
    require(!operand.shape().has(d) ||
                (out.shape().has(d) && out.extent(d) == operand.extent(d)),
            StrFormat("einsum '%s': output dim '%c' is missing from out or "
                      "does not match its operand's extent: a=%s b=%s out=%s",
                      SpecStr(spec).c_str(), d, ShapeStr(a.shape()).c_str(),
                      ShapeStr(b.shape()).c_str(),
                      ShapeStr(out.shape()).c_str()));
  };
  for (char d : spec.m_dims) check_free(d, a);
  for (char d : spec.n_dims) check_free(d, b);
  require(out.shape().names().size() == spec.out.size(),
          StrFormat("einsum '%s': output tensor rank %zu does not match "
                    "the spec's %zu output dims (out=%s)",
                    SpecStr(spec).c_str(), out.shape().names().size(),
                    spec.out.size(), ShapeStr(out.shape()).c_str()));

  const EinsumClassInfo& info = ClassifyEinsum(spec, a.shape(), b.shape());
  if (cls == EinsumClass::kUnclassified) cls = info.cls;
  // kGemm / kBatchedGemm force the generic pipeline for any shape (the
  // bitwise baseline); any *specialized* class must be the one this
  // site's extents derive, or the kernel would read the wrong tables.
  require(cls == info.cls || cls == EinsumClass::kGemm ||
              cls == EinsumClass::kBatchedGemm,
          StrFormat("einsum '%s': lowered class '%.*s' does not match the "
                    "derived class '%.*s' (a=%s b=%s)",
                    SpecStr(spec).c_str(),
                    static_cast<int>(ToString(cls).size()),
                    ToString(cls).data(),
                    static_cast<int>(ToString(info.cls).size()),
                    ToString(info.cls).data(), ShapeStr(a.shape()).c_str(),
                    ShapeStr(b.shape()).c_str()));

  const EinsumTables& t = CachedTables(spec, a.shape(), b.shape(),
                                       out.shape());
  const auto& a_batch = t.a_batch;
  const auto& b_batch = t.b_batch;
  const auto& c_batch = t.c_batch;
  const auto& a_m = t.a_m;
  const auto& c_m = t.c_m;
  const auto& b_n = t.b_n;
  const auto& c_n = t.c_n;
  const auto& a_k = t.a_k;
  const auto& b_k = t.b_k;

  const auto m = static_cast<std::int64_t>(a_m.size());
  const auto n = static_cast<std::int64_t>(b_n.size());
  const std::int64_t row_grain =
      exec != nullptr && exec->row_grain > 0 ? exec->row_grain
                                             : kDefaultRowGrain;

  // One inner GEMM/kernel of the batch. Specialized classes index the
  // same offset tables as the generic path, with degenerate (size-1)
  // groups folded into the operand base pointers; per output element
  // they run the generic pipeline's exact float-op sequence, so every
  // class is bitwise identical to GemmOffsets on the same site.
  auto run_one = [&](std::int64_t batch) {
    const auto i = static_cast<std::size_t>(batch);
    const T* pa = a.data() + a_batch[i];
    const T* pb = b.data() + b_batch[i];
    T* pc = out.data() + c_batch[i];
    switch (cls) {
      case EinsumClass::kGemv:
        if (n == 1) {
          GemvOffsets<T, T>(pa, pb + b_n[0], pc + c_n[0], a_m, a_k, b_k, c_m,
                            alpha, beta, row_grain);
        } else {  // m == 1: the matrix is b, the vector is a.
          GemvOffsets<T, T>(pb, pa + a_m[0], pc + c_m[0], b_n, b_k, a_k, c_n,
                            alpha, beta, row_grain);
        }
        break;
      case EinsumClass::kGer:
        GerOffsets<T, T>(pa + a_k[0], pb + b_k[0], pc, a_m, b_n, c_m, c_n,
                         alpha, beta, row_grain);
        break;
      case EinsumClass::kReduction:
        DotOffsets<T, T>(pa + a_m[0], pb + b_n[0], pc + c_m[0] + c_n[0], a_k,
                         b_k, alpha, beta);
        break;
      case EinsumClass::kView:
        if (n == 1) {  // covers the fully-degenerate single-element case
          ScaledCopyOffsets<T, T>(pa + a_k[0], float(pb[b_k[0] + b_n[0]]),
                                  pc + c_n[0], a_m, c_m, alpha, beta,
                                  row_grain);
        } else {  // m == 1: copy b, scaled by a's single element.
          ScaledCopyOffsets<T, T>(pb + b_k[0], float(pa[a_m[0] + a_k[0]]),
                                  pc + c_m[0], b_n, c_n, alpha, beta,
                                  row_grain);
        }
        break;
      default:  // kGemm / kBatchedGemm: the generic block/pack pipeline.
        GemmOffsets<T, T>(pa, pb, pc, a_m, a_k, b_k, b_n, c_m, c_n, alpha,
                          beta);
        break;
    }
  };

  // Batched inner kernels write disjoint output slices, so they can run
  // on the pool directly; but when each inner kernel has enough tasks to
  // cover the pool by itself, inner parallelism balances better than a
  // few coarse batch tasks, so the batch loop stays serial (the inner
  // kernels run inline when called from a pool worker). Either path
  // performs the same per-element arithmetic, so results do not depend
  // on thread count -- which also makes the choice a legal autotuner
  // knob (EinsumExecConfig::batch_parallel).
  const auto batches = static_cast<std::int64_t>(a_batch.size());
  std::int64_t inner_tasks = 1;
  switch (cls) {
    case EinsumClass::kGemv:
      inner_tasks = ((n == 1 ? m : n) + row_grain - 1) / row_grain;
      break;
    case EinsumClass::kGer:
      inner_tasks = (m + row_grain - 1) / row_grain;
      break;
    case EinsumClass::kView:
      inner_tasks = ((n == 1 ? m : n) + row_grain - 1) / row_grain;
      break;
    case EinsumClass::kReduction:
      inner_tasks = 1;
      break;
    default:
      inner_tasks = GemmTileCount(m, n);
      break;
  }
  const std::int64_t threads = ThreadPool::Global().threads();
  const bool batch_par =
      batches > 1 &&
      (exec != nullptr && exec->batch_parallel >= 0
           ? exec->batch_parallel != 0
           : batches >= threads || inner_tasks < threads);
  if (batch_par) {
    ParallelFor(batches, 1, run_one);
  } else {
    for (std::int64_t batch = 0; batch < batches; ++batch) run_one(batch);
  }
}

template <typename T>
void EinsumInto(const EinsumSpec& spec, const Tensor<T>& a, const Tensor<T>& b,
                Tensor<T>& out, float alpha, float beta) {
  EinsumLowered(spec, EinsumClass::kUnclassified, a, b, out, alpha, beta,
                nullptr);
}

template <typename T>
Tensor<T> Einsum(const EinsumSpec& spec, const Tensor<T>& a,
                 const Tensor<T>& b, float alpha) {
  std::vector<DimExt> dims;
  for (char d : spec.out) {
    dims.push_back({d, a.shape().has(d) ? a.extent(d) : b.extent(d)});
  }
  Tensor<T> out{Shape(std::move(dims))};
  EinsumInto(spec, a, b, out, alpha, 0.0f);
  return out;
}

template <typename T>
TensorF EinsumRef(const EinsumSpec& spec, const Tensor<T>& a,
                  const Tensor<T>& b, float alpha) {
  std::vector<DimExt> dims;
  for (char d : spec.out) {
    dims.push_back({d, a.shape().has(d) ? a.extent(d) : b.extent(d)});
  }
  TensorF out{Shape(dims)};

  std::vector<DimExt> k_dims;
  for (char d : spec.k_dims) k_dims.push_back({d, a.extent(d)});
  const Shape k_shape{k_dims};
  const std::int64_t k_total = GroupSize(spec.k_dims, a.shape());

  const auto a_out = OffsetTable(spec.out, out.shape(), a.shape());
  const auto b_out = OffsetTable(spec.out, out.shape(), b.shape());
  const auto a_k = OffsetTable(spec.k_dims, a.shape(), a.shape());
  const auto b_k = OffsetTable(spec.k_dims, a.shape(), b.shape());

  for (std::int64_t o = 0; o < out.size(); ++o) {
    float acc = 0;
    for (std::int64_t k = 0; k < k_total; ++k) {
      acc += float(a.data()[a_out[static_cast<std::size_t>(o)] +
                            a_k[static_cast<std::size_t>(k)]]) *
             float(b.data()[b_out[static_cast<std::size_t>(o)] +
                            b_k[static_cast<std::size_t>(k)]]);
    }
    out.data()[o] = alpha * acc;
  }
  return out;
}

template void EinsumLowered<Half>(const EinsumSpec&, EinsumClass,
                                  const Tensor<Half>&, const Tensor<Half>&,
                                  Tensor<Half>&, float, float,
                                  const EinsumExecConfig*);
template void EinsumLowered<float>(const EinsumSpec&, EinsumClass,
                                   const Tensor<float>&, const Tensor<float>&,
                                   Tensor<float>&, float, float,
                                   const EinsumExecConfig*);
template void EinsumInto<Half>(const EinsumSpec&, const Tensor<Half>&,
                               const Tensor<Half>&, Tensor<Half>&, float,
                               float);
template void EinsumInto<float>(const EinsumSpec&, const Tensor<float>&,
                                const Tensor<float>&, Tensor<float>&, float,
                                float);
template Tensor<Half> Einsum<Half>(const EinsumSpec&, const Tensor<Half>&,
                                   const Tensor<Half>&, float);
template Tensor<float> Einsum<float>(const EinsumSpec&, const Tensor<float>&,
                                     const Tensor<float>&, float);
template TensorF EinsumRef<Half>(const EinsumSpec&, const Tensor<Half>&,
                                 const Tensor<Half>&, float);
template TensorF EinsumRef<float>(const EinsumSpec&, const Tensor<float>&,
                                  const Tensor<float>&, float);

}  // namespace xflow
