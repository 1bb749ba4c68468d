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

template <typename T>
void EinsumLowered(const EinsumSpec& spec, EinsumClass /*cls*/,
                   const Tensor<T>& a, const Tensor<T>& b, Tensor<T>& out,
                   float alpha, float beta, const EinsumExecConfig* exec) {
  // Validate extents agree across operands. Messages are built only on
  // failure: this runs on every contraction.
  for (char d : spec.k_dims) {
    require(a.extent(d) == b.extent(d), [&] {
      return StrFormat("einsum '%s': contracted dim '%c' extent mismatch: "
                       "a=%s vs b=%s",
                       SpecStr(spec).c_str(), d, ShapeStr(a.shape()).c_str(),
                       ShapeStr(b.shape()).c_str());
    });
  }
  for (char d : spec.batch_dims) {
    require(a.extent(d) == b.extent(d) && a.extent(d) == out.extent(d), [&] {
      return StrFormat("einsum '%s': batch dim '%c' extent mismatch: a=%s "
                       "b=%s out=%s",
                       SpecStr(spec).c_str(), d, ShapeStr(a.shape()).c_str(),
                       ShapeStr(b.shape()).c_str(),
                       ShapeStr(out.shape()).c_str());
    });
  }
  // The output tables index `out` over the operands' free-dim extents, so
  // each m (n) dim must be in `out` with a's (b's) extent. (A dim missing
  // from its operand fails by name in ClassifyEinsum below.)
  const auto check_free = [&](char d, const Tensor<T>& operand) {
    require(!operand.shape().has(d) ||
                (out.shape().has(d) && out.extent(d) == operand.extent(d)),
            [&] {
              return StrFormat(
                  "einsum '%s': output dim '%c' is missing from out or does "
                  "not match its operand's extent: a=%s b=%s out=%s",
                  SpecStr(spec).c_str(), d, ShapeStr(a.shape()).c_str(),
                  ShapeStr(b.shape()).c_str(), ShapeStr(out.shape()).c_str());
            });
  };
  for (char d : spec.m_dims) check_free(d, a);
  for (char d : spec.n_dims) check_free(d, b);
  const auto out_rank = static_cast<std::size_t>(out.shape().rank());
  require(out_rank == spec.out.size(), [&] {
    return StrFormat("einsum '%s': output tensor rank %zu does not match "
                     "the spec's %zu output dims (out=%s)",
                     SpecStr(spec).c_str(), out_rank, spec.out.size(),
                     ShapeStr(out.shape()).c_str());
  });
  (void)ClassifyEinsum(spec, a.shape(), b.shape());

  const EinsumTables& t = CachedTables(spec, a.shape(), b.shape(),
                                       out.shape());
  auto run_one = [&](std::int64_t batch) {
    const auto i = static_cast<std::size_t>(batch);
    GemmOffsets<T, T>(a.data() + t.a_batch[i], b.data() + t.b_batch[i],
                      out.data() + t.c_batch[i], t.a_m, t.a_k, t.b_k, t.b_n,
                      t.c_m, t.c_n, alpha, beta);
  };

  // Batched GEMMs write disjoint output slices, so they can run on the
  // pool directly; but when each GEMM has enough blocks to cover the pool
  // by itself, block parallelism balances better than a few coarse batch
  // tasks, so the batch loop stays serial (the GEMMs run inline when
  // called from a pool worker). Either path performs the same per-element
  // arithmetic, so results do not depend on thread count -- which also
  // makes the choice a legal autotuner knob
  // (EinsumExecConfig::batch_parallel).
  const auto batches = static_cast<std::int64_t>(t.a_batch.size());
  const std::int64_t blocks =
      GemmTileCount(static_cast<std::int64_t>(t.a_m.size()),
                    static_cast<std::int64_t>(t.b_n.size()));
  const std::int64_t threads = ThreadPool::Global().threads();
  const bool batch_par =
      batches > 1 &&
      (exec != nullptr && exec->batch_parallel >= 0
           ? exec->batch_parallel != 0
           : batches >= threads || blocks < threads);
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
