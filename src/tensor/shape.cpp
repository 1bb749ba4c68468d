#include "tensor/shape.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace xflow {

Shape::Shape(std::vector<DimExt> dims) : dims_(std::move(dims)) {
  for (std::size_t a = 0; a < dims_.size(); ++a) {
    require(dims_[a].extent > 0, "dimension extents must be positive");
    for (std::size_t b = a + 1; b < dims_.size(); ++b) {
      require(dims_[a].name != dims_[b].name,
              "dimension names must be unique within a shape");
    }
  }
}

Shape::Shape(std::string_view names, std::span<const std::int64_t> extents) {
  require(names.size() == extents.size(),
          "names and extents must have equal length");
  std::vector<DimExt> dims;
  dims.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    dims.push_back({names[i], extents[i]});
  }
  *this = Shape(std::move(dims));
}

Shape::Shape(std::string_view names, std::initializer_list<std::int64_t> extents)
    : Shape(names, std::span<const std::int64_t>(extents.begin(), extents.size())) {}

std::string Shape::names() const {
  std::string s;
  s.reserve(dims_.size());
  for (const auto& d : dims_) s += d.name;
  return s;
}

bool Shape::has(char name) const {
  return std::any_of(dims_.begin(), dims_.end(),
                     [&](const DimExt& d) { return d.name == name; });
}

std::int64_t Shape::extent(char name) const {
  for (const auto& d : dims_) {
    if (d.name == name) return d.extent;
  }
  require(false, StrFormat("shape has no dimension '%c'", name));
  return 0;
}

std::int64_t Shape::num_elements() const {
  std::int64_t n = 1;
  for (const auto& d : dims_) n *= d.extent;
  return n;
}

std::vector<std::int64_t> Shape::strides() const {
  std::vector<std::int64_t> s(dims_.size());
  std::int64_t acc = 1;
  for (int i = rank() - 1; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = acc;
    acc *= dims_[static_cast<std::size_t>(i)].extent;
  }
  return s;
}

std::int64_t Shape::stride(char name) const {
  std::int64_t acc = 1;
  for (int i = rank() - 1; i >= 0; --i) {
    if (dims_[static_cast<std::size_t>(i)].name == name) return acc;
    acc *= dims_[static_cast<std::size_t>(i)].extent;
  }
  require(false, StrFormat("shape has no dimension '%c'", name));
  return 0;
}

Shape Shape::Permuted(std::string_view new_order) const {
  require(new_order.size() == dims_.size(),
          "permutation must cover every dimension exactly once");
  std::vector<DimExt> dims;
  dims.reserve(dims_.size());
  for (char c : new_order) dims.push_back({c, extent(c)});
  return Shape(std::move(dims));
}

std::string ToString(const Shape& shape) {
  std::string out = shape.names() + "[";
  for (const auto& d : shape.dims()) {
    if (out.back() != '[') out += ',';
    out += std::to_string(d.extent);
  }
  return out + "]";
}

std::vector<std::string> AllPermutations(std::string names) {
  std::sort(names.begin(), names.end());
  std::vector<std::string> out;
  do {
    out.push_back(names);
  } while (std::next_permutation(names.begin(), names.end()));
  return out;
}

void ForEachIndex(const Shape& shape,
                  const std::function<void(std::span<const std::int64_t>)>& fn) {
  const int rank = shape.rank();
  std::vector<std::int64_t> idx(static_cast<std::size_t>(rank), 0);
  if (rank == 0) {
    fn(idx);
    return;
  }
  const auto& dims = shape.dims();
  while (true) {
    fn(idx);
    int d = rank - 1;
    while (d >= 0) {
      auto du = static_cast<std::size_t>(d);
      if (++idx[du] < dims[du].extent) break;
      idx[du] = 0;
      --d;
    }
    if (d < 0) return;
  }
}

}  // namespace xflow
