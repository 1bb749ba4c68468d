// Named-dimension shapes.
//
// Following the paper's notation, dimensions are single letters:
//   b: batch   j,k: sequence   h: heads   p,w: head projection
//   i: embedding   u: feed-forward width
// A Shape lists dimensions in *memory order* (outermost / slowest first);
// permuting that order is exactly the paper's "data layout" knob.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace xflow {

/// One named dimension with its extent.
struct DimExt {
  char name;
  std::int64_t extent;

  friend bool operator==(const DimExt&, const DimExt&) = default;
};

/// An ordered list of named dimensions. Order is memory order.
class Shape {
 public:
  Shape() = default;
  explicit Shape(std::vector<DimExt> dims);
  /// Convenience: Shape("phb", {64, 16, 8}).
  Shape(std::string_view names, std::span<const std::int64_t> extents);
  Shape(std::string_view names, std::initializer_list<std::int64_t> extents);

  [[nodiscard]] int rank() const { return static_cast<int>(dims_.size()); }
  [[nodiscard]] const std::vector<DimExt>& dims() const { return dims_; }
  /// Dimension names in memory order, e.g. "phbj".
  [[nodiscard]] std::string names() const;
  [[nodiscard]] bool has(char name) const;
  [[nodiscard]] std::int64_t extent(char name) const;
  [[nodiscard]] std::int64_t num_elements() const;

  /// Row-major strides (elements) for the current memory order.
  [[nodiscard]] std::vector<std::int64_t> strides() const;
  [[nodiscard]] std::int64_t stride(char name) const;

  /// Same dimensions, reordered to `new_order` (a permutation of names()).
  [[nodiscard]] Shape Permuted(std::string_view new_order) const;

  friend bool operator==(const Shape&, const Shape&) = default;

 private:
  std::vector<DimExt> dims_;
};

/// "ibj[8,2,6]": dim names in memory order, then their extents -- the
/// form every shape-quoting diagnostic uses.
std::string ToString(const Shape& shape);

/// All permutations of a dimension-name string (the layout search space).
std::vector<std::string> AllPermutations(std::string names);

/// Calls `fn` once per logical index tuple (indices ordered as shape.names()).
void ForEachIndex(const Shape& shape,
                  const std::function<void(std::span<const std::int64_t>)>& fn);

}  // namespace xflow
