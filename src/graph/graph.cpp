#include "graph/graph.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace xflow::graph {

void DataflowGraph::AddTensor(std::string name, Shape shape, bool is_weight) {
  require(!tensors_.contains(name),
          [&] { return StrFormat("duplicate tensor '%s'", name.c_str()); });
  tensors_.emplace(name, TensorNode{name, std::move(shape), is_weight});
}

void DataflowGraph::AddOp(OpNode op) {
  require(!op_index_.contains(op.name),
          [&] { return StrFormat("duplicate op '%s'", op.name.c_str()); });
  for (const auto& in : op.inputs) {
    require(tensors_.contains(in), [&] {
      return StrFormat("op '%s' reads undefined tensor '%s'", op.name.c_str(),
                       in.c_str());
    });
  }
  for (const auto& out : op.outputs) {
    require(tensors_.contains(out), [&] {
      return StrFormat("op '%s' writes undeclared tensor '%s'",
                       op.name.c_str(), out.c_str());
    });
    require(!producer_.contains(out), [&] {
      return StrFormat("tensor '%s' already has a producer", out.c_str());
    });
    producer_[out] = static_cast<int>(ops_.size());
  }
  Append(std::move(op));
}

void DataflowGraph::AddOpUnchecked(OpNode op) {
  for (const auto& out : op.outputs) {
    // First writer wins, matching what AddOp would have recorded.
    producer_.try_emplace(out, static_cast<int>(ops_.size()));
  }
  Append(std::move(op));
}

void DataflowGraph::Append(OpNode op) {
  const int index = static_cast<int>(ops_.size());
  for (const auto& in : op.inputs) {
    // Ops arrive in index order, so each list stays ascending; an op that
    // reads a tensor twice is listed once.
    std::vector<int>& readers = consumers_[in];
    if (readers.empty() || readers.back() != index) readers.push_back(index);
  }
  op_index_.try_emplace(op.name, index);  // a repeated name keeps the first
  ops_.push_back(std::move(op));
}

bool DataflowGraph::HasTensor(const std::string& name) const {
  return tensors_.contains(name);
}

const TensorNode& DataflowGraph::tensor(const std::string& name) const {
  const auto it = tensors_.find(name);
  require(it != tensors_.end(),
          [&] { return StrFormat("unknown tensor '%s'", name.c_str()); });
  return it->second;
}

const OpNode& DataflowGraph::op(const std::string& name) const {
  const int index = OpIndex(name);
  require(index >= 0,
          [&] { return StrFormat("unknown op '%s'", name.c_str()); });
  return ops_[static_cast<std::size_t>(index)];
}

int DataflowGraph::OpIndex(const std::string& name) const {
  const auto it = op_index_.find(name);
  return it == op_index_.end() ? -1 : it->second;
}

int DataflowGraph::BackwardBegin() const {
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (IsBackwardOp(ops_[i].kind) || !ops_[i].recompute_of.empty()) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(ops_.size());
}

int DataflowGraph::ProducerOf(const std::string& tensor_name) const {
  const auto it = producer_.find(tensor_name);
  return it == producer_.end() ? -1 : it->second;
}

const std::vector<int>& DataflowGraph::ConsumersOf(
    const std::string& tensor_name) const {
  static const std::vector<int> kNone;
  const auto it = consumers_.find(tensor_name);
  return it == consumers_.end() ? kNone : it->second;
}

std::int64_t DataflowGraph::InputElements(const OpNode& op) const {
  std::int64_t total = 0;
  for (const auto& in : op.inputs) total += tensor(in).shape.num_elements();
  return total;
}

std::int64_t DataflowGraph::OutputElements(const OpNode& op) const {
  std::int64_t total = 0;
  for (const auto& out : op.outputs) total += tensor(out).shape.num_elements();
  return total;
}

}  // namespace xflow::graph
