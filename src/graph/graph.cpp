#include "graph/graph.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace xflow::graph {

void DataflowGraph::AddTensor(std::string name, Shape shape, bool is_weight) {
  require(!tensors_.contains(name),
          StrFormat("duplicate tensor '%s'", name.c_str()));
  tensors_.emplace(name, TensorNode{name, std::move(shape), is_weight});
}

void DataflowGraph::AddOp(OpNode op) {
  for (const auto& in : op.inputs) {
    require(tensors_.contains(in),
            StrFormat("op '%s' reads undefined tensor '%s'", op.name.c_str(),
                      in.c_str()));
  }
  for (const auto& out : op.outputs) {
    require(tensors_.contains(out),
            StrFormat("op '%s' writes undeclared tensor '%s'", op.name.c_str(),
                      out.c_str()));
    require(!producer_.contains(out),
            StrFormat("tensor '%s' already has a producer", out.c_str()));
    producer_[out] = static_cast<int>(ops_.size());
  }
  for (const auto& other : ops_) {
    require(other.name != op.name,
            StrFormat("duplicate op '%s'", op.name.c_str()));
  }
  ops_.push_back(std::move(op));
}

void DataflowGraph::AddOpUnchecked(OpNode op) {
  for (const auto& out : op.outputs) {
    // First writer wins, matching what AddOp would have recorded.
    producer_.try_emplace(out, static_cast<int>(ops_.size()));
  }
  ops_.push_back(std::move(op));
}

bool DataflowGraph::HasTensor(const std::string& name) const {
  return tensors_.contains(name);
}

const TensorNode& DataflowGraph::tensor(const std::string& name) const {
  const auto it = tensors_.find(name);
  require(it != tensors_.end(),
          StrFormat("unknown tensor '%s'", name.c_str()));
  return it->second;
}

const OpNode& DataflowGraph::op(const std::string& name) const {
  const int index = OpIndex(name);
  require(index >= 0, StrFormat("unknown op '%s'", name.c_str()));
  return ops_[static_cast<std::size_t>(index)];
}

int DataflowGraph::OpIndex(const std::string& name) const {
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].name == name) return static_cast<int>(i);
  }
  return -1;
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

std::vector<int> DataflowGraph::ConsumersOf(
    const std::string& tensor_name) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    for (const auto& in : ops_[i].inputs) {
      if (in == tensor_name) {
        out.push_back(static_cast<int>(i));
        break;
      }
    }
  }
  return out;
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
