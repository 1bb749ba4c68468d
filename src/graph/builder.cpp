#include "graph/builder.hpp"

#include <set>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "tensor/einsum.hpp"

namespace xflow::graph {

namespace {

/// Shorthand for adding a contraction node whose flop count comes from its
/// einsum spec evaluated on the named operand shapes.
void AddContraction(DataflowGraph& g, std::string name, std::string spec,
                    const std::string& a, const std::string& b,
                    const std::vector<std::string>& outputs) {
  const auto parsed = EinsumSpec::Parse(spec);
  OpNode op;
  op.name = std::move(name);
  op.kind = OpKind::kContraction;
  op.einsum = std::move(spec);
  op.inputs = {a, b};
  op.outputs = outputs;
  op.flop = static_cast<double>(
      parsed.FlopCount(g.tensor(a).shape, g.tensor(b).shape));
  // Iteration space: all output dims independent, contracted dims reduced.
  const Shape& out_shape = g.tensor(outputs.front()).shape;
  for (const auto& d : out_shape.dims()) op.independent_dims.push_back(d);
  for (char d : parsed.k_dims) {
    op.reduction_dims.push_back({d, g.tensor(a).shape.extent(d)});
  }
  g.AddOp(std::move(op));
}

/// Adds a non-contraction node. `space_of` names the tensor whose shape
/// drives the element count; reduction dims are subtracted from it.
void AddMapOp(DataflowGraph& g, std::string name, OpKind kind,
              std::vector<std::string> inputs, std::vector<std::string> outputs,
              const std::string& space_of, std::string reduce_dims = "",
              std::vector<std::string> saved_outputs = {}) {
  OpNode op;
  op.name = std::move(name);
  op.kind = kind;
  op.inputs = std::move(inputs);
  op.outputs = std::move(outputs);
  op.saved_outputs = std::move(saved_outputs);
  const Shape& space = g.tensor(space_of).shape;
  for (const auto& d : space.dims()) {
    if (reduce_dims.find(d.name) == std::string::npos) {
      op.independent_dims.push_back(d);
    } else {
      op.reduction_dims.push_back(d);
    }
  }
  op.flop = FlopPerElement(kind) * static_cast<double>(space.num_elements());
  g.AddOp(std::move(op));
}

}  // namespace

DataflowGraph BuildMhaForward(const ModelDims& d) {
  return BuildMha(d, /*include_backward=*/false);
}

DataflowGraph BuildMha(const ModelDims& d, bool include_backward) {
  DataflowGraph g;
  // Inputs (general attention: distinct q, k, v as in Fig. 1).
  g.AddTensor("q", Shape("ibj", {d.i, d.b, d.j}));
  g.AddTensor("k", Shape("ibk", {d.i, d.b, d.k}));
  g.AddTensor("v", Shape("ibk", {d.i, d.b, d.k}));
  g.AddTensor("wq", Shape("phi", {d.p, d.h, d.i}), /*is_weight=*/true);
  g.AddTensor("wk", Shape("phi", {d.p, d.h, d.i}), true);
  g.AddTensor("wv", Shape("whi", {d.p, d.h, d.i}), true);
  g.AddTensor("wo", Shape("whi", {d.p, d.h, d.i}), true);
  g.AddTensor("bq", Shape("ph", {d.p, d.h}), true);
  g.AddTensor("bk", Shape("ph", {d.p, d.h}), true);
  g.AddTensor("bv", Shape("wh", {d.p, d.h}), true);
  g.AddTensor("bo", Shape("i", {d.i}), true);

  g.AddTensor("qq", Shape("phbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("kk", Shape("phbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("vv", Shape("whbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("qq_b", Shape("phbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("kk_b", Shape("phbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("vv_b", Shape("whbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("beta", Shape("hbjk", {d.h, d.b, d.j, d.k}));
  g.AddTensor("alpha", Shape("hbjk", {d.h, d.b, d.j, d.k}));
  g.AddTensor("attn_mask", Shape("hbjk", {d.h, d.b, d.j, d.k}));
  g.AddTensor("softmax_saved", Shape("hbjk", {d.h, d.b, d.j, d.k}));
  g.AddTensor("gamma", Shape("whbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("attn_out", Shape("ibj", {d.i, d.b, d.j}));
  g.AddTensor("out", Shape("ibj", {d.i, d.b, d.j}));

  AddContraction(g, "Q", "phi,ibj->phbj", "wq", "q", {"qq"});
  AddContraction(g, "K", "phi,ibk->phbk", "wk", "k", {"kk"});
  AddContraction(g, "V", "whi,ibk->whbk", "wv", "v", {"vv"});
  AddMapOp(g, "bias Q", OpKind::kBias, {"qq", "bq"}, {"qq_b"}, "qq");
  AddMapOp(g, "bias K", OpKind::kBias, {"kk", "bk"}, {"kk_b"}, "kk");
  AddMapOp(g, "bias V", OpKind::kBias, {"vv", "bv"}, {"vv_b"}, "vv");
  AddContraction(g, "QKT", "phbk,phbj->hbjk", "kk_b", "qq_b", {"beta"});
  AddMapOp(g, "scaled softmax", OpKind::kScaledSoftmax, {"beta"},
           {"alpha", "attn_mask", "softmax_saved"}, "beta", "k",
           {"attn_mask", "softmax_saved"});
  AddContraction(g, "gamma", "whbk,hbjk->whbj", "vv_b", "alpha", {"gamma"});
  AddContraction(g, "out", "whi,whbj->ibj", "wo", "gamma", {"attn_out"});
  AddMapOp(g, "bias out", OpKind::kBias, {"attn_out", "bo"}, {"out"},
           "attn_out");
  if (!include_backward) return g;

  // ---- Containers: backward (d_out arrives from the caller).
  g.AddTensor("d_out", Shape("ibj", {d.i, d.b, d.j}));
  g.AddTensor("d_bo", Shape("i", {d.i}), /*is_weight=*/true);
  g.AddTensor("d_gamma", Shape("whbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("d_wo", Shape("whi", {d.p, d.h, d.i}), true);
  g.AddTensor("d_alpha", Shape("hbjk", {d.h, d.b, d.j, d.k}));
  g.AddTensor("d_vv", Shape("whbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("d_beta", Shape("hbjk", {d.h, d.b, d.j, d.k}));
  g.AddTensor("d_kk", Shape("phbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("d_qq", Shape("phbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("d_bq", Shape("ph", {d.p, d.h}), true);
  g.AddTensor("d_bk", Shape("ph", {d.p, d.h}), true);
  g.AddTensor("d_bv", Shape("wh", {d.p, d.h}), true);
  g.AddTensor("d_q", Shape("ibj", {d.i, d.b, d.j}));
  g.AddTensor("d_k", Shape("ibk", {d.i, d.b, d.k}));
  g.AddTensor("d_v", Shape("ibk", {d.i, d.b, d.k}));
  g.AddTensor("d_wq", Shape("phi", {d.p, d.h, d.i}), true);
  g.AddTensor("d_wk", Shape("phi", {d.p, d.h, d.i}), true);
  g.AddTensor("d_wv", Shape("whi", {d.p, d.h, d.i}), true);

  // ---- Backward operators: output projection, gamma, softmax, QKT, then
  // the input projections' bias, dX and dW.
  AddMapOp(g, "bias out dW", OpKind::kBiasDW, {"d_out"}, {"d_bo"},
           "attn_out", "bj");
  AddContraction(g, "out dX", "whi,ibj->whbj", "wo", "d_out", {"d_gamma"});
  AddContraction(g, "out dW", "ibj,whbj->whi", "d_out", "gamma", {"d_wo"});
  AddContraction(g, "gamma dX1", "whbk,whbj->hbjk", "vv_b", "d_gamma",
                 {"d_alpha"});
  AddContraction(g, "gamma dX2", "whbj,hbjk->whbk", "d_gamma", "alpha",
                 {"d_vv"});
  AddMapOp(g, "scaled softmax dX", OpKind::kScaledSoftmaxDX,
           {"d_alpha", "attn_mask", "softmax_saved"}, {"d_beta"}, "beta",
           "k");
  AddContraction(g, "QKT dX1", "phbj,hbjk->phbk", "qq_b", "d_beta", {"d_kk"});
  AddContraction(g, "QKT dX2", "hbjk,phbk->phbj", "d_beta", "kk_b", {"d_qq"});
  AddMapOp(g, "bias Q dW", OpKind::kBiasDW, {"d_qq"}, {"d_bq"}, "qq", "bj");
  AddMapOp(g, "bias K dW", OpKind::kBiasDW, {"d_kk"}, {"d_bk"}, "kk", "bk");
  AddMapOp(g, "bias V dW", OpKind::kBiasDW, {"d_vv"}, {"d_bv"}, "vv", "bk");
  AddContraction(g, "Q dX", "phi,phbj->ibj", "wq", "d_qq", {"d_q"});
  AddContraction(g, "K dX", "phi,phbk->ibk", "wk", "d_kk", {"d_k"});
  AddContraction(g, "V dX", "whi,whbk->ibk", "wv", "d_vv", {"d_v"});
  AddContraction(g, "Q dW", "phbj,ibj->phi", "d_qq", "q", {"d_wq"});
  AddContraction(g, "K dW", "phbk,ibk->phi", "d_kk", "k", {"d_wk"});
  AddContraction(g, "V dW", "whbk,ibk->whi", "d_vv", "v", {"d_wv"});
  return g;
}

DataflowGraph BuildEncoder(const ModelDims& d, AlgebraicFusion fusion,
                           bool include_backward) {
  // The backward graph is modeled for the fully (QKV) algebraically fused
  // projection, the configuration Table III reports; forward-only graphs
  // support all three variants for the Table II ablation.
  require(!include_backward || fusion == AlgebraicFusion::kQKV,
          "backward graph requires AlgebraicFusion::kQKV");
  DataflowGraph g;
  const Shape ibj("ibj", {d.i, d.b, d.j});
  const Shape ubj("ubj", {d.u, d.b, d.j});
  const Shape hbjk("hbjk", {d.h, d.b, d.j, d.k});
  const Shape bj("bj", {d.b, d.j});

  // ---- Containers: forward.
  g.AddTensor("x", ibj);
  const std::int64_t p3 = 3 * d.p;
  switch (fusion) {
    case AlgebraicFusion::kQKV:
      g.AddTensor("w_qkv", Shape("phi", {p3, d.h, d.i}), true);
      break;
    case AlgebraicFusion::kQK:
      g.AddTensor("w_qk", Shape("phi", {2 * d.p, d.h, d.i}), true);
      g.AddTensor("w_v", Shape("whi", {d.p, d.h, d.i}), true);
      break;
    case AlgebraicFusion::kNone:
      g.AddTensor("w_q", Shape("phi", {d.p, d.h, d.i}), true);
      g.AddTensor("w_k", Shape("phi", {d.p, d.h, d.i}), true);
      g.AddTensor("w_v", Shape("whi", {d.p, d.h, d.i}), true);
      break;
  }
  g.AddTensor("b_qkv", Shape("ph", {p3, d.h}), true);
  g.AddTensor("qq", Shape("phbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("kk", Shape("phbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("vv", Shape("whbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("qq_b", Shape("phbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("kk_b", Shape("phbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("vv_b", Shape("whbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("beta", hbjk);
  g.AddTensor("alpha", hbjk);
  g.AddTensor("attn_mask", hbjk);
  g.AddTensor("softmax_saved", hbjk);
  g.AddTensor("gamma_t", Shape("whbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("w_out", Shape("whi", {d.p, d.h, d.i}), true);
  g.AddTensor("b_out", Shape("i", {d.i}), true);
  g.AddTensor("attn_out", ibj);
  g.AddTensor("attn_biased", ibj);
  g.AddTensor("attn_dropped", ibj);
  g.AddTensor("attn_drop_mask", ibj);
  g.AddTensor("resid1", ibj);
  g.AddTensor("ln1_w", Shape("i", {d.i}), true);
  g.AddTensor("ln1_b", Shape("i", {d.i}), true);
  g.AddTensor("ln1_out", ibj);
  g.AddTensor("ln1_mean", bj);
  g.AddTensor("ln1_rstd", bj);
  g.AddTensor("w1", Shape("ui", {d.u, d.i}), true);
  g.AddTensor("b1", Shape("u", {d.u}), true);
  g.AddTensor("lin1", ubj);
  g.AddTensor("lin1_biased", ubj);
  g.AddTensor("relu1", ubj);
  g.AddTensor("ff_dropped", ubj);
  g.AddTensor("ff_drop_mask", ubj);
  g.AddTensor("w2", Shape("iu", {d.i, d.u}), true);
  g.AddTensor("b2", Shape("i", {d.i}), true);
  g.AddTensor("lin2", ibj);
  g.AddTensor("lin2_biased", ibj);
  g.AddTensor("lin2_dropped", ibj);
  g.AddTensor("lin2_drop_mask", ibj);
  g.AddTensor("resid2", ibj);
  g.AddTensor("ln2_w", Shape("i", {d.i}), true);
  g.AddTensor("ln2_b", Shape("i", {d.i}), true);
  g.AddTensor("y", ibj);
  g.AddTensor("ln2_mean", bj);
  g.AddTensor("ln2_rstd", bj);

  // ---- Forward operators (Table III order).
  switch (fusion) {
    case AlgebraicFusion::kQKV: {
      // One stacked GEMM produces all three projections (Sec. IV-D).
      const auto spec = EinsumSpec::Parse("phi,ibj->phbj");
      OpNode op;
      op.name = "Q,K,V";
      op.kind = OpKind::kContraction;
      op.einsum = "phi,ibj->phbj";
      op.inputs = {"w_qkv", "x"};
      op.outputs = {"qq", "kk", "vv"};
      op.flop = static_cast<double>(
          spec.FlopCount(g.tensor("w_qkv").shape, g.tensor("x").shape));
      op.independent_dims = {{'p', p3}, {'h', d.h}, {'b', d.b}, {'j', d.j}};
      op.reduction_dims = {{'i', d.i}};
      g.AddOp(std::move(op));
      break;
    }
    case AlgebraicFusion::kQK: {
      const auto spec = EinsumSpec::Parse("phi,ibj->phbj");
      OpNode op;
      op.name = "Q,K";
      op.kind = OpKind::kContraction;
      op.einsum = "phi,ibj->phbj";
      op.inputs = {"w_qk", "x"};
      op.outputs = {"qq", "kk"};
      op.flop = static_cast<double>(
          spec.FlopCount(g.tensor("w_qk").shape, g.tensor("x").shape));
      op.independent_dims = {{'p', 2 * d.p}, {'h', d.h}, {'b', d.b}, {'j', d.j}};
      op.reduction_dims = {{'i', d.i}};
      g.AddOp(std::move(op));
      AddContraction(g, "V", "whi,ibj->whbj", "w_v", "x", {"vv"});
      break;
    }
    case AlgebraicFusion::kNone:
      AddContraction(g, "Q", "phi,ibj->phbj", "w_q", "x", {"qq"});
      AddContraction(g, "K", "phi,ibj->phbj", "w_k", "x", {"kk"});
      AddContraction(g, "V", "whi,ibj->whbj", "w_v", "x", {"vv"});
      break;
  }
  {
    // Attention input bias over all three projections (AIB).
    OpNode op;
    op.name = "input bias";
    op.kind = OpKind::kBias;
    op.inputs = {"qq", "kk", "vv", "b_qkv"};
    op.outputs = {"qq_b", "kk_b", "vv_b"};
    op.independent_dims = {{'p', p3}, {'h', d.h}, {'b', d.b}, {'j', d.j}};
    op.flop = static_cast<double>(3 * g.tensor("qq").shape.num_elements());
    g.AddOp(std::move(op));
  }
  AddContraction(g, "QKT", "phbk,phbj->hbjk", "kk_b", "qq_b", {"beta"});
  AddMapOp(g, "scaled softmax", OpKind::kScaledSoftmax, {"beta"},
           {"alpha", "attn_mask", "softmax_saved"}, "beta", "k",
           {"attn_mask", "softmax_saved"});
  AddContraction(g, "gamma", "whbk,hbjk->whbj", "vv_b", "alpha", {"gamma_t"});
  AddContraction(g, "out", "whi,whbj->ibj", "w_out", "gamma_t", {"attn_out"});
  AddMapOp(g, "output bias", OpKind::kBias, {"attn_out", "b_out"},
           {"attn_biased"}, "attn_out");
  AddMapOp(g, "attn dropout", OpKind::kDropout, {"attn_biased"},
           {"attn_dropped", "attn_drop_mask"}, "attn_biased", "",
           {"attn_drop_mask"});
  AddMapOp(g, "residual 1", OpKind::kResidual, {"attn_dropped", "x"},
           {"resid1"}, "resid1");
  AddMapOp(g, "layernorm 1", OpKind::kLayerNorm, {"resid1", "ln1_w", "ln1_b"},
           {"ln1_out", "ln1_mean", "ln1_rstd"}, "resid1", "i",
           {"ln1_mean", "ln1_rstd"});
  AddContraction(g, "linear 1", "ui,ibj->ubj", "w1", "ln1_out", {"lin1"});
  AddMapOp(g, "bias 1", OpKind::kBias, {"lin1", "b1"}, {"lin1_biased"},
           "lin1");
  AddMapOp(g, "relu", OpKind::kReLU, {"lin1_biased"}, {"relu1"}, "relu1");
  AddMapOp(g, "ff dropout", OpKind::kDropout, {"relu1"},
           {"ff_dropped", "ff_drop_mask"}, "relu1", "", {"ff_drop_mask"});
  AddContraction(g, "linear 2", "iu,ubj->ibj", "w2", "ff_dropped", {"lin2"});
  AddMapOp(g, "bias 2", OpKind::kBias, {"lin2", "b2"}, {"lin2_biased"},
           "lin2");
  AddMapOp(g, "ff2 dropout", OpKind::kDropout, {"lin2_biased"},
           {"lin2_dropped", "lin2_drop_mask"}, "lin2_biased", "",
           {"lin2_drop_mask"});
  AddMapOp(g, "residual 2", OpKind::kResidual, {"lin2_dropped", "ln1_out"},
           {"resid2"}, "resid2");
  AddMapOp(g, "layernorm 2", OpKind::kLayerNorm, {"resid2", "ln2_w", "ln2_b"},
           {"y", "ln2_mean", "ln2_rstd"}, "resid2", "i",
           {"ln2_mean", "ln2_rstd"});

  if (!include_backward) return g;

  // ---- Containers: backward.
  g.AddTensor("d_y", ibj);
  g.AddTensor("d_ln2_w", Shape("i", {d.i}), true);
  g.AddTensor("d_ln2_b", Shape("i", {d.i}), true);
  g.AddTensor("d_resid2", ibj);
  g.AddTensor("d_lin2_biased", ibj);
  g.AddTensor("d_b2", Shape("i", {d.i}), true);
  g.AddTensor("d_ff_dropped", ubj);
  g.AddTensor("d_w2", Shape("iu", {d.i, d.u}), true);
  g.AddTensor("d_relu1", ubj);
  g.AddTensor("d_lin1_biased", ubj);
  g.AddTensor("d_b1", Shape("u", {d.u}), true);
  g.AddTensor("d_ln1_ff", ibj);
  g.AddTensor("d_w1", Shape("ui", {d.u, d.i}), true);
  g.AddTensor("d_ln1_out", ibj);
  g.AddTensor("d_ln1_w", Shape("i", {d.i}), true);
  g.AddTensor("d_ln1_b", Shape("i", {d.i}), true);
  g.AddTensor("d_resid1", ibj);
  g.AddTensor("d_attn_biased", ibj);
  g.AddTensor("d_b_out", Shape("i", {d.i}), true);
  g.AddTensor("d_gamma", Shape("whbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("d_w_out", Shape("whi", {d.p, d.h, d.i}), true);
  g.AddTensor("d_alpha", hbjk);
  g.AddTensor("d_vv", Shape("whbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("d_beta", hbjk);
  g.AddTensor("d_kk", Shape("phbk", {d.p, d.h, d.b, d.k}));
  g.AddTensor("d_qq", Shape("phbj", {d.p, d.h, d.b, d.j}));
  g.AddTensor("d_x_qkv", ibj);
  g.AddTensor("d_w_qkv", Shape("phi", {p3, d.h, d.i}), true);
  g.AddTensor("d_b_qkv", Shape("ph", {p3, d.h}), true);
  g.AddTensor("d_x", ibj);

  // ---- Backward operators (Table III order).
  AddMapOp(g, "layernorm 2 dW", OpKind::kLayerNormDW,
           {"d_y", "resid2", "ln2_mean", "ln2_rstd"}, {"d_ln2_w", "d_ln2_b"},
           "resid2", "bj");
  AddMapOp(g, "layernorm 2 dX", OpKind::kLayerNormDX,
           {"d_y", "ln2_w", "resid2", "ln2_mean", "ln2_rstd"}, {"d_resid2"},
           "resid2", "i");
  AddMapOp(g, "ff2 dropout dX", OpKind::kDropoutDX,
           {"d_resid2", "lin2_drop_mask"}, {"d_lin2_biased"}, "resid2");
  AddContraction(g, "linear 2 dX", "iu,ibj->ubj", "w2", "d_lin2_biased",
                 {"d_ff_dropped"});
  AddContraction(g, "linear 2 dW", "ibj,ubj->iu", "d_lin2_biased",
                 "ff_dropped", {"d_w2"});
  AddMapOp(g, "bias 2 dW", OpKind::kBiasDW, {"d_lin2_biased"}, {"d_b2"},
           "lin2_biased", "bj");
  AddMapOp(g, "ff dropout dX", OpKind::kDropoutDX,
           {"d_ff_dropped", "ff_drop_mask"}, {"d_relu1"}, "relu1");
  AddMapOp(g, "relu dX", OpKind::kReLUDX, {"d_relu1", "relu1"},
           {"d_lin1_biased"}, "relu1");
  AddMapOp(g, "bias 1 dW", OpKind::kBiasDW, {"d_lin1_biased"}, {"d_b1"},
           "lin1_biased", "bj");
  AddContraction(g, "linear 1 dX", "ui,ubj->ibj", "w1", "d_lin1_biased",
                 {"d_ln1_ff"});
  AddContraction(g, "linear 1 dW", "ubj,ibj->ui", "d_lin1_biased", "ln1_out",
                 {"d_w1"});
  AddMapOp(g, "residual 2 bwd", OpKind::kResidualBwd,
           {"d_ln1_ff", "d_resid2"}, {"d_ln1_out"}, "resid2");
  AddMapOp(g, "layernorm 1 dW", OpKind::kLayerNormDW,
           {"d_ln1_out", "resid1", "ln1_mean", "ln1_rstd"},
           {"d_ln1_w", "d_ln1_b"}, "resid1", "bj");
  AddMapOp(g, "layernorm 1 dX", OpKind::kLayerNormDX,
           {"d_ln1_out", "ln1_w", "resid1", "ln1_mean", "ln1_rstd"},
           {"d_resid1"}, "resid1", "i");
  AddMapOp(g, "attn dropout dX", OpKind::kDropoutDX,
           {"d_resid1", "attn_drop_mask"}, {"d_attn_biased"}, "resid1");
  AddMapOp(g, "output bias dW", OpKind::kBiasDW, {"d_attn_biased"},
           {"d_b_out"}, "attn_biased", "bj");
  AddContraction(g, "out dX", "whi,ibj->whbj", "w_out", "d_attn_biased",
                 {"d_gamma"});
  AddContraction(g, "out dW", "ibj,whbj->whi", "d_attn_biased", "gamma_t",
                 {"d_w_out"});
  AddContraction(g, "gamma dX1", "whbk,whbj->hbjk", "vv_b", "d_gamma",
                 {"d_alpha"});
  AddContraction(g, "gamma dX2", "whbj,hbjk->whbk", "d_gamma", "alpha",
                 {"d_vv"});
  AddMapOp(g, "scaled softmax dX", OpKind::kScaledSoftmaxDX,
           {"d_alpha", "attn_mask", "softmax_saved"}, {"d_beta"}, "beta",
           "k");
  AddContraction(g, "QKT dX1", "phbj,hbjk->phbk", "qq_b", "d_beta", {"d_kk"});
  AddContraction(g, "QKT dX2", "hbjk,phbk->phbj", "d_beta", "kk_b", {"d_qq"});
  {
    // dX and dW for the stacked projection: one GEMM each (Sec. IV-D).
    OpNode dx;
    dx.name = "Q,K,V dX";
    dx.kind = OpKind::kContraction;
    dx.einsum = "phi,phbj->ibj";
    dx.inputs = {"w_qkv", "d_qq", "d_kk", "d_vv"};
    dx.outputs = {"d_x_qkv"};
    dx.flop = 2.0 * static_cast<double>(p3 * d.h * d.i * d.b * d.j);
    dx.independent_dims = {{'i', d.i}, {'b', d.b}, {'j', d.j}};
    dx.reduction_dims = {{'p', p3}, {'h', d.h}};
    g.AddOp(std::move(dx));

    OpNode dw;
    dw.name = "Q,K,V dW";
    dw.kind = OpKind::kContraction;
    dw.einsum = "phbj,ibj->phi";
    dw.inputs = {"d_qq", "d_kk", "d_vv", "x"};
    dw.outputs = {"d_w_qkv"};
    dw.flop = 2.0 * static_cast<double>(p3 * d.h * d.i * d.b * d.j);
    dw.independent_dims = {{'p', p3}, {'h', d.h}, {'i', d.i}};
    dw.reduction_dims = {{'b', d.b}, {'j', d.j}};
    g.AddOp(std::move(dw));
  }
  {
    // Attention input bias gradient over all three projections (BAIB).
    OpNode op;
    op.name = "input bias dW";
    op.kind = OpKind::kBiasDW;
    op.inputs = {"d_qq", "d_kk", "d_vv"};
    op.outputs = {"d_b_qkv"};
    op.independent_dims = {{'p', p3}, {'h', d.h}};
    op.reduction_dims = {{'b', d.b}, {'j', d.j}};
    op.flop = static_cast<double>(3 * g.tensor("qq").shape.num_elements());
    g.AddOp(std::move(op));
  }
  AddMapOp(g, "encoder input bwd", OpKind::kResidualBwd,
           {"d_x_qkv", "d_resid1"}, {"d_x"}, "x");
  return g;
}

namespace {

/// Maps a per-layer container name into the whole-stack namespace: layer
/// boundaries collapse (layer l's `x` IS layer l-1's `y`, layer l's `d_y`
/// IS layer l+1's `d_x`), everything else gets the "L<l>." prefix.
std::string StackName(int layer, const StackGraphOptions& o,
                      const std::string& name) {
  if (name == "x") {
    return layer == 0 ? std::string("x") : StrFormat("L%d.y", layer - 1);
  }
  if (name == "d_y") {
    return layer == o.num_layers - 1 ? std::string("d_y")
                                     : StrFormat("L%d.d_x", layer + 1);
  }
  return StrFormat("L%d.%s", layer, name.c_str());
}

}  // namespace

DataflowGraph BuildEncoderStack(const ModelDims& d,
                                const StackGraphOptions& o) {
  require(o.num_layers >= 1, "stack graph needs at least one layer");
  for (int l : o.recompute_layers) {
    require(l >= 0 && l < o.num_layers, "recompute layer out of range");
    require(o.include_backward,
            "recompute layers only exist in the backward graph");
  }
  const DataflowGraph layer =
      BuildEncoder(d, AlgebraicFusion::kQKV, o.include_backward);
  // Split the per-layer op list into forward and backward regions.
  const auto bwd_begin = static_cast<std::size_t>(layer.BackwardBegin());
  // Interior forward products of one layer -- what a checkpointed layer
  // recomputes. `y` is a layer boundary: always stored, never cloned into
  // a consumable "@r" version (its clone output is a dead byproduct).
  std::set<std::string> fwd_interior;
  for (std::size_t i = 0; i < bwd_begin; ++i) {
    for (const auto& out : layer.ops()[i].outputs) {
      if (out != "y") fwd_interior.insert(out);
    }
  }
  const std::set<int> recompute(o.recompute_layers.begin(),
                                o.recompute_layers.end());

  DataflowGraph g;
  const Shape ibj("ibj", {d.i, d.b, d.j});
  if (o.vocab > 0) {
    g.AddTensor("token_table", Shape("vi", {o.vocab, d.i}), true);
    g.AddTensor("pos_table", Shape("ji", {d.j, d.i}), true);
    if (o.include_backward) {
      g.AddTensor("d_token_table", Shape("vi", {o.vocab, d.i}), true);
      g.AddTensor("d_pos_table", Shape("ji", {d.j, d.i}), true);
    }
  }
  for (int l = 0; l < o.num_layers; ++l) {
    for (const auto& [name, t] : layer.tensors()) {
      const std::string mapped = StackName(l, o, name);
      if (!g.HasTensor(mapped)) g.AddTensor(mapped, t.shape, t.is_weight);
    }
  }
  if (o.include_loss) {
    g.AddTensor("target", ibj);
    g.AddTensor("loss", Shape("s", {1}));
    if (!g.HasTensor("d_y")) g.AddTensor("d_y", ibj);
  }

  // Clones a per-layer op into the stack. `as_clone` re-emits a forward op
  // as a checkpoint-recompute twin; `in_backward` marks ops of the
  // backward region, whose reads of a checkpointed layer's interior
  // tensors retarget to the recomputed "@r" versions.
  auto add_layer_op = [&](int l, const OpNode& op, bool as_clone,
                          bool in_backward) {
    const bool layer_ckpt = recompute.contains(l);
    OpNode mapped = op;
    mapped.name = StrFormat("L%d.%s%s", l, op.name.c_str(),
                            as_clone ? "@r" : "");
    mapped.inputs.clear();
    for (const auto& in : op.inputs) {
      std::string n = StackName(l, o, in);
      if (fwd_interior.contains(in) &&
          (as_clone || (layer_ckpt && in_backward))) {
        n += "@r";
      }
      mapped.inputs.push_back(std::move(n));
    }
    mapped.outputs.clear();
    for (const auto& out : op.outputs) {
      std::string n = StackName(l, o, out) + (as_clone ? "@r" : "");
      if (as_clone && !g.HasTensor(n)) {
        g.AddTensor(n, layer.tensor(out).shape);
      }
      mapped.outputs.push_back(std::move(n));
    }
    mapped.saved_outputs.clear();
    for (const auto& s : op.saved_outputs) {
      mapped.saved_outputs.push_back(StackName(l, o, s) +
                                     (as_clone ? "@r" : ""));
    }
    if (as_clone) {
      mapped.recompute_of = StrFormat("L%d.%s", l, op.name.c_str());
    }
    g.AddOp(std::move(mapped));
  };

  // ---- Forward: embedding, then every layer bottom-up, then the loss.
  if (o.vocab > 0) {
    OpNode op;
    op.name = "embed";
    op.kind = OpKind::kEmbed;
    op.inputs = {"token_table", "pos_table"};
    op.outputs = {"x"};
    op.independent_dims = {{'i', d.i}, {'b', d.b}, {'j', d.j}};
    op.flop = FlopPerElement(OpKind::kEmbed) *
              static_cast<double>(ibj.num_elements());
    g.AddOp(std::move(op));
  }
  for (int l = 0; l < o.num_layers; ++l) {
    for (std::size_t i = 0; i < bwd_begin; ++i) {
      add_layer_op(l, layer.ops()[i], /*as_clone=*/false,
                   /*in_backward=*/false);
    }
  }
  if (o.include_loss) {
    OpNode op;
    op.name = "loss";
    op.kind = OpKind::kMseLoss;
    op.inputs = {StackName(o.num_layers - 1, o, "y"), "target"};
    op.outputs = {"loss", "d_y"};
    // Reduces over the full space: the scalar loss is a serial
    // accumulation, which also bars fusion across the loss head.
    op.reduction_dims = {{'i', d.i}, {'b', d.b}, {'j', d.j}};
    op.flop = FlopPerElement(OpKind::kMseLoss) *
              static_cast<double>(ibj.num_elements());
    g.AddOp(std::move(op));
  }

  // ---- Backward: layers top-down (each checkpointed layer's recompute
  // clones run directly before its backward ops), then the embedding
  // table gradients.
  if (o.include_backward) {
    for (int l = o.num_layers - 1; l >= 0; --l) {
      if (recompute.contains(l)) {
        for (std::size_t i = 0; i < bwd_begin; ++i) {
          add_layer_op(l, layer.ops()[i], /*as_clone=*/true,
                       /*in_backward=*/false);
        }
      }
      for (std::size_t i = bwd_begin; i < layer.ops().size(); ++i) {
        add_layer_op(l, layer.ops()[i], /*as_clone=*/false,
                     /*in_backward=*/true);
      }
    }
    if (o.vocab > 0) {
      OpNode op;
      op.name = "embed dW";
      op.kind = OpKind::kEmbedDW;
      op.inputs = {StackName(0, o, "d_x")};
      op.outputs = {"d_token_table", "d_pos_table"};
      op.independent_dims = {{'i', d.i}};
      op.reduction_dims = {{'b', d.b}, {'j', d.j}};
      op.flop = FlopPerElement(OpKind::kEmbedDW) *
                static_cast<double>(ibj.num_elements());
      g.AddOp(std::move(op));
    }
  }
  return g;
}

}  // namespace xflow::graph
