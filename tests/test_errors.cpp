// Failure injection: malformed inputs must be rejected loudly, with the
// library's exception types, never with silent corruption.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "graph/builder.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"
#include "tensor/einsum.hpp"
#include "transformer/encoder.hpp"
#include "transformer/mha.hpp"

namespace xflow {
namespace {

TEST(Errors, EinsumMismatchedContractionExtents) {
  auto a = TensorF::Random(Shape("mk", {4, 8}), 1);
  auto b = TensorF::Random(Shape("kn", {9, 4}), 2);  // k: 8 vs 9
  EXPECT_THROW(Einsum<float>("mk,kn->mn", a, b), InvalidArgument);
}

TEST(Errors, EinsumMismatchedBatchExtents) {
  auto a = TensorF::Random(Shape("bmk", {2, 4, 8}), 1);
  auto b = TensorF::Random(Shape("bkn", {3, 8, 4}), 2);  // b: 2 vs 3
  EXPECT_THROW(Einsum<float>("bmk,bkn->bmn", a, b), InvalidArgument);
}

TEST(Errors, EinsumIntoWrongRankOutput) {
  auto a = TensorF::Random(Shape("mk", {4, 8}), 1);
  auto b = TensorF::Random(Shape("kn", {8, 4}), 2);
  TensorF bad(Shape("mnx", {4, 4, 2}));
  EXPECT_THROW(
      EinsumInto<float>(EinsumSpec::Parse("mk,kn->mn"), a, b, bad, 1, 0),
      InvalidArgument);
}

TEST(Errors, SoftmaxOverMissingDim) {
  auto x = TensorF::Random(Shape("ab", {4, 4}), 1);
  TensorF y(x.shape());
  EXPECT_THROW(ops::SoftmaxForward(x, 'z', y), InvalidArgument);
}

TEST(Errors, CausalSoftmaxNeedsQueryDim) {
  auto x = TensorF::Random(Shape("hbjk", {2, 2, 4, 4}), 1);
  TensorF a(x.shape()), m(x.shape()), s(x.shape());
  EXPECT_THROW(
      ops::CausalScaledSoftmaxForward(x, 'k', 'z', 1.0f, DropoutMask(1, 0.0f),
                                      a, m, s),
      InvalidArgument);
}

TEST(Errors, LayerNormDwRequiresOneDimensionalGradients) {
  auto dy = TensorF::Random(Shape("bi", {2, 8}), 1);
  auto x = TensorF::Random(Shape("bi", {2, 8}), 2);
  TensorF mean(Shape("b", {2})), rstd(Shape("b", {2}));
  TensorF bad_dgamma(Shape("bi", {2, 8})), dbeta(Shape("i", {8}));
  EXPECT_THROW(ops::LayerNormBackwardDW(dy, x, mean, rstd, 'i', bad_dgamma,
                                        dbeta),
               InvalidArgument);
}

TEST(Errors, SliceOutOfRange) {
  auto t = TensorF::Random(Shape("pi", {8, 4}), 1);
  EXPECT_THROW(t.SliceDim('p', 6, 4), InvalidArgument);
  EXPECT_THROW(t.SliceDim('p', -1, 2), InvalidArgument);
  EXPECT_THROW(t.SliceDim('p', 0, 0), InvalidArgument);
}

TEST(Errors, PermutedRequiresFullPermutation) {
  auto t = TensorF::Random(Shape("abc", {2, 3, 4}), 1);
  EXPECT_THROW(t.Permuted("ab"), InvalidArgument);     // missing dim
  EXPECT_THROW(t.Permuted("abz"), InvalidArgument);    // unknown dim
}

TEST(Errors, BackwardGraphRequiresQkvFusion) {
  EXPECT_THROW(BuildEncoder(graph::ModelDims::Tiny(),
                            graph::AlgebraicFusion::kNone, true),
               InvalidArgument);
}

TEST(Errors, ViewBindRejectsOversizedRank) {
  // Kernels are documented for rank <= 4; a rank-5 tensor must be refused.
  Shape big("abcde", {2, 2, 2, 2, 2});
  auto x = TensorF::Random(big, 1);
  TensorF y(big);
  EXPECT_THROW(ops::SoftmaxForward(x, 'e', y), InvalidArgument);
}

TEST(Errors, LayersRejectDropoutProbabilityOutsideTheUnitInterval) {
  // At p = -0.5 every element would be kept and scaled by 1/1.5, at NaN
  // every element dropped: both must fail at construction, naming p.
  const auto dims = graph::ModelDims::Tiny();
  for (const float p : {-0.5f, 1.5f, std::nanf("")}) {
    const std::string value = std::isnan(p) ? "nan" : (p < 0 ? "-0.5" : "1.5");
    transformer::EncoderConfig enc;
    enc.dims = dims;
    enc.dropout_prob = p;
    try {
      transformer::EncoderLayer layer(
          enc, transformer::EncoderParams::Init(dims, 1));
      ADD_FAILURE() << "encoder accepted dropout probability " << p;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
          << e.what();
    }
    transformer::MhaConfig mha;
    mha.dims = dims;
    mha.dropout_prob = p;
    try {
      transformer::MhaLayer layer(mha, transformer::MhaParams::Init(dims, 1));
      ADD_FAILURE() << "attention accepted dropout probability " << p;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
          << e.what();
    }
  }
}

TEST(Errors, MessagesCarrySourceLocation) {
  try {
    require(false, "synthetic failure");
    FAIL();
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_errors.cpp"), std::string::npos);
    EXPECT_NE(what.find("synthetic failure"), std::string::npos);
  }
}

}  // namespace
}  // namespace xflow
