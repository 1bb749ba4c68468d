#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "transformer/arena.hpp"
#include "transformer/checkpoint.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

namespace xflow::transformer {
namespace {

EncoderConfig StackConfig() {
  EncoderConfig cfg;
  cfg.dims = graph::ModelDims::Tiny();
  cfg.dropout_prob = 0.0f;
  return cfg;
}

TEST(EncoderStack, ForwardChainsLayers) {
  EncoderStack stack(StackConfig(), 3, 1);
  auto dims = StackConfig().dims;
  auto x = TensorH::Random(Shape("ibj", {dims.i, dims.b, dims.j}), 2);
  std::vector<EncoderActivations> acts;
  const auto& y = stack.Forward(x, acts);
  ASSERT_EQ(acts.size(), 3u);
  // Each layer's input is the previous layer's output.
  EXPECT_EQ(MaxAbsDiff(acts[1].x, acts[0].y), 0.0);
  EXPECT_EQ(MaxAbsDiff(acts[2].x, acts[1].y), 0.0);
  EXPECT_EQ(MaxAbsDiff(y, acts[2].y), 0.0);
}

TEST(EncoderStack, StackOfOneEqualsSingleLayer) {
  auto cfg = StackConfig();
  EncoderStack stack(cfg, 1, 7);
  auto dims = cfg.dims;
  auto x = TensorH::Random(Shape("ibj", {dims.i, dims.b, dims.j}), 3);
  std::vector<EncoderActivations> acts;
  stack.Forward(x, acts);

  cfg.seed = cfg.seed;  // layer 0 uses the same seed
  EncoderLayer single(cfg, EncoderParams::Init(dims, 7));
  EncoderActivations single_acts;
  single.Forward(x, single_acts);
  EXPECT_EQ(MaxAbsDiff(acts[0].y, single_acts.y), 0.0);
}

TEST(EncoderStack, BackwardReturnsInputGradient) {
  EncoderStack stack(StackConfig(), 2, 11);
  auto dims = StackConfig().dims;
  auto x = TensorH::Random(Shape("ibj", {dims.i, dims.b, dims.j}), 5);
  std::vector<EncoderActivations> acts;
  stack.Forward(x, acts);
  auto d_y = TensorH::Random(acts.back().y.shape(), 6);
  std::vector<EncoderGradients> grads;
  auto d_x = stack.Backward(d_y, acts, grads);
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_EQ(d_x.shape().names(), "ibj");
  EXPECT_EQ(MaxAbsDiff(d_x, grads[0].d_x), 0.0);
  // Layer 1's input gradient feeds layer 0's backward.
  EXPECT_GT(MaxAbsDiff(grads[1].d_x, d_y), 0.0);
}

TEST(EncoderStack, NamedParamsArePrefixedAndComplete) {
  EncoderStack stack(StackConfig(), 2, 13);
  const auto named = stack.NamedParams();
  EXPECT_EQ(named.size(), 2u * 12u);  // 12 parameters per layer
  EXPECT_EQ(named.front().first, "layer0.w_qkv");
  EXPECT_EQ(named.back().first, "layer1.ln2_b");
}

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }
  // One file per process: ctest runs this suite at three thread counts
  // concurrently.
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("xflow_ckpt_test_" + std::to_string(::getpid()) +
                        ".bin"))
                          .string();
};

TEST_F(CheckpointTest, RoundTripsBitExactly) {
  auto a = TensorH::Random(Shape("phi", {4, 2, 8}), 1);
  auto b = TensorH::Random(Shape("i", {8}), 2);
  SaveCheckpoint(path_, {{"a", &a}, {"b", &b}});

  TensorH a2(Shape("phi", {4, 2, 8})), b2(Shape("i", {8}));
  LoadCheckpoint(path_, {{"a", &a2}, {"b", &b2}});
  for (std::int64_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a.data()[e].bits(), a2.data()[e].bits());
  }
  EXPECT_EQ(MaxAbsDiff(b, b2), 0.0);
}

TEST_F(CheckpointTest, LoadIsOrderInsensitive) {
  auto a = TensorH::Random(Shape("x", {4}), 3);
  auto b = TensorH::Random(Shape("y", {5}), 4);
  SaveCheckpoint(path_, {{"a", &a}, {"b", &b}});
  TensorH a2(Shape("x", {4})), b2(Shape("y", {5}));
  LoadCheckpoint(path_, {{"b", &b2}, {"a", &a2}});  // reversed order
  EXPECT_EQ(MaxAbsDiff(a, a2), 0.0);
  EXPECT_EQ(MaxAbsDiff(b, b2), 0.0);
}

TEST_F(CheckpointTest, MissingTensorAndShapeMismatchThrow) {
  auto a = TensorH::Random(Shape("x", {4}), 5);
  SaveCheckpoint(path_, {{"a", &a}});
  TensorH wrong_shape(Shape("x", {5}));
  EXPECT_THROW(LoadCheckpoint(path_, {{"a", &wrong_shape}}),
               InvalidArgument);
  TensorH missing(Shape("x", {4}));
  EXPECT_THROW(LoadCheckpoint(path_, {{"nope", &missing}}),
               InvalidArgument);
}

TEST_F(CheckpointTest, RejectsGarbageFiles) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  TensorH t(Shape("x", {4}));
  EXPECT_THROW(LoadCheckpoint(path_, {{"a", &t}}), InvalidArgument);
}

/// A hand-assembled checkpoint: `magic`, `version`, then one tensor "w"
/// with `dims` stored as given and `payload` zero bytes after them.
void WriteRawCheckpoint(
    const std::string& path, const std::string& magic, std::uint32_t version,
    const std::vector<std::pair<char, std::uint64_t>>& dims,
    std::size_t payload) {
  std::ofstream os(path, std::ios::binary);
  auto put = [&](const auto& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  os.write(magic.data(), 4);
  put(version);
  put(std::uint32_t{1});  // tensor count
  put(std::uint32_t{1});  // name length
  os.put('w');
  put(static_cast<std::uint32_t>(dims.size()));
  for (const auto& [name, extent] : dims) {
    os.put(name);
    put(extent);
  }
  const std::string zeros(payload, '\0');
  os.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
}

TEST_F(CheckpointTest, RejectsCorruptFilesByName) {
  // A stored extent sizes an allocation, so a corrupt one must fail by
  // name before anything is allocated -- not as bad_alloc, a silently
  // wrapped element count, or a gigabyte zero fill.
  struct Case {
    const char* what;
    std::string magic;
    std::uint32_t version;
    std::vector<std::pair<char, std::uint64_t>> dims;
    std::size_t payload;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"extent 2^40 in a 40-byte file", "XFLW", 1, {{'x', 1ull << 40}}, 10,
       "tensor 'w' has extents [x:1099511627776]"},
      {"extents whose product overflows int64", "XFLW", 1,
       {{'x', 1ull << 32}, {'y', 1ull << 32}}, 8,
       "tensor 'w' has extents [x:4294967296,y:4294967296]"},
      {"short payload", "XFLW", 1, {{'x', 4}}, 6,
       "tensor 'w' has extents [x:4]"},
      {"bad magic", "XFLX", 1, {{'x', 4}}, 8, "bad magic"},
      {"bad version", "XFLW", 2, {{'x', 4}}, 8,
       "unsupported checkpoint version"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    WriteRawCheckpoint(path_, c.magic, c.version, c.dims, c.payload);
    TensorH t(Shape("x", {4}));
    for (const auto& read : std::vector<std::function<void()>>{
             [&] { LoadCheckpoint(path_, {{"w", &t}}); },
             [&] { InspectCheckpoint(path_); }}) {
      try {
        read();
        ADD_FAILURE() << "corrupt checkpoint was accepted";
      } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
            << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "not an InvalidArgument: " << e.what();
      }
    }
  }
}

TEST_F(CheckpointTest, EverySingleBitFlipLoadsOrFailsByName) {
  // Any one flipped bit of a valid file -- magic, version, count, name,
  // rank, dim names, extents or payload -- must either load or throw
  // InvalidArgument; never crash, over-read or throw anything else.
  auto a = TensorH::Random(Shape("ij", {3, 4}), 9);
  auto b = TensorH::Random(Shape("jk", {3, 3}), 10);
  SaveCheckpoint(path_, {{"a", &a}, {"b", &b}});
  std::string bytes;
  {
    std::ifstream is(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_EQ(bytes.size(), 108u);
  int loaded = 0;
  int rejected = 0;
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    {
      std::ofstream os(path_, std::ios::binary | std::ios::trunc);
      os.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    TensorH a2(a.shape()), b2(b.shape());
    for (const auto& read : std::vector<std::function<void()>>{
             [&] { InspectCheckpoint(path_); },
             [&] { LoadCheckpoint(path_, {{"a", &a2}, {"b", &b2}}); }}) {
      try {
        read();
        ++loaded;
      } catch (const InvalidArgument&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "bit " << bit << ": not an InvalidArgument: "
                      << e.what();
      }
    }
  }
  EXPECT_EQ(loaded + rejected, 2 * 8 * static_cast<int>(bytes.size()));
  EXPECT_GT(loaded, 0);    // payload flips are legal values
  EXPECT_GT(rejected, 0);  // header flips are not
}

TEST_F(CheckpointTest, InspectListsContents) {
  auto a = TensorH::Random(Shape("phi", {4, 2, 8}), 6);
  SaveCheckpoint(path_, {{"weights", &a}});
  const auto listing = InspectCheckpoint(path_);
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0].first, "weights");
  EXPECT_EQ(listing[0].second.names(), "phi");
  EXPECT_EQ(listing[0].second.extent('i'), 8);
}

TEST_F(CheckpointTest, FullStackRoundTrip) {
  EncoderStack stack(StackConfig(), 2, 17);
  std::vector<std::pair<std::string, const TensorH*>> to_save;
  for (auto& [name, t] : stack.NamedParams()) to_save.emplace_back(name, t);
  SaveCheckpoint(path_, to_save);

  EncoderStack restored(StackConfig(), 2, 99);  // different init
  LoadCheckpoint(path_, restored.NamedParams());

  auto dims = StackConfig().dims;
  auto x = TensorH::Random(Shape("ibj", {dims.i, dims.b, dims.j}), 18);
  std::vector<EncoderActivations> a1, a2;
  stack.Forward(x, a1);
  restored.Forward(x, a2);
  EXPECT_EQ(MaxAbsDiff(a1.back().y, a2.back().y), 0.0);
}

// ---- Checkpoint-aware whole-stack training -------------------------------

/// Four mixed-precision Adam steps through the whole-stack executor over
/// `arena`; returns the final fp16 weights, flattened in layer/param
/// order. Fixed seeds everywhere, so two arenas that plan the same math
/// (stored vs recomputed activations) must land on identical weights.
std::vector<TensorH> TrainedParams(const EncoderConfig& cfg, int layers,
                                   StackArenaT<Half>& arena) {
  EncoderStack stack(cfg, layers, 91);
  const auto& d = cfg.dims;
  const Shape ibj("ibj", {d.i, d.b, d.j});
  const auto x = TensorH::Random(ibj, 13);
  const auto target = TensorH::Random(ibj, 14);
  std::vector<std::map<std::string, TensorF>> masters(
      static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    for (auto& [name, t] : stack.layer(l).params().Named()) {
      masters[static_cast<std::size_t>(l)].emplace(name, t->Cast<float>());
    }
  }
  MixedPrecisionAdam opt({.lr = 5e-3f});
  TensorH d_y(ibj);
  std::vector<EncoderGradients> grads;
  for (int step = 0; step < 4; ++step) {
    const auto& y = stack.Forward(x, arena);
    MseLoss(y, target, d_y);
    stack.Backward(d_y, arena, grads);
    for (int l = 0; l < layers; ++l) {
      const auto lu = static_cast<std::size_t>(l);
      auto named_params = stack.layer(l).params().Named();
      auto named_grads = grads[lu].params.Named();
      for (std::size_t p = 0; p < named_params.size(); ++p) {
        opt.Step(StrFormat("L%d.%s", l, named_params[p].first.c_str()),
                 masters[lu].at(named_params[p].first),
                 *named_params[p].second, *named_grads[p].second);
      }
    }
  }
  std::vector<TensorH> out;
  for (int l = 0; l < layers; ++l) {
    for (auto& [name, t] : stack.layer(l).params().Named()) {
      out.push_back(*t);
    }
  }
  return out;
}

TEST(StackCheckpoint, RecomputeTrainsBitwiseIdenticalToStore) {
  // Recompute-in-backward vs store-until-backward is a pure memory
  // tradeoff: over forward + backward + four Adam steps the weights must
  // stay bitwise equal, at every thread count (the recompute clones reuse
  // the originals' dropout seeds and the plan keeps every still-needed
  // tensor apart).
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool::SetGlobalThreads(threads);
    EncoderConfig cfg = StackConfig();
    cfg.dropout_prob = 0.1f;
    cfg.use_fused_kernels = true;
    auto stored = MakeStackArena<Half>(cfg, {.num_layers = 3});
    const auto want = TrainedParams(cfg, 3, stored);
    auto recomputed = MakeStackArena<Half>(
        cfg, {.num_layers = 3, .recompute_layers = {0, 1}});
    const auto got = TrainedParams(cfg, 3, recomputed);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(MaxAbsDiff(got[i], want[i]), 0.0) << "param " << i;
    }
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
  }
}

TEST(StackCheckpoint, ShrinkingBudgetNeverRaisesPlannedPeak) {
  // The budget knob is monotone: asking for less memory never produces a
  // plan that needs more. Every layer has the same shape, so the planner
  // recomputes a prefix of the layers, and at an impossible budget it
  // commits to recomputing some.
  const auto dims = graph::ModelDims::Tiny();
  const graph::StackGraphOptions base{.num_layers = 4};
  const auto options_for = [](const graph::DataflowGraph& g) {
    return StackPlanOptions<Half>(g);
  };
  const auto stack_graph = graph::BuildEncoderStack(dims, base);
  const auto full = graph::PlanMemory(stack_graph, options_for(stack_graph));
  const std::size_t full_peak = full.PeakBytes();
  std::size_t prev = std::numeric_limits<std::size_t>::max();
  for (const std::size_t budget :
       std::vector<std::size_t>{full_peak, full_peak * 3 / 4, full_peak / 2,
                                full_peak / 4, 1}) {
    const auto ckpt =
        graph::PlanCheckpointedStack(dims, base, options_for, budget);
    EXPECT_LE(ckpt.plan.PeakBytes(), prev) << "budget " << budget;
    EXPECT_LE(ckpt.plan.PeakBytes(), full_peak) << "budget " << budget;
    prev = ckpt.plan.PeakBytes();
    std::vector<int> prefix(ckpt.recompute_layers.size());
    std::iota(prefix.begin(), prefix.end(), 0);
    EXPECT_EQ(ckpt.recompute_layers, prefix) << "budget " << budget;
  }
  const auto maximal = graph::PlanCheckpointedStack(dims, base, options_for, 1);
  EXPECT_FALSE(maximal.recompute_layers.empty());
}

}  // namespace
}  // namespace xflow::transformer
