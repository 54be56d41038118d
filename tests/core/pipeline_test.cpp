#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/training.hpp"

namespace csm::core {
namespace {

common::Matrix wave_matrix(std::size_t n, std::size_t t, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.05 * static_cast<double>(c) +
                         0.3 * static_cast<double>(r)) +
                0.05 * rng.gaussian();
    }
  }
  return s;
}

CsPipeline make_pipeline(const common::Matrix& s, std::size_t blocks,
                         bool real_only = false) {
  return CsPipeline(train(s), CsOptions{blocks, real_only});
}

TEST(CsPipeline, BlocksResolution) {
  const common::Matrix s = wave_matrix(8, 100, 1);
  EXPECT_EQ(make_pipeline(s, 4).blocks(), 4u);
  EXPECT_EQ(make_pipeline(s, 0).blocks(), 8u);  // CS-All.
}

TEST(CsPipeline, TransformProducesOneSignaturePerWindow) {
  const common::Matrix s = wave_matrix(6, 100, 2);
  const CsPipeline p = make_pipeline(s, 3);
  const auto sigs = p.transform(s, data::WindowSpec{20, 10});
  EXPECT_EQ(sigs.size(), 9u);
  for (const Signature& sig : sigs) EXPECT_EQ(sig.length(), 3u);
}

TEST(CsPipeline, SignatureValuesInUnitIntervalForTrainingData) {
  // Real parts average normalised values, so they stay in [0, 1] when the
  // pipeline transforms its own training data.
  const common::Matrix s = wave_matrix(6, 200, 3);
  const CsPipeline p = make_pipeline(s, 3);
  for (const Signature& sig : p.transform(s, data::WindowSpec{20, 20})) {
    for (double v : sig.real()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    for (double v : sig.imag()) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(CsPipeline, TransformWindowMatchesCompression) {
  // A single-window transform must equal the full-matrix transform of that
  // window except for derivative seeding at the boundary, so compare via a
  // window starting at column 0 (both see derivative 0 there).
  const common::Matrix s = wave_matrix(5, 60, 4);
  const CsPipeline p = make_pipeline(s, 5);
  const common::Matrix window = s.sub_cols(0, 30);
  const Signature direct = p.transform_window(window);
  const auto streamed = p.transform(s, data::WindowSpec{30, 60});
  ASSERT_FALSE(streamed.empty());
  for (std::size_t i = 0; i < direct.length(); ++i) {
    EXPECT_NEAR(direct.real()[i], streamed[0].real()[i], 1e-12);
    EXPECT_NEAR(direct.imag()[i], streamed[0].imag()[i], 1e-12);
  }
}

TEST(CsPipeline, CompressionRatioHonored) {
  // l << n * wl: the defining property of a signature method.
  const common::Matrix s = wave_matrix(40, 300, 5);
  const CsPipeline p = make_pipeline(s, 10);
  const auto sigs = p.transform(s, data::WindowSpec{50, 50});
  ASSERT_FALSE(sigs.empty());
  const std::size_t flat = sigs[0].flatten().size();
  EXPECT_EQ(flat, 20u);
  EXPECT_LT(flat, 40u * 50u / 10u);
}

TEST(SignatureHeatmaps, ShapeAndContent) {
  std::vector<Signature> sigs{Signature({1.0, 2.0}, {3.0, 4.0}),
                              Signature({5.0, 6.0}, {7.0, 8.0})};
  const auto [re, im] = signature_heatmaps(sigs);
  EXPECT_EQ(re.rows(), 2u);
  EXPECT_EQ(re.cols(), 2u);
  EXPECT_DOUBLE_EQ(re(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(re(1, 1), 6.0);
  EXPECT_DOUBLE_EQ(im(0, 1), 7.0);
}

TEST(SignatureHeatmaps, Validation) {
  EXPECT_THROW(signature_heatmaps({}), std::invalid_argument);
  std::vector<Signature> ragged{Signature(2), Signature(3)};
  EXPECT_THROW(signature_heatmaps(ragged), std::invalid_argument);
}

TEST(CsSignatureMethod, NameReflectsOptions) {
  const common::Matrix s = wave_matrix(6, 80, 6);
  auto p20 = std::make_shared<const CsPipeline>(train(s), CsOptions{20, false});
  auto pall = std::make_shared<const CsPipeline>(train(s), CsOptions{0, true});
  EXPECT_EQ(CsSignatureMethod(p20).name(), "CS-20");
  EXPECT_EQ(CsSignatureMethod(pall).name(), "CS-All-R");
  EXPECT_EQ(CsSignatureMethod(p20, "custom").name(), "custom");
}

TEST(CsSignatureMethod, SignatureLengthContract) {
  const common::Matrix s = wave_matrix(6, 80, 7);
  auto p = std::make_shared<const CsPipeline>(train(s), CsOptions{4, false});
  const CsSignatureMethod method(p);
  EXPECT_EQ(method.signature_length(6), 8u);  // 2 channels x 4 blocks.
  const auto features = method.compute(s.sub_cols(0, 20));
  EXPECT_EQ(features.size(), 8u);
}

TEST(CsSignatureMethod, RealOnlyHalvesLength) {
  const common::Matrix s = wave_matrix(6, 80, 8);
  auto p = std::make_shared<const CsPipeline>(train(s), CsOptions{4, true});
  const CsSignatureMethod method(p);
  EXPECT_EQ(method.signature_length(6), 4u);
  EXPECT_EQ(method.compute(s.sub_cols(0, 20)).size(), 4u);
}

TEST(CsSignatureMethod, NullPipelineThrows) {
  EXPECT_THROW(CsSignatureMethod(nullptr), std::invalid_argument);
}

TEST(CsSignatureMethod, UntrainedPrototypeFitsToTrainedMethod) {
  const CsSignatureMethod prototype(CsOptions{4, false});
  EXPECT_EQ(prototype.name(), "CS-4");
  EXPECT_FALSE(prototype.trained());
  EXPECT_EQ(prototype.n_sensors(), 0u);
  EXPECT_EQ(prototype.signature_length(6), 8u);

  const common::Matrix s = wave_matrix(6, 80, 9);
  EXPECT_THROW((void)prototype.compute(s.sub_cols(0, 20)), std::logic_error);

  const auto trained = prototype.fit(s);
  EXPECT_TRUE(trained->trained());
  EXPECT_EQ(trained->n_sensors(), 6u);
  // fit() must match training a pipeline by hand.
  const CsSignatureMethod reference(
      std::make_shared<const CsPipeline>(train(s), CsOptions{4, false}));
  EXPECT_EQ(trained->compute(s.sub_cols(0, 20)),
            reference.compute(s.sub_cols(0, 20)));
}

TEST(CsSignatureMethod, ComputeStreamingSeedsTheDerivativeChannel) {
  const common::Matrix s = wave_matrix(5, 60, 10);
  auto p = std::make_shared<const CsPipeline>(train(s), CsOptions{3, false});
  const CsSignatureMethod method(p);
  const common::Matrix window = s.sub_cols(10, 20);
  const std::vector<double> seed_col = s.col(9);
  const std::span<const double> seed(seed_col);

  // Without a seed, streaming compute is plain compute.
  EXPECT_EQ(method.compute_streaming(window, nullptr), method.compute(window));
  // With a seed the derivative channel changes but the real channel (the
  // first 3 features) is untouched.
  const auto seeded = method.compute_streaming(window, &seed);
  const auto unseeded = method.compute(window);
  ASSERT_EQ(seeded.size(), unseeded.size());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(seeded[i], unseeded[i]) << "real block " << i;
  }
  EXPECT_NE(seeded, unseeded);
}

}  // namespace
}  // namespace csm::core
