#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "harness/heatmap.hpp"
#include "harness/summary.hpp"
#include "hpcoda/generator.hpp"
#include "ml/metrics.hpp"

namespace csm::harness {
namespace {

hpcoda::GeneratorConfig tiny() {
  hpcoda::GeneratorConfig cfg;
  cfg.scale = 0.3;
  return cfg;
}

TEST(Heatmap, AsciiHasRequestedShape) {
  common::Matrix m(10, 40);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 40; ++c) {
      m(r, c) = static_cast<double>(r + c);
    }
  }
  const std::string art = ascii_heatmap(m, 5, 20);
  std::size_t lines = 0, line_len = 0;
  for (std::size_t i = 0; i < art.size(); ++i) {
    if (art[i] == '\n') {
      ++lines;
    } else if (lines == 0) {
      ++line_len;
    }
  }
  EXPECT_EQ(lines, 5u);
  EXPECT_EQ(line_len, 20u);
}

TEST(Heatmap, AsciiEmptyThrows) {
  EXPECT_THROW(ascii_heatmap(common::Matrix()), std::invalid_argument);
}

TEST(Heatmap, PgmRoundTripHeader) {
  common::Matrix m{{0.0, 1.0}, {1.0, 0.0}};
  const auto file =
      std::filesystem::temp_directory_path() / "csm_heatmap_test.pgm";
  write_pgm(file, m);
  std::ifstream in(file, std::ios::binary);
  std::string magic;
  std::size_t w = 0, h = 0, maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 2u);
  EXPECT_EQ(h, 2u);
  EXPECT_EQ(maxval, 255u);
  in.get();  // Consume the single whitespace after the header.
  char pixels[4];
  in.read(pixels, 4);
  EXPECT_TRUE(in.good());
  // Dark = high: the 1.0 cells must be darker (smaller) than the 0.0 cells.
  EXPECT_LT(static_cast<unsigned char>(pixels[1]),
            static_cast<unsigned char>(pixels[0]));
  std::filesystem::remove(file);
}

TEST(Methods, StandardLineUpMatchesFig3) {
  const auto methods = standard_methods();
  ASSERT_EQ(methods.size(), 8u);
  EXPECT_EQ(methods[0].name, "Tuncer");
  EXPECT_EQ(methods[1].name, "Bodik");
  EXPECT_EQ(methods[2].name, "Lan");
  EXPECT_EQ(methods[3].name, "CS-5");
  EXPECT_EQ(methods[7].name, "CS-All");
}

TEST(Methods, RealOnlyVariantNames) {
  const auto methods = cs_methods(/*real_only=*/true);
  ASSERT_EQ(methods.size(), 5u);
  EXPECT_EQ(methods[0].name, "CS-5-R");
  EXPECT_EQ(methods[4].name, "CS-All-R");
}

TEST(Methods, MethodFromSpecFitsEachBlockItIsGiven) {
  // The returned name is the configured prototype's; `make` fits a fresh
  // method on whichever block it is handed.
  const BlockMethod pca = method_from_spec("pca:components=3");
  EXPECT_EQ(pca.name, "PCA-3");
  const hpcoda::Segment seg = hpcoda::make_infrastructure_segment(tiny());
  ASSERT_GE(seg.blocks.size(), 2u);
  for (const hpcoda::ComponentBlock& block : seg.blocks) {
    const std::unique_ptr<core::SignatureMethod> fitted = pca.make(block);
    ASSERT_NE(fitted, nullptr);
    EXPECT_TRUE(fitted->trained());
    EXPECT_EQ(fitted->n_sensors(), block.sensors.rows());
    EXPECT_EQ(fitted->compute(block.sensors.sub_cols(0, seg.window.length))
                  .size(),
              fitted->signature_length(block.sensors.rows()));
  }
  EXPECT_EQ(method_from_spec("cs:blocks=20,real-only").name, "CS-20-R");
}

TEST(Methods, MethodFromSpecRejectsBadSpecsBeforeAnyFit) {
  EXPECT_THROW(method_from_spec("nope"), std::invalid_argument);
  EXPECT_THROW(method_from_spec("cs:blocks=x"), std::invalid_argument);
  EXPECT_THROW(method_from_spec("pca:blocks=3"), std::invalid_argument);
  EXPECT_THROW(method_from_spec("lan:wr=0"), std::invalid_argument);
}

TEST(StackBlocks, ConcatenatesBlockRowsInOrder) {
  const hpcoda::Segment seg = hpcoda::make_infrastructure_segment(tiny());
  const common::Matrix all = stack_blocks(seg);
  EXPECT_EQ(all.cols(), seg.length());
  std::size_t row = 0;
  for (const hpcoda::ComponentBlock& block : seg.blocks) {
    for (std::size_t r = 0; r < block.sensors.rows(); ++r, ++row) {
      ASSERT_LT(row, all.rows());
      EXPECT_TRUE(std::equal(block.sensors.row(r).begin(),
                             block.sensors.row(r).end(),
                             all.row(row).begin()))
          << block.name << " row " << r;
    }
  }
  EXPECT_EQ(all.rows(), row);
}

TEST(ModelFactories, MlpFactoriesAreSeeded) {
  // Two classes split on the first feature. Two classifiers from the same
  // factories train identically; the regressor factory builds too.
  common::Rng rng(3);
  common::Matrix x(40, 3);
  std::vector<int> y(40);
  std::vector<double> target(40);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.gaussian();
    y[i] = x(i, 0) > 0.0 ? 1 : 0;
    target[i] = 2.0 * x(i, 1);
  }
  const ml::ModelFactories factories = mlp_factories(11);
  const std::unique_ptr<ml::Classifier> a = factories.classifier();
  const std::unique_ptr<ml::Classifier> b = factories.classifier();
  a->fit(x, y);
  b->fit(x, y);
  const std::vector<int> pred = a->predict(x);
  EXPECT_EQ(pred, b->predict(x));
  EXPECT_GT(ml::macro_f1(y, pred), 0.8);
  const std::unique_ptr<ml::Regressor> reg = factories.regressor();
  ASSERT_NE(reg, nullptr);
  reg->fit(x, target);
  EXPECT_EQ(reg->predict(x).size(), 40u);
}

TEST(BuildDataset, ClassificationShapeAndLabels) {
  const hpcoda::Segment seg = hpcoda::make_fault_segment(tiny());
  const auto methods = standard_methods();
  const data::Dataset ds = build_dataset(seg, methods[2]);  // Lan: fast.
  EXPECT_EQ(ds.kind(), data::TaskKind::kClassification);
  EXPECT_EQ(ds.size(), seg.feature_set_count());
  EXPECT_EQ(ds.feature_length(), 128u * 10u);  // Lan wr=10.
  EXPECT_EQ(ds.n_classes(), 9u);
}

TEST(BuildDataset, CsSignatureSizesMatchFig3b) {
  const hpcoda::Segment seg = hpcoda::make_power_segment(tiny());
  const data::Dataset cs5 = build_dataset(seg, make_cs_method(5));
  EXPECT_EQ(cs5.feature_length(), 10u);  // 2 channels x 5 blocks.
  const data::Dataset cs_all = build_dataset(seg, make_cs_method(0));
  EXPECT_EQ(cs_all.feature_length(), 2u * 47u);
}

TEST(BuildDataset, RegressionTargetsLookAhead) {
  const hpcoda::Segment seg = hpcoda::make_power_segment(tiny());
  const data::Dataset ds = build_dataset(seg, make_cs_method(5));
  EXPECT_EQ(ds.kind(), data::TaskKind::kRegression);
  ASSERT_EQ(ds.targets.size(), ds.size());
  // First window covers columns [0, 10); its target is the mean of the
  // power row over columns [10, 13).
  const auto& block = seg.blocks.front();
  const double expected =
      (block.target[10] + block.target[11] + block.target[12]) / 3.0;
  EXPECT_DOUBLE_EQ(ds.targets[0], expected);
}

TEST(EvaluateMethod, ProducesSaneMetrics) {
  const hpcoda::Segment seg = hpcoda::make_power_segment(tiny());
  const MethodEvaluation eval = evaluate_method(
      seg, make_cs_method(10), random_forest_factories(), 5, 1);
  EXPECT_EQ(eval.segment, "Power");
  EXPECT_EQ(eval.method, "CS-10");
  EXPECT_EQ(eval.signature_size, 20u);
  EXPECT_GT(eval.n_samples, 0u);
  EXPECT_GT(eval.generation_seconds, 0.0);
  EXPECT_GT(eval.cv_seconds, 0.0);
  EXPECT_GT(eval.ml_score, 0.5);
  EXPECT_LE(eval.ml_score, 1.0);
}

TEST(CsJsDivergence, InUnitIntervalAndMonotonicTrend) {
  const hpcoda::Segment seg = hpcoda::make_power_segment(tiny());
  const double js5 = cs_js_divergence(seg, 5);
  const double js_all = cs_js_divergence(seg, 0);
  EXPECT_GE(js5, 0.0);
  EXPECT_LE(js5, 1.0);
  EXPECT_GE(js_all, 0.0);
  // More blocks -> better fidelity -> lower divergence.
  EXPECT_LT(js_all, js5);
}

TEST(CsJsDivergence, RealOnlyLosesInformation) {
  const hpcoda::Segment seg = hpcoda::make_power_segment(tiny());
  EXPECT_GT(cs_js_divergence(seg, 20, /*real_only=*/true),
            cs_js_divergence(seg, 20, /*real_only=*/false));
}

TEST(Summary, MatchesSegmentStructure) {
  const hpcoda::Segment seg = hpcoda::make_infrastructure_segment(tiny());
  const SegmentSummary s = summarize(seg);
  EXPECT_EQ(s.name, "Infrastructure");
  EXPECT_EQ(s.nodes, 4u);
  EXPECT_EQ(s.sensors, 31u);
  EXPECT_EQ(s.data_points, seg.data_points());
  EXPECT_EQ(s.feature_sets, seg.feature_set_count());
  EXPECT_DOUBLE_EQ(s.sampling_interval_s, 10.0);
  EXPECT_EQ(s.wl, 30u);
  EXPECT_EQ(s.ws, 6u);
  EXPECT_FALSE(format_summary(s).empty());
}

}  // namespace
}  // namespace csm::harness
