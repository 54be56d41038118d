// Cross-module integration tests: raw CSV sensors -> alignment -> CS
// pipeline -> ML, plus the paper's headline claims at small scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/training.hpp"
#include "data/alignment.hpp"
#include "data/csv.hpp"
#include "harness/experiment.hpp"
#include "hpcoda/generator.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace csm {
namespace {

hpcoda::GeneratorConfig tiny() {
  hpcoda::GeneratorConfig cfg;
  cfg.scale = 0.3;
  return cfg;
}

TEST(EndToEnd, CsvDirectoryToSignatures) {
  // Export a generated node to per-sensor CSVs, read it back, align it,
  // train a CS model, compute signatures: the full offline workflow.
  const hpcoda::Segment seg = hpcoda::make_power_segment(tiny());
  const auto& block = seg.blocks.front();
  const auto dir = std::filesystem::temp_directory_path() / "csm_e2e_csv";
  data::write_sensor_dir(dir, block.sensors, block.sensor_names, 0, 100);

  const auto series = data::read_sensor_dir(dir);
  ASSERT_EQ(series.size(), 47u);
  const data::AlignedSensors aligned = data::align(series, 100);
  EXPECT_EQ(aligned.matrix.rows(), 47u);
  EXPECT_EQ(aligned.matrix.cols(), block.sensors.cols());

  const core::CsPipeline pipeline(core::train(aligned.matrix),
                                  core::CsOptions{10, false});
  const auto sigs = pipeline.transform(aligned.matrix, seg.window);
  EXPECT_GT(sigs.size(), 10u);
  std::filesystem::remove_all(dir);
}

TEST(EndToEnd, CsvRoundTripPreservesSignatures) {
  // Signatures computed from the round-tripped data must match those from
  // the in-memory matrix (CSV serialisation is lossless at %.17g).
  const hpcoda::Segment seg = hpcoda::make_power_segment(tiny());
  const auto& block = seg.blocks.front();
  const auto dir = std::filesystem::temp_directory_path() / "csm_e2e_rt";
  data::write_sensor_dir(dir, block.sensors, block.sensor_names);
  const auto series = data::read_sensor_dir(dir);
  data::AlignedSensors aligned = data::align(series, 1000);
  // Directory readers sort sensors by filename; restore the row order the
  // model was trained with before applying it.
  aligned.reorder(block.sensor_names);

  const core::CsPipeline p(core::train(block.sensors),
                           core::CsOptions{8, false});
  const auto sig_mem = p.transform_window(block.sensors.sub_cols(0, 10));
  const auto sig_csv = p.transform_window(aligned.matrix.sub_cols(0, 10));
  for (std::size_t i = 0; i < sig_mem.length(); ++i) {
    EXPECT_NEAR(sig_mem.real()[i], sig_csv.real()[i], 1e-12);
    EXPECT_NEAR(sig_mem.imag()[i], sig_csv.imag()[i], 1e-12);
  }
  std::filesystem::remove_all(dir);
}

TEST(EndToEnd, CsClassifiesApplicationsWell) {
  // Headline Fig. 3 property at small scale: CS-20 signatures classify the
  // Application segment nearly perfectly with a random forest.
  hpcoda::GeneratorConfig cfg = tiny();
  const hpcoda::Segment seg = hpcoda::make_application_segment(cfg);
  const harness::MethodEvaluation eval = harness::evaluate_method(
      seg, harness::make_cs_method(20), harness::random_forest_factories());
  EXPECT_GT(eval.ml_score, 0.9) << "CS-20 should classify apps well";
}

TEST(EndToEnd, CsSignaturesAreSmallerThanBaselines) {
  const hpcoda::Segment seg = hpcoda::make_fault_segment(tiny());
  const auto methods = harness::standard_methods();
  const data::Dataset tuncer = harness::build_dataset(seg, methods[0]);
  const data::Dataset cs40 = harness::build_dataset(
      seg, harness::make_cs_method(40));
  // Fault node has 128 sensors: Tuncer = 1408 features, CS-40 = 80: >10x.
  EXPECT_GT(tuncer.feature_length(),
            10u * cs40.feature_length());
}

TEST(EndToEnd, ModelShippedAcrossProcessesViaSerialization) {
  // Out-of-band training / in-band inference: the method codec's text
  // round-trip must preserve signatures bit-exactly.
  const hpcoda::Segment seg = hpcoda::make_power_segment(tiny());
  const auto& sensors = seg.blocks.front().sensors;
  const auto trained =
      core::CsSignatureMethod(core::CsOptions{12, false}).fit(sensors);
  const auto shipped =
      baselines::default_registry().deserialize(trained->serialize());
  const common::Matrix window = sensors.sub_cols(100, 10);
  EXPECT_EQ(trained->compute(window), shipped->compute(window));
}

TEST(EndToEnd, CrossArchitectureMergedTraining) {
  // Section IV-F at small scale: 20-block CS signatures from three
  // different architectures merge into one dataset and classify well.
  const hpcoda::Segment seg = hpcoda::make_cross_arch_segment(tiny());
  data::Dataset merged;
  for (const hpcoda::ComponentBlock& block : seg.blocks) {
    hpcoda::Segment single = seg;
    single.blocks = {block};
    merged.merge(harness::build_dataset(single, harness::make_cs_method(20)));
  }
  EXPECT_EQ(merged.feature_length(), 40u);
  common::Rng rng(11);
  merged.shuffle(rng);
  const ml::CvResult cv = ml::cross_validate(
      merged, 5, harness::random_forest_factories(), rng);
  EXPECT_GT(cv.mean_score, 0.9);
}

TEST(EndToEnd, BaselinesCannotMergeAcrossArchitectures) {
  // The structural claim behind Section IV-F: baseline signatures from
  // nodes with different sensor counts have incompatible lengths.
  const hpcoda::Segment seg = hpcoda::make_cross_arch_segment(tiny());
  const auto methods = harness::standard_methods();
  data::Dataset merged;
  hpcoda::Segment skylake = seg;
  skylake.blocks = {seg.blocks[0]};
  hpcoda::Segment knl = seg;
  knl.blocks = {seg.blocks[1]};
  merged = harness::build_dataset(skylake, methods[0]);  // Tuncer 52*11.
  const data::Dataset other = harness::build_dataset(knl, methods[0]);
  EXPECT_THROW(merged.merge(other), std::invalid_argument);
}

TEST(EndToEnd, SignatureRescalingKeepsModelUsable) {
  // Train a model on CS-10 signatures, then feed it CS-40 signatures
  // rescaled down to 10 blocks (the paper's resolution-mixing use case).
  const hpcoda::Segment seg = hpcoda::make_application_segment(tiny());
  const hpcoda::ComponentBlock& node = seg.blocks.front();
  const core::CsModel model = core::train(node.sensors);
  const core::CsPipeline p10(model, core::CsOptions{10, false});
  const core::CsPipeline p40(model, core::CsOptions{40, false});

  data::Dataset train_set, test_set;
  for (const hpcoda::RunInfo& run : seg.runs) {
    if (run.end - run.begin < seg.window.length) continue;
    const std::size_t n_windows =
        (run.end - run.begin - seg.window.length) / seg.window.step + 1;
    for (std::size_t w = 0; w < n_windows; ++w) {
      const auto window = node.sensors.sub_cols(
          run.begin + w * seg.window.step, seg.window.length);
      train_set.features.append_row(
          p10.transform_window(window).flatten());
      train_set.labels.push_back(run.label);
      test_set.features.append_row(
          p40.transform_window(window).rescaled(10).flatten());
      test_set.labels.push_back(run.label);
    }
  }
  ml::RandomForestClassifier forest;
  forest.fit(train_set.features, train_set.labels);
  const std::vector<int> pred = forest.predict(test_set.features);
  EXPECT_GT(ml::macro_f1(test_set.labels, pred), 0.85);
}

// What a sampling collector records from dense truth: each sensor polled
// every `interval_ms` with Gaussian timestamp jitter of `jitter_fraction`
// intervals, each sample lost with `drop_probability`, values read off the
// truth row (linear between its columns, which sit at c * interval_ms).
std::vector<data::TimeSeries> jittered_series(
    const common::Matrix& truth, const std::vector<std::string>& names,
    std::int64_t interval_ms, double jitter_fraction, double drop_probability,
    common::Rng& rng) {
  const auto interval = static_cast<double>(interval_ms);
  const auto last = static_cast<double>(truth.cols() - 1);
  std::vector<data::TimeSeries> out(truth.rows());
  for (std::size_t r = 0; r < truth.rows(); ++r) {
    out[r].name = names[r];
    std::int64_t prev = std::numeric_limits<std::int64_t>::min();
    for (std::size_t k = 0; k < truth.cols(); ++k) {
      if (rng.uniform() < drop_probability) continue;
      const auto t = static_cast<std::int64_t>(
          std::llround(static_cast<double>(k) * interval +
                       jitter_fraction * interval * rng.gaussian()));
      if (t <= prev) continue;  // Keep timestamps strictly increasing.
      prev = t;
      const double pos =
          std::clamp(static_cast<double>(t) / interval, 0.0, last);
      const auto lo = std::min(static_cast<std::size_t>(pos),
                               truth.cols() - 2);
      const double frac = pos - static_cast<double>(lo);
      out[r].samples.push_back(
          {t, truth(r, lo) + frac * (truth(r, lo + 1) - truth(r, lo))});
    }
  }
  return out;
}

TEST(EndToEnd, JitteryCollectorToSignatures) {
  // Acquisition realism: jittered, dropped samples are aligned, re-bound to
  // the model's row order, and still produce signatures close to the
  // dense-truth ones.
  const hpcoda::Segment seg = hpcoda::make_power_segment(tiny());
  const auto& block = seg.blocks.front();
  common::Rng rng(31);
  const auto series = jittered_series(block.sensors, block.sensor_names,
                                      seg.interval_ms, 0.05, 0.01, rng);
  data::AlignedSensors aligned = data::align(series, seg.interval_ms);
  aligned.reorder(block.sensor_names);

  const core::CsPipeline pipeline(core::train(block.sensors),
                                  core::CsOptions{10, false});
  // Compare signatures over the shared column range.
  const auto offset = static_cast<std::size_t>(
      aligned.start_timestamp / seg.interval_ms);
  const core::Signature truth_sig = pipeline.transform_window(
      block.sensors.sub_cols(offset, seg.window.length));
  const core::Signature noisy_sig = pipeline.transform_window(
      aligned.matrix.sub_cols(0, seg.window.length));
  for (std::size_t b = 0; b < truth_sig.length(); ++b) {
    EXPECT_NEAR(noisy_sig.real()[b], truth_sig.real()[b], 0.1);
  }
}

}  // namespace
}  // namespace csm
