#include "harness/experiment.hpp"

#include <stdexcept>

#include "baselines/registry.hpp"
#include "common/timer.hpp"
#include "core/method_registry.hpp"
#include "core/training.hpp"
#include "ml/mlp.hpp"
#include "ml/random_forest.hpp"
#include "stats/divergence.hpp"
#include "stats/finite_diff.hpp"
#include "stats/interpolate.hpp"

namespace csm::harness {

BlockMethod method_from_spec(const std::string& spec_text) {
  const core::MethodSpec spec = core::MethodSpec::parse(spec_text);
  // Eagerly construct a prototype so bad specs throw here, not inside a
  // worker, and so the display name matches the configured parameters.
  const auto prototype = baselines::default_registry().create(spec);
  return BlockMethod{prototype->name(),
                     [spec](const hpcoda::ComponentBlock& block) {
                       return baselines::default_registry()
                           .create(spec)
                           ->fit(block.sensors);
                     }};
}

BlockMethod make_cs_method(std::size_t blocks, bool real_only) {
  std::string spec = "cs:blocks=" + std::to_string(blocks);
  if (real_only) spec += ",real-only";
  return method_from_spec(spec);
}

std::vector<BlockMethod> standard_methods(bool real_only) {
  std::vector<BlockMethod> out;
  for (const char* spec : {"tuncer", "bodik", "lan"}) {
    out.push_back(method_from_spec(spec));
  }
  for (BlockMethod& cs : cs_methods(real_only)) out.push_back(std::move(cs));
  return out;
}

std::vector<BlockMethod> cs_methods(bool real_only) {
  std::vector<BlockMethod> out;
  for (std::size_t blocks : {std::size_t{5}, std::size_t{10}, std::size_t{20},
                             std::size_t{40}, std::size_t{0}}) {
    out.push_back(make_cs_method(blocks, real_only));
  }
  return out;
}

namespace {

// Mean of target[begin, end).
double mean_target(const std::vector<double>& target, std::size_t begin,
                   std::size_t end) {
  double acc = 0.0;
  for (std::size_t i = begin; i < end; ++i) acc += target[i];
  return acc / static_cast<double>(end - begin);
}

}  // namespace

data::Dataset build_dataset(const hpcoda::Segment& segment,
                            const BlockMethod& method) {
  segment.window.validate();
  data::Dataset out;
  out.class_names = segment.class_names;
  const bool regression = segment.task == data::TaskKind::kRegression;

  for (const hpcoda::ComponentBlock& block : segment.blocks) {
    const std::unique_ptr<core::SignatureMethod> sig = method.make(block);
    for (const hpcoda::RunInfo& run : segment.runs) {
      // Windows must fit inside the run, leaving room for the horizon.
      const std::size_t usable_end =
          run.end > segment.target_horizon ? run.end - segment.target_horizon
                                           : 0;
      if (usable_end <= run.begin ||
          usable_end - run.begin < segment.window.length) {
        continue;
      }
      const std::size_t span = usable_end - run.begin;
      const std::size_t n_windows =
          (span - segment.window.length) / segment.window.step + 1;
      for (std::size_t w = 0; w < n_windows; ++w) {
        const std::size_t first = run.begin + w * segment.window.step;
        const common::Matrix window =
            block.sensors.sub_cols(first, segment.window.length);
        out.features.append_row(sig->compute(window));
        if (regression) {
          const std::size_t horizon_begin = first + segment.window.length;
          out.targets.push_back(mean_target(
              block.target, horizon_begin,
              horizon_begin + segment.target_horizon));
        } else {
          out.labels.push_back(run.label);
        }
      }
    }
  }
  out.validate();
  return out;
}

ml::ModelFactories random_forest_factories(std::uint64_t seed) {
  ml::ModelFactories factories;
  factories.classifier = [seed]() -> std::unique_ptr<ml::Classifier> {
    ml::ForestParams params;
    params.seed = seed;
    return std::make_unique<ml::RandomForestClassifier>(params);
  };
  factories.regressor = [seed]() -> std::unique_ptr<ml::Regressor> {
    ml::ForestParams params;
    params.seed = seed;
    // Deviation from the scikit-learn regression default (all features per
    // split): sqrt sampling keeps the single-core harness fast while leaving
    // scores within noise of the exhaustive setting on these datasets.
    params.feature_mode = ml::MaxFeaturesMode::kSqrt;
    return std::make_unique<ml::RandomForestRegressor>(params);
  };
  return factories;
}

ml::ModelFactories mlp_factories(std::uint64_t seed) {
  ml::ModelFactories factories;
  factories.classifier = [seed]() -> std::unique_ptr<ml::Classifier> {
    ml::MlpParams params;
    params.seed = seed;
    return std::make_unique<ml::MlpClassifier>(params);
  };
  factories.regressor = [seed]() -> std::unique_ptr<ml::Regressor> {
    ml::MlpParams params;
    params.seed = seed;
    return std::make_unique<ml::MlpRegressor>(params);
  };
  return factories;
}

MethodEvaluation evaluate_method(const hpcoda::Segment& segment,
                                 const BlockMethod& method,
                                 const ml::ModelFactories& models,
                                 std::size_t k_folds, std::size_t repeats,
                                 std::uint64_t shuffle_seed) {
  MethodEvaluation result;
  result.segment = segment.name;
  result.method = method.name;

  common::Timer gen_timer;
  data::Dataset ds = build_dataset(segment, method);
  result.generation_seconds = gen_timer.seconds();
  result.signature_size = ds.feature_length();
  result.n_samples = ds.size();

  common::Rng rng(shuffle_seed);
  double score_acc = 0.0;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, repeats); ++rep) {
    ds.shuffle(rng);
    const ml::CvResult cv = ml::cross_validate(ds, k_folds, models, rng);
    score_acc += cv.mean_score;
    result.cv_seconds += cv.train_seconds + cv.test_seconds;
  }
  result.ml_score = score_acc / static_cast<double>(std::max<std::size_t>(
                                    1, repeats));
  return result;
}

double cs_js_divergence(const hpcoda::Segment& segment, std::size_t blocks,
                        bool real_only, std::size_t bins) {
  double acc = 0.0;
  for (const hpcoda::ComponentBlock& block : segment.blocks) {
    const core::CsPipeline pipeline(core::train(block.sensors),
                                    core::CsOptions{blocks, real_only});
    // Reference: the sorted normalised data and its derivatives.
    const common::Matrix sorted = pipeline.sorted(block.sensors);
    const common::Matrix derivs = stats::backward_diff_rows(sorted);
    // Compressed: the signature heatmaps, upscaled back to n dimensions.
    const std::vector<core::Signature> sigs =
        pipeline.transform(block.sensors, segment.window);
    auto [re, im] = core::signature_heatmaps(sigs);
    if (real_only) im.fill(0.0);  // Information dropped with the channel.
    const common::Matrix re_up =
        stats::resize_rows_nearest(re, sorted.rows());
    const common::Matrix im_up =
        stats::resize_rows_nearest(im, sorted.rows());
    const double js_re = stats::js_divergence_2d(sorted, re_up, bins);
    const double js_im = stats::js_divergence_2d(derivs, im_up, bins);
    acc += 0.5 * (js_re + js_im);
  }
  return acc / static_cast<double>(segment.blocks.size());
}

common::Matrix stack_blocks(const hpcoda::Segment& segment) {
  common::Matrix out;
  for (const hpcoda::ComponentBlock& block : segment.blocks) {
    out.append_rows(block.sensors);
  }
  return out;
}

}  // namespace csm::harness
