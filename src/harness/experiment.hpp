// Shared experiment driver: segments -> signature datasets -> ML scores.
//
// Implements the evaluation protocol of Section IV-A: for each segment and
// signature method, every sliding window that fits inside one labelled run
// (leaving room for the regression horizon) becomes one feature set; the
// feature sets are shuffled and 5-fold cross-validated with a random forest
// (50 estimators). The driver also measures dataset-generation and
// cross-validation times (Fig. 3a) and the CS compression-fidelity metric of
// Eq. 4 (Fig. 4a).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/signature_method.hpp"
#include "data/dataset.hpp"
#include "hpcoda/segment.hpp"
#include "ml/cross_validation.hpp"

namespace csm::harness {

/// A named way to build a trained signature method for one component block.
/// Trainable methods (CS, PCA) fit on the block's sensors inside `make`;
/// the stateless baselines ignore the block.
struct BlockMethod {
  std::string name;
  std::function<std::unique_ptr<core::SignatureMethod>(
      const hpcoda::ComponentBlock&)>
      make;
};

/// Registry-backed entry: parses `spec` (e.g. "cs:blocks=20,real-only",
/// "tuncer", "pca:components=8" — see baselines::default_registry()) and
/// fits the method on each block's sensors through the uniform
/// SignatureMethod::fit() lifecycle. Throws std::invalid_argument on an
/// unknown method or bad parameters.
BlockMethod method_from_spec(const std::string& spec);

/// The paper's method line-up: Tuncer, Bodik, Lan, CS-5/10/20/40/All
/// (Fig. 3), queried from the method registry. `real_only` switches the CS
/// entries to the "-R" variant.
std::vector<BlockMethod> standard_methods(bool real_only = false);

/// Only the CS entries (for Fig. 4 sweeps).
std::vector<BlockMethod> cs_methods(bool real_only = false);

/// Builds a CS BlockMethod with an explicit block count (0 = CS-All).
BlockMethod make_cs_method(std::size_t blocks, bool real_only = false);

/// Extracts the feature-set dataset of `segment` under `method`.
/// Classification segments label each window with its run's class;
/// regression segments average the block's target series over the
/// `target_horizon` samples following the window.
data::Dataset build_dataset(const hpcoda::Segment& segment,
                            const BlockMethod& method);

/// Result row of the Fig. 3 experiment.
struct MethodEvaluation {
  std::string segment;
  std::string method;
  std::size_t signature_size = 0;   ///< Feature-vector length (Fig. 3b).
  std::size_t n_samples = 0;        ///< Feature sets evaluated.
  double generation_seconds = 0.0;  ///< Dataset generation (Fig. 3a bottom).
  double cv_seconds = 0.0;          ///< Cross-validation (Fig. 3a top).
  double ml_score = 0.0;            ///< Macro F1 or 1-NRMSE (Fig. 3c).
};

/// Random-forest factories with the paper's hyper-parameters (50 trees;
/// Gini). `seed` controls the forests' randomness.
ml::ModelFactories random_forest_factories(std::uint64_t seed = 0x5eed);

/// MLP factories (2 hidden layers x 100 ReLU units).
ml::ModelFactories mlp_factories(std::uint64_t seed = 0x31f);

/// Runs the full protocol for one method on one segment: build dataset,
/// shuffle, 5-fold cross-validate, collect timings. `repeats` averages the
/// ML score over multiple shuffled CV runs (the paper repeats 5 times).
MethodEvaluation evaluate_method(const hpcoda::Segment& segment,
                                 const BlockMethod& method,
                                 const ml::ModelFactories& models,
                                 std::size_t k_folds = 5,
                                 std::size_t repeats = 1,
                                 std::uint64_t shuffle_seed = 7);

/// Average Eq. 4 JS divergence of a CS configuration on a segment: for each
/// block, the real signature channel is compared against the sorted
/// normalised data and the imaginary channel against its derivatives
/// (signatures are nearest-neighbour-upscaled back to n dimensions first);
/// block values are averaged. With `real_only` the imaginary channel is
/// replaced by zeros, modelling the information lost by dropping it.
double cs_js_divergence(const hpcoda::Segment& segment, std::size_t blocks,
                        bool real_only = false, std::size_t bins = 64);

/// Stacks all component blocks of a segment vertically into one sensor
/// matrix (e.g. the ~832-dimension 16-node view of Figs. 2 and 6). Requires
/// every block to share the same column count.
common::Matrix stack_blocks(const hpcoda::Segment& segment);

}  // namespace csm::harness
