// Pearson correlation machinery for the CS training stage (Eq. 1).
//
// The paper shifts each Pearson coefficient by +1 so that coefficients live in
// [0, 2] and the greedy ordering of Algorithm 1 can multiply them without sign
// juggling. The "global correlation coefficient" rho_Si of a row is the mean
// shifted coefficient against every other row and measures how descriptive a
// sensor is of overall system state.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/cancel.hpp"
#include "common/matrix.hpp"
#include "common/matrix_view.hpp"

namespace csm::stats {

/// Plain Pearson correlation coefficient in [-1, 1]. Rows with zero variance
/// correlate as 0 with everything (the sensor carries no linear information).
double pearson(std::span<const double> x, std::span<const double> y);

/// Reusable scratch for shifted_correlation_matrix: the mean-subtracted rows
/// (n x t, row-major) plus per-row means and standard deviations. A stream
/// that retrains every N samples keeps one of these alive so the O(n t)
/// staging buffers are allocated once, not per retrain. reserve() only grows,
/// never shrinks, so steady-state retrains are allocation-free.
struct CorrelationWorkspace {
  std::vector<double> centered;  ///< n*t mean-subtracted rows, row-major.
  std::vector<double> means;     ///< per-row mean.
  std::vector<double> sds;       ///< per-row population stddev.

  void reserve(std::size_t n, std::size_t t) {
    if (centered.size() < n * t) centered.resize(n * t);
    if (means.size() < n) means.resize(n);
    if (sds.size() < n) sds.resize(n);
  }
};

/// Full pairwise *shifted* correlation matrix of the rows of `s`:
/// out(i,j) = pearson(row i, row j) + 1, in [0, 2]; diagonal = 2.
///
/// Complexity O(n^2 t); cache-tiled over (i, j) row pairs with the
/// mean-subtracted rows hoisted into `ws` once, and register-blocked across
/// neighbouring pairs for FMA-friendly independent accumulation chains. Each
/// coefficient is still one accumulator summed in time-ascending order —
/// exactly the op sequence of shifted_correlation_matrix_reference — so the
/// result is bit-identical to the scalar path across every layout (the same
/// pin the CS smoothing kernel keeps). Accepts any window view (a
/// common::Matrix converts implicitly), so streaming retrains can feed
/// ring-buffer history without materialising it.
///
/// `cancel`, when given, is polled per tile: a fired token makes the pass
/// throw common::OperationCancelled (used by superseded async retrains).
common::Matrix shifted_correlation_matrix(
    const common::MatrixView& s, CorrelationWorkspace& ws,
    const common::CancelToken* cancel = nullptr);

/// Convenience overload with a throwaway workspace.
common::Matrix shifted_correlation_matrix(const common::MatrixView& s);

/// The pre-tiling scalar kernel, kept verbatim as the bit-exactness oracle
/// for the tiled path (property tests pin tiled == reference across
/// ring-wrap-straddling views). Not for production use: rereads every row
/// ~n times with no cache blocking.
common::Matrix shifted_correlation_matrix_reference(const common::MatrixView& s);

/// Global correlation coefficients per row (Eq. 1, right):
/// rho_Si = (1 / (n-1)) * sum_{j != i} shifted(i, j).
/// For a 1-row matrix returns {0}.
std::vector<double> global_coefficients(const common::Matrix& shifted);

}  // namespace csm::stats
