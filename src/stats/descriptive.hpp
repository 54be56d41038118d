// Descriptive statistics over contiguous samples.
//
// These are the building blocks of the Tuncer and Bodik baseline signature
// methods (Section III-B of the paper): per-sensor mean, standard deviation,
// extrema, percentiles, and the "sum of changes" indicators Tuncer et al. use
// in place of skewness/kurtosis.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace csm::stats {

/// Arithmetic mean. Returns 0 for empty input.
double mean(std::span<const double> x);

/// Population variance (divides by N). Returns 0 for fewer than 2 samples.
double variance(std::span<const double> x);

/// Population standard deviation.
double stddev(std::span<const double> x);

/// Sample covariance between two equally sized spans (divides by N).
/// Throws std::invalid_argument on length mismatch.
double covariance(std::span<const double> x, std::span<const double> y);

/// Smallest / largest element (the first of equal ones), or NaN when x
/// holds a NaN, wherever it sits. Throws std::invalid_argument for empty
/// input.
double min(std::span<const double> x);
double max(std::span<const double> x);

/// Percentile with linear interpolation between closest ranks (numpy's
/// default "linear" method), q in [0, 100]. Copies and sorts the input. A
/// NaN has no rank: when x holds one the result is NaN, and the copy is
/// never sorted (a NaN breaks std::sort's strict weak ordering). Throws
/// std::invalid_argument for empty input or q outside [0,100].
double percentile(std::span<const double> x, double q);

/// Computes several percentiles in one sort pass; `qs` values in [0, 100].
/// All NaN when x holds a NaN, as percentile().
std::vector<double> percentiles(std::span<const double> x,
                                std::span<const double> qs);

/// Sum of successive differences: sum_i (x[i+1] - x[i]) == x.back()-x.front().
double sum_of_changes(std::span<const double> x);

/// Sum of absolute successive differences: sum_i |x[i+1] - x[i]|.
double abs_sum_of_changes(std::span<const double> x);

}  // namespace csm::stats
