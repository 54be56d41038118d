// Method-agnostic online signature stream — THE streaming loop.
//
// MethodStream drives any trained SignatureMethod over a contiguous ring
// buffer: one column of sensor readings per push, a feature vector emitted
// every ws samples once wl samples are buffered, and optional periodic
// retraining via the method's uniform fit() entry point over the buffered
// history. The emit path is zero-copy: the newest wl columns are handed to
// SignatureMethod::compute_streaming as a common::MatrixView over the ring
// segments (two segments when the window straddles the wrap point) together
// with a span over the raw column preceding the window — CS seeds its
// derivative channel with it, stateless methods ignore it.
//
// Retraining follows the StreamOptions::retrain_policy seam. kSync fits
// inline over RingMatrix::history_view() (no materialisation), exactly the
// historical behaviour. The async policies snapshot the history, fit a
// *shadow* method on a RetrainExecutor worker, and swap the finished method
// in — one shared_ptr store — at the next emit boundary; emits keep serving
// the old model mid-fit and the ingest thread never waits on a fit. A fit
// superseded by a newer retrain is cancelled through its TrainContext token
// and counted in retrain_aborts(). This single loop serves the whole method
// fleet, CS included: a standalone component streams through one directly,
// and StreamEngine fans it out across nodes (sharing one executor between
// them).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/ring_matrix.hpp"
// Complete type needed: MethodStream's defaulted moves destroy the
// unique_ptr fallback pool in every TU that moves a stream.
#include "core/retrain_executor.hpp"
#include "core/signature_method.hpp"
#include "core/streaming.hpp"
#include "core/training.hpp"
#include "stats/drift.hpp"
#include "stats/histogram.hpp"

namespace csm::core {

/// Shape of the retrain-latency histograms (method streams, EngineStats and
/// the wire schema must agree so Histogram::merge works). Retrains run
/// milliseconds to seconds — a much coarser range than ingest latency.
inline constexpr std::size_t kRetrainLatencyBins = 128;
inline constexpr double kRetrainLatencyMaxUs = 16.0e6;  // 16 s.

inline stats::Histogram make_retrain_latency_histogram() {
  return stats::Histogram(kRetrainLatencyBins, 0.0, kRetrainLatencyMaxUs);
}

/// Push-based feature-vector stream over one monitored component.
class MethodStream {
 public:
  /// `n_sensors` may be 0 when the method is bound to a sensor count (CS,
  /// PCA); sensor-count-agnostic methods (Tuncer, Bodik, Lan) require it.
  /// `executor`, when given, runs this stream's async-policy shadow fits
  /// (StreamEngine passes its shared pool); without one, a stream whose
  /// policy is async lazily spins up a private pool of
  /// options.retrain_threads workers. The executor must outlive the stream.
  /// Throws std::invalid_argument on a null or untrained method, a
  /// zero/contradictory sensor count, or bad options.
  MethodStream(std::shared_ptr<const SignatureMethod> method,
               StreamOptions options, std::size_t n_sensors = 0,
               RetrainExecutor* executor = nullptr);

  /// Cancels any in-flight shadow fit (the worker unwinds on its own; the
  /// fit only touches state the job co-owns, never the dead stream).
  ~MethodStream();
  MethodStream(MethodStream&&) noexcept = default;
  MethodStream& operator=(MethodStream&&) noexcept = default;

  std::size_t n_sensors() const noexcept { return n_sensors_; }
  const SignatureMethod& method() const noexcept { return *method_; }
  const StreamOptions& options() const noexcept { return options_; }
  std::size_t samples_seen() const noexcept { return samples_seen_; }
  std::size_t signatures_emitted() const noexcept {
    return signatures_emitted_;
  }
  /// Retrained models actually swapped in (under kSync every fired retrain;
  /// under the async policies, fits that completed and reached an emit
  /// boundary).
  std::size_t retrain_count() const noexcept { return retrain_count_; }
  /// Retrains that fired but never produced a swap: superseded (cancelled)
  /// fits, skip-if-busy suppressions, and discarded stale results.
  std::size_t retrain_aborts() const noexcept { return retrain_aborts_; }
  /// Wall-clock fit latency of every swapped-in retrain, in microseconds
  /// (shape: make_retrain_latency_histogram()).
  const stats::Histogram& retrain_latency_us() const noexcept {
    return retrain_latency_us_;
  }
  /// kOnDrift bookkeeping (all 0 under the other policies). Windows scored
  /// against the drift reference — every emitted window except the one that
  /// built the reference.
  std::size_t drift_windows() const noexcept { return drift_windows_; }
  /// Scored windows whose drift score reached drift_threshold.
  std::size_t drift_flags() const noexcept { return drift_flags_; }
  /// Retrains the drift detector actually fired (a subset of
  /// retrain_count(): flags only convert once the patience streak fills).
  std::size_t drift_retrains() const noexcept { return drift_retrains_; }
  /// Score of the most recently scored window (0 before any scoring).
  double last_drift_score() const noexcept { return last_drift_score_; }

  /// Feeds one column of sensor readings (length must equal n_sensors()).
  /// Returns a feature vector when a window completes, otherwise
  /// std::nullopt.
  std::optional<std::vector<double>> push(std::span<const double> column);

  /// Feeds a whole matrix column by column; returns all emitted feature
  /// vectors. Columns are gathered straight into the ring buffer.
  std::vector<std::vector<double>> push_all(const common::Matrix& columns);

 private:
  /// Everything a background shadow fit touches, co-owned by the job and
  /// the stream so either side may die first. The worker writes result /
  /// error under `mu` and flips `done` last; the ingest thread reads under
  /// `mu` at emit boundaries.
  struct ShadowFit;

  void maybe_retrain();
  /// kOnDrift per-window check, run at each emit boundary on the window
  /// about to be computed: builds the reference on first sight, scores
  /// later windows, and refits inline once the patience streak fills.
  void maybe_drift_retrain(const common::MatrixView& window);
  void launch_shadow_fit(bool supersede);
  /// Applies a finished shadow fit (called at emit boundaries): swaps the
  /// method shared_ptr, bumps the counters, rethrows a fit failure on the
  /// ingest thread (where a kSync fit would have thrown).
  void apply_pending_swap();
  std::optional<std::vector<double>> emit_if_due();
  RetrainExecutor& executor();
  /// Hands the context back for reuse once its fit thread is provably done
  /// with the workspace.
  void reclaim_context(std::shared_ptr<TrainContext> ctx);

  std::shared_ptr<const SignatureMethod> method_;
  StreamOptions options_;
  std::size_t n_sensors_ = 0;
  common::RingMatrix history_;  ///< n_sensors x history_length column ring.
  std::size_t samples_seen_ = 0;
  std::size_t next_emit_at_ = 0;
  std::size_t signatures_emitted_ = 0;
  std::size_t retrain_count_ = 0;
  std::size_t retrain_aborts_ = 0;
  std::size_t drift_windows_ = 0;
  std::size_t drift_flags_ = 0;
  std::size_t drift_retrains_ = 0;
  std::size_t drift_streak_ = 0;  ///< Consecutive flagged windows so far.
  double last_drift_score_ = 0.0;
  /// kOnDrift regime reference; empty until the first emitted window.
  stats::DriftReference drift_ref_;
  stats::Histogram retrain_latency_us_ = make_retrain_latency_histogram();
  /// Correlation workspace recycled across retrains (fresh one minted when
  /// a superseded fit still owns it).
  std::shared_ptr<TrainContext> spare_context_;
  std::shared_ptr<ShadowFit> shadow_;   ///< In-flight / unswapped async fit.
  RetrainExecutor* executor_ = nullptr;  ///< Borrowed (engine) pool, if any.
  std::unique_ptr<RetrainExecutor> own_executor_;  ///< Standalone fallback.
};

}  // namespace csm::core
