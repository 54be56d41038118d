// Method-agnostic online signature stream — THE streaming loop.
//
// MethodStream drives any trained SignatureMethod over a contiguous ring
// buffer: one column of sensor readings per push, a feature vector emitted
// every ws samples once wl samples are buffered, and optional periodic
// retraining via the method's uniform fit() entry point over the buffered
// history. push_all takes a batch as a common::MatrixView and copies each
// column straight into its ring slot (MatrixView::copy_col): one memcpy per
// column from a column-major batch (csmd's decode buffer, a replayed CSMR
// batch), a strided gather from a row-major Matrix. A method that keeps
// per-stream state (CS, through SignatureMethod::make_stream_state) is fed
// every pushed column and emits from that state: CS normalises each sample
// once, on push, instead of once per window it lies in. Every other method
// gets the zero-copy path: the newest wl columns are handed to
// SignatureMethod::compute_streaming as a common::MatrixView over the ring
// segments (two segments when the window straddles the wrap point)
// together with a span over the raw column preceding the window — CS seeds
// its derivative channel with it, stateless methods ignore it. Both paths
// emit the same bytes. Whenever the method changes (construction, a kSync
// or kOnDrift refit, an async swap), the new method's state is rebuilt by
// replaying the ring's newest wl + 1 columns.
//
// Every refit (the kSync or kAsync schedule, kOnDrift's filled patience
// streak) runs one fit step and one install. The fit step turns fit()'s
// outcome into a fitted method, a cancellation or a failure. It runs inline
// over RingMatrix::history_view() under kSync and kOnDrift, or under kAsync
// on a history snapshot on the caller's RetrainExecutor while emits keep
// serving the old model. The install
// (inline, or at the next emit boundary under kAsync) swaps a fitted method
// in, one shared_ptr store counted in retrains, or counts a failure in
// retrain_failures and keeps the old model: no fit failure leaves push() or
// push_all(). A kAsync fit superseded by a newer retrain is cancelled
// through its TrainContext token and counted in retrain_aborts. StreamEngine
// fans this one loop out across nodes, sharing one executor between them.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/matrix_view.hpp"
#include "common/ring_matrix.hpp"
#include "core/signature_method.hpp"
#include "core/stream_counters.hpp"
#include "core/streaming.hpp"
#include "core/training.hpp"
#include "stats/drift.hpp"

namespace csm::core {

class RetrainExecutor;

/// Push-based feature-vector stream over one monitored component.
class MethodStream {
 public:
  /// `n_sensors` may be 0 when the method is bound to a sensor count (CS,
  /// PCA); sensor-count-agnostic methods (Tuncer, Bodik, Lan) require it.
  /// `executor` runs this stream's kAsync shadow fits (StreamEngine passes
  /// its shared pool); kAsync requires one, the other policies ignore it.
  /// The executor must outlive the stream. Throws std::invalid_argument on
  /// a null or untrained method, a zero/contradictory sensor count, bad
  /// options, or kAsync without an executor.
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
  /// This stream's counter record. The drift reference window is never
  /// scored itself, so drift_windows is every emitted window but the one
  /// that built the reference. ingest_latency_us stays empty here unless a
  /// StreamEngine drives the stream (it times each ingest call).
  const StreamCounters& counters() const noexcept { return counters_; }
  /// Retrained models swapped in (counters().retrains).
  std::size_t retrain_count() const noexcept { return counters_.retrains; }
  /// kOnDrift score of the most recently scored window (0 before any
  /// scoring).
  double last_drift_score() const noexcept { return last_drift_score_; }

  /// Feeds one column of sensor readings (length must equal n_sensors()).
  /// Returns a feature vector when a window completes, otherwise
  /// std::nullopt.
  std::optional<std::vector<double>> push(std::span<const double> column);

  /// Feeds a batch column by column; returns all emitted feature vectors.
  /// Each column is copied straight into its ring slot (copy_col): one
  /// memcpy from a column-major batch (a decoded CSMF or CSMR batch), a
  /// strided gather from a row-major Matrix.
  std::vector<std::vector<double>> push_all(const common::MatrixView& columns);

 private:
  /// Everything a background shadow fit touches, co-owned by the job and
  /// the stream so either side may die first.
  struct ShadowFit;

  /// One fit attempt: a fitted method, a failure, or (neither) a
  /// cancellation.
  struct FitResult {
    std::shared_ptr<const SignatureMethod> method;
    bool failed = false;   ///< fit() threw anything but OperationCancelled.
    double seconds = 0.0;  ///< Wall time of the attempt.
  };

  /// push() and push_all()'s per-column step: copy column `c` into its ring
  /// slot, feed the state and the drift tracker, fire the schedule, emit.
  std::optional<std::vector<double>> step(const common::MatrixView& columns,
                                          std::size_t c);
  /// A retrain trigger: fits inline and installs (kSync, kOnDrift), or
  /// launches a shadow fit (kAsync). Returns whether a fitted method was
  /// installed.
  bool refit();
  /// The fit step: base.fit(history, ctx), timed, with whatever it throws
  /// turned into the result.
  static FitResult fit_step(const SignatureMethod& base,
                            const common::MatrixView& history,
                            TrainContext& ctx) noexcept;
  /// The install: a fitted method replaces the live one (counted in
  /// retrains and retrain_latency_us), a failure is counted in
  /// retrain_failures and the old model keeps serving, a cancellation
  /// changes nothing. Returns whether a method was installed.
  bool install(FitResult&& fit);
  /// kOnDrift per-window check, run at each emit boundary on the window
  /// about to be computed: builds the reference from the tracker's summary
  /// on first sight, scores later windows, and refits inline once the
  /// patience streak fills.
  void maybe_drift_retrain();
  void launch_shadow_fit();
  /// Installs a finished shadow fit (kAsync, at emit boundaries and before
  /// the next launch); while the fit runs, the old model keeps serving.
  void land_shadow_fit();
  std::optional<std::vector<double>> emit_if_due();
  /// Installs `method` and rebuilds its stream state from the ring.
  void set_method(std::shared_ptr<const SignatureMethod> method);

  std::shared_ptr<const SignatureMethod> method_;
  /// method_'s per-stream emit state; null for methods without one.
  std::unique_ptr<StreamState> state_;
  StreamOptions options_;
  std::size_t n_sensors_ = 0;
  common::RingMatrix history_;  ///< n_sensors x history_length column ring.
  std::size_t next_emit_at_ = 0;
  StreamCounters counters_;
  std::size_t drift_streak_ = 0;  ///< Consecutive flagged windows so far.
  double last_drift_score_ = 0.0;
  /// kOnDrift only: chunk summaries of every pushed column, so each window
  /// is scored without rescanning its samples.
  std::optional<stats::DriftTracker> drift_;
  /// kOnDrift regime reference; empty until the first emitted window.
  stats::DriftReference drift_ref_;
  /// Correlation workspace recycled across retrains (fresh one minted when
  /// a superseded fit still owns it).
  std::shared_ptr<TrainContext> spare_context_;
  std::shared_ptr<ShadowFit> shadow_;   ///< In-flight / uninstalled async fit.
  RetrainExecutor* executor_ = nullptr;  ///< Borrowed pool; kAsync only.

  /// StreamEngine records each ingest call's latency straight into
  /// counters_, so one record per node holds every counter.
  friend class StreamEngine;
};

}  // namespace csm::core
