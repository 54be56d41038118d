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
// Retraining follows the StreamOptions::retrain_policy seam. kSync and
// kOnDrift fit inline over RingMatrix::history_view() (no materialisation),
// exactly the historical behaviour. kAsync snapshots the history, fits a
// *shadow* method on the caller's RetrainExecutor, and swaps the finished
// method in — one shared_ptr store — at the next emit boundary; emits keep
// serving the old model mid-fit and the ingest thread never waits on a fit.
// A fit superseded by a newer retrain is cancelled through its TrainContext
// token and counted in counters().retrain_aborts. This single loop serves
// the whole method fleet, CS included: a standalone component streams
// through one directly, and StreamEngine fans it out across nodes (sharing
// one executor between them).
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
  /// the stream so either side may die first. The worker writes result /
  /// error under `mu` and flips `done` last; the ingest thread reads under
  /// `mu` at emit boundaries.
  struct ShadowFit;

  void maybe_retrain();
  /// kOnDrift per-window check, run at each emit boundary on the window
  /// about to be computed: builds the reference from the tracker's summary
  /// on first sight, scores later windows, and refits inline once the
  /// patience streak fills.
  void maybe_drift_retrain();
  /// kSync and kOnDrift: fits the live method over the whole buffered
  /// history on the ingest thread, installs the result and records the
  /// retrain and its latency.
  void refit_inline();
  void launch_shadow_fit();
  /// Applies a finished shadow fit (called at emit boundaries): swaps the
  /// method shared_ptr, bumps the counters, rethrows a fit failure on the
  /// ingest thread (where a kSync fit would have thrown).
  void apply_pending_swap();
  std::optional<std::vector<double>> emit_if_due();
  /// Installs `method` and rebuilds its stream state from the ring.
  void set_method(std::shared_ptr<const SignatureMethod> method);
  /// Hands the context back for reuse once its fit thread is provably done
  /// with the workspace.
  void reclaim_context(std::shared_ptr<TrainContext> ctx);

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
  std::shared_ptr<ShadowFit> shadow_;   ///< In-flight / unswapped async fit.
  RetrainExecutor* executor_ = nullptr;  ///< Borrowed pool; kAsync only.

  /// StreamEngine records each ingest call's latency straight into
  /// counters_, so one record per node holds every counter.
  friend class StreamEngine;
};

}  // namespace csm::core
