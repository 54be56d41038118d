// Streaming configuration shared by every online signature stream.
//
// In-band ODA (Section I, Fig. 1) consumes monitoring samples as they are
// produced: one column of sensor readings per time-stamp. The ingest/emit/
// retrain loop itself is core::MethodStream — one loop for every signature
// method, CS included, reading windows straight out of the ring buffer
// through common::MatrixView — and core::StreamEngine fans it out across a
// fleet. This header holds what both share: the windowing and retrain
// options, including the "repeat training whenever required" mode of
// Section III-C2 for components whose correlations drift over time.
#pragma once

#include <cstddef>

namespace csm::core {

/// How MethodStream runs the periodic retrain that retrain_interval fires.
enum class RetrainPolicy {
  /// Fit inline on the ingest thread — the historical behaviour,
  /// byte-identical to streams that predate the policy seam. Ingest stalls
  /// for the full O(n^2 t) training time.
  kSync,
  /// Snapshot the history, fit a shadow model on a background worker, and
  /// swap it in atomically at the next emit boundary; emits keep serving the
  /// old model mid-fit. A retrain firing while one is still in flight
  /// supersedes it: the stale fit is cancelled and counted as an abort.
  kAsync,
  /// Adaptive: no periodic interval at all. Every emitted window is scored
  /// with the stats::drift statistic against a reference built from the
  /// first emitted window (and rebuilt after every retrain); once the score
  /// stays at or above StreamOptions::drift_threshold for drift_patience
  /// consecutive windows, the stream refits inline over the buffered
  /// history — synchronously, like kSync, so the post-drift model is
  /// deterministic. Requires drift_threshold > 0 and retrain_interval == 0.
  ///
  /// The score never rescans a window. The stream's stats::DriftTracker
  /// summarises each chunk of gcd(wl, ws) pushed columns once — per-sensor
  /// moments and the watched pairs' co-moments, O(n + drift_pairs) per
  /// sample — and a window merges its chunks' summaries, O(n + drift_pairs)
  /// per merge with about 2 ws/gcd + 1 merges per window.
  /// stats::drift_score(view, ref), which rescans at O((n + drift_pairs) wl)
  /// per window, is the reference the tracker is tested against.
  kOnDrift,
};

/// Streaming configuration.
struct StreamOptions {
  std::size_t window_length = 60;  ///< wl in samples.
  std::size_t window_step = 10;    ///< ws in samples.
  /// Retrain the model every this many samples (0 = never retrain). The
  /// retrain uses the last `history_length` buffered columns.
  std::size_t retrain_interval = 0;
  std::size_t history_length = 1024;
  /// Backpressure bound on each StreamEngine node's undrained signature
  /// queue (0 = unbounded). When a slow consumer lets a queue grow past
  /// this, the OLDEST signatures are dropped first and counted per node
  /// (EngineStats::dropped) — a monitoring fleet wants the freshest state,
  /// and a loud counter, not an OOM. Offline replays that require every
  /// signature must leave this at 0.
  std::size_t max_pending = 0;
  /// What a firing retrain does to the ingest thread (see RetrainPolicy).
  RetrainPolicy retrain_policy = RetrainPolicy::kSync;
  /// Worker count of the retrain pool kAsync fits on: sizes the
  /// StreamEngine-owned pool shared by all its nodes (csmd
  /// --retrain-threads). A standalone MethodStream fits on the executor its
  /// caller passes instead. Ignored under kSync and kOnDrift.
  std::size_t retrain_threads = 1;
  /// kOnDrift only: drift score at or above which an emitted window counts
  /// as drifted (see stats::drift_score for the scale; a stationary stream
  /// scores around 1/sqrt(window_length)). Must be > 0 under kOnDrift and
  /// 0 under every other policy.
  double drift_threshold = 0.0;
  /// kOnDrift only: consecutive drifted windows required before the stream
  /// actually retrains — patience > 1 trades detection latency for immunity
  /// to single-window flukes. Must be >= 1.
  std::size_t drift_patience = 1;
  /// kOnDrift only: sensor-pair sample size of the drift reference
  /// (stats::make_drift_reference cap). Must be >= 1.
  std::size_t drift_pairs = 64;

  /// Rejects contradictory configurations with std::invalid_argument naming
  /// the offending field: zero window_length, zero window_step, and a
  /// history_length too small to ever hold a window plus its derivative
  /// seed column (which would also make retraining silently unreachable).
  void validate() const;
};

}  // namespace csm::core
