// The stream counter record, declared once.
//
// StreamCounters is the one schema every layer carries: MethodStream keeps
// one record, StreamEngine's EngineStats and NodeStats derive from it, the
// CSMF stats payloads encode it as one counter block (docs/PROTOCOL.md) and
// csmcli prints it. for_each_field() is the single list those layers walk,
// so a new counter is its field, its list line and its increment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "stats/histogram.hpp"

namespace csm::core {

/// Ingest-latency histogram shape: time spent processing one ingest call
/// (push_all + queue append, excluding lock wait) in microseconds.
/// Fixed-width bins over [0, kLatencyMaxUs]; slower calls (e.g. a retrain
/// pass inside the ingest) clamp into the last bin and show up in
/// overflow() per the stats::Histogram clamp policy.
inline constexpr std::size_t kLatencyBins = 128;
inline constexpr double kLatencyMaxUs = 16384.0;

inline stats::Histogram make_latency_histogram() {
  return stats::Histogram(kLatencyBins, 0.0, kLatencyMaxUs);
}

/// Retrain-latency histogram shape. Retrains run milliseconds to seconds —
/// a much coarser range than ingest latency.
inline constexpr std::size_t kRetrainLatencyBins = 128;
inline constexpr double kRetrainLatencyMaxUs = 16.0e6;  // 16 s.

inline stats::Histogram make_retrain_latency_histogram() {
  return stats::Histogram(kRetrainLatencyBins, 0.0, kRetrainLatencyMaxUs);
}

struct StreamCounters;

/// True for the histogram members for_each_field() visits; every other
/// member is a u64 counter.
template <typename Field>
inline constexpr bool kIsHistogramField =
    std::is_same_v<Field, stats::Histogram StreamCounters::*>;

/// Cumulative counters of one signature stream (or, summed, of a fleet).
struct StreamCounters {
  std::uint64_t samples = 0;     ///< Columns pushed.
  std::uint64_t signatures = 0;  ///< Feature vectors emitted.
  /// Retrained models swapped in: every fired retrain whose fit succeeded
  /// (under kAsync, once a later emit boundary or launch installed it).
  std::uint64_t retrains = 0;
  /// kAsync fits a newer retrain superseded (cancelled) before they
  /// finished.
  std::uint64_t retrain_aborts = 0;
  /// Signatures shed by StreamEngine's max_pending backpressure.
  std::uint64_t dropped = 0;
  /// kOnDrift bookkeeping (all 0 under the other policies): windows scored
  /// against the drift reference, scored windows whose score reached
  /// drift_threshold, and the retrains those flags fired (a subset of
  /// retrains: flags only convert once the patience streak fills, and a
  /// fit that fails counts in retrain_failures instead).
  std::uint64_t drift_windows = 0;
  std::uint64_t drift_flags = 0;
  std::uint64_t drift_retrains = 0;
  /// Retrains whose fit threw (any policy). The stream keeps serving the
  /// model it had; the failure is counted here and never thrown out of
  /// ingest.
  std::uint64_t retrain_failures = 0;
  /// One sample per StreamEngine ingest call (make_latency_histogram()).
  stats::Histogram ingest_latency_us = make_latency_histogram();
  /// Wall-clock fit latency of every swapped-in retrain
  /// (make_retrain_latency_histogram()).
  stats::Histogram retrain_latency_us = make_retrain_latency_histogram();

  /// Calls visit(name, &StreamCounters::field) for every field. The order
  /// is the wire order (u64 counters, then histograms, each in list order):
  /// append new fields, never reorder or remove one.
  template <typename Visit>
  static void for_each_field(Visit&& visit) {
    visit("samples", &StreamCounters::samples);
    visit("signatures", &StreamCounters::signatures);
    visit("retrains", &StreamCounters::retrains);
    visit("retrain_aborts", &StreamCounters::retrain_aborts);
    visit("dropped", &StreamCounters::dropped);
    visit("drift_windows", &StreamCounters::drift_windows);
    visit("drift_flags", &StreamCounters::drift_flags);
    visit("drift_retrains", &StreamCounters::drift_retrains);
    visit("retrain_failures", &StreamCounters::retrain_failures);
    visit("ingest_latency_us", &StreamCounters::ingest_latency_us);
    visit("retrain_latency_us", &StreamCounters::retrain_latency_us);
  }

  /// Adds every counter of `other` and merges its histograms (which must
  /// share this record's shapes; Histogram::merge throws otherwise).
  StreamCounters& operator+=(const StreamCounters& other) {
    for_each_field([&](const char*, auto field) {
      if constexpr (kIsHistogramField<decltype(field)>) {
        (this->*field).merge(other.*field);
      } else {
        this->*field += other.*field;
      }
    });
    return *this;
  }
};

}  // namespace csm::core
