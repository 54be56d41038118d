// Tracing for the traced (--trace 1) run: in-memory spans around the calls
// the benchmark makes itself, and lock-free per-thread accumulators that the
// interface decorators (decorators.hpp) bump at every forwarded call.
//
// Spans are coarse (a round, a scrape, one ingest_batch, one dataset build)
// and only recorded on threads the benchmark owns. Accumulators are what the
// fine-grained decorators use: a call that takes microseconds on an OpenMP
// worker cannot afford a span record, but it can afford two clock reads and
// two relaxed stores into a slot only its own thread writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock seconds since an arbitrary process-wide epoch.
double now();
/// CPU seconds consumed by the whole process.
double process_cpu();

/// Whether the traced run is active. Spans are no-ops while it is off.
bool tracing();
void set_tracing(bool on);

/// Decorator accumulators. Each holds seconds and a count; the pure
/// counters (bytes, partial writes) leave the seconds at zero.
enum class Stat : int {
  kTransportRead,
  kTransportWrite,
  kBytesIn,
  kBytesOut,
  kPartialWrites,
  kListenerWait,
  kListenerStall,
  kComputeStreaming,
  kFit,
  kCsCompute,
  kBaselineCompute,
  kMlFit,
  kMlPredict,
  kPackLoad,
  kCount,
};

/// Adds `seconds` and `calls` to the calling thread's slot for `stat`.
void add(Stat stat, double seconds, std::uint64_t calls = 1);

/// Sum over every thread's slots.
struct Totals {
  double seconds[static_cast<int>(Stat::kCount)] = {};
  std::uint64_t calls[static_cast<int>(Stat::kCount)] = {};

  double s(Stat stat) const { return seconds[static_cast<int>(stat)]; }
  std::uint64_t n(Stat stat) const { return calls[static_cast<int>(stat)]; }
  /// Element-wise this - earlier (the accumulation over an interval).
  Totals since(const Totals& earlier) const;
};
Totals totals();

/// Times one call into the program and adds it to `stat` on destruction.
class Timed {
 public:
  explicit Timed(Stat stat) : stat_(stat), start_(now()) {}
  ~Timed() { add(stat_, now() - start_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Stat stat_;
  double start_;
};

/// One recorded span. `parent` indexes the same thread's span list (-1 for
/// a root); `round` groups the spans of one closed-loop round.
struct SpanRecord {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint32_t round = 0;
  int thread = 0;
};

/// RAII span on the calling thread; a no-op while tracing is off. `name`
/// must be a string literal (it is stored by pointer).
class Span {
 public:
  explicit Span(const char* name, std::uint32_t round = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Total seconds per span name, over every thread.
std::map<std::string, double> span_total_seconds();

/// Writes every span as one JSON object per line; returns the span count.
std::size_t write_spans(const std::string& path);

}  // namespace perfbench
