// Shared pieces of the three workloads: arguments, the result every run
// prints, the closed loop, set-up timing, rate windows, traced-phase
// snapshots, the per-layer wall-time table and small helpers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "core/stream_engine.hpp"
#include "hpcoda/segment.hpp"
#include "trace.hpp"

namespace perfbench {

/// OpenMP team size every workload runs with (set in main, recorded in the
/// report): on a shared 4-vCPU host, engine-drift's rate windows within a
/// run varied far less with two threads than with one.
inline constexpr int kOmpThreads = 2;
/// OMP_WAIT_POLICY every workload runs with, unless the environment sets
/// one. With the runtime's default, a team thread spins after each parallel
/// region and the main thread's next serial work (drains, scrapes, fits)
/// shares the core with it: on a shared 4-vCPU host, four back-to-back
/// engine-drift runs of one seed spread by 13% in samples_per_cpu_s and 20%
/// in op_p50_ms with spinning, and by 2% and 3% with passive waiting.
inline constexpr const char* kOmpWaitPolicy = "passive";

/// Closed-loop warm-up before a measured phase (a workload may ask for more
/// rounds than fit in it).
inline constexpr double kWarmupSeconds = 1.0;
/// Round time per rate window (see RateWindows).
inline constexpr double kRateWindowSeconds = 2.0;
/// setup_s is the median of at least this many set-ups, timed over at
/// least kSetupMinSeconds.
inline constexpr std::size_t kSetupMinRepeats = 11;
inline constexpr double kSetupMinSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: failed operations against attempted ones, the
/// metrics of the run's mode that go into the result line, and the
/// workload's own detail metrics, which are printed only.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;

  /// A detail metric of the traced run: a layer only this workload runs,
  /// printed with the per-layer table and left out of the result line.
  void detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
  /// A detail metric that counts.
  void count(std::string name, std::uint64_t n) {
    detail(std::move(name), static_cast<double>(n), "count");
  }
  /// Counts one failed operation and says why on stderr.
  void fail(const std::string& what);
  bool correct() const { return failed == 0; }
};

/// The end-to-end metrics every workload reports (BENCHMARK.json's
/// end_to_end, measured with tracing off). The result line holds exactly
/// these, whatever the workload.
struct EndToEnd {
  /// Sensor columns the timed path consumed, and the CPU seconds the
  /// program spent on them: the server thread on daemon-fleet, the process
  /// (the OpenMP team) inside ingest and drain on engine-drift and inside
  /// harness::build_dataset on offline-fig3.
  double samples = 0.0;
  double cpu_s = 0.0;
  /// Wall time of each run of the workload's operation (see op_name).
  std::vector<double> op_ms;
  const char* op_name = "";
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};
void report(Outcome& out, const char* workload, const EndToEnd& e);

/// The per-layer metrics every workload reports (BENCHMARK.json's
/// per_layer, from the traced run): the layers all three run. Everything
/// else a workload's trace measures goes to Outcome::detail.
struct PerLayer {
  /// core.method.fit: SignatureMethod::fit of every traced method (the
  /// pack's models, the engine's initial fits and refits, the line-up).
  double fit_s = 0.0;
  std::uint64_t fit_calls = 0;
  /// core.method.compute: the CS signature kernel, compute_streaming() on
  /// the streaming workloads and compute() offline.
  double compute_s = 0.0;
  std::uint64_t compute_calls = 0;
  double cpu_s = 0.0;   ///< Process CPU over the traced phase.
  double wall_s = 0.0;  ///< Wall time of the traced phase.
  double overhead_pct = 0.0;
};
void report(Outcome& out, const PerLayer& p);

/// Names of the metrics the result line holds in each mode, in
/// BENCHMARK.json's order; main checks every run against them.
inline const std::vector<std::string> kEndToEndNames = {
    "samples_per_cpu_s", "op_p50_ms", "setup_s", "peak_rss_mb"};
inline const std::vector<std::string> kPerLayerNames = {
    "core.method.fit_s",     "core.method.fit_calls", "core.method.compute_s",
    "core.method.compute_calls", "process.cpu_s",     "process.cores_busy",
    "trace.overhead_pct"};

Outcome run_daemon_fleet(const Args& args);
Outcome run_engine_drift(const Args& args);
Outcome run_offline_fig3(const Args& args);

/// The streaming workloads' seeded inputs: the application segment made
/// with the run's seed, and per node the block it replays (node mod the
/// block count) and a seeded start column. Each node cycles its block in
/// batches of `batch_cols` columns, so the generator keeps one bounded
/// segment resident however long the run.
struct CyclingInputs {
  /// `salt` separates the offset draws of different workloads.
  CyclingInputs(std::uint64_t seed, std::uint64_t salt, std::size_t nodes,
                std::size_t batch_cols);

  const csm::common::Matrix& block(std::size_t node) const {
    return app.blocks[node % app.blocks.size()].sensors;
  }
  /// First column of `node`'s batch in closed-loop round `round`.
  std::size_t column(std::size_t node, std::size_t round) const {
    return (offset[node] + round * batch_cols) % cycle;
  }
  /// Calls fn(chunk) over the first `columns` columns `node` streamed, in
  /// chunks that never cross the cycle's end (the output checks' replay).
  template <typename Fn>
  void replay(std::size_t node, std::size_t columns, Fn&& fn) const {
    std::size_t col = offset[node];
    while (columns > 0) {
      const std::size_t take = std::min(columns, cycle - col);
      fn(block(node).sub_cols(col, take));
      columns -= take;
      col = (col + take) % cycle;
    }
  }

  csm::hpcoda::Segment app;
  std::size_t batch_cols = 0;
  std::size_t cycle = 0;  ///< Columns per cycle (a multiple of batch_cols).
  std::vector<std::size_t> offset;
};

/// Median of a sample (copies; the input order is kept). Throws
/// std::invalid_argument on an empty one.
double median(std::vector<double> values);
/// Nearest-rank quantile q in [0, 1]; throws on an empty sample.
double quantile(std::vector<double> values, double q);

/// Throughput over a closed loop's rounds, reported as the median of
/// per-window rates: a window closes once it holds `window_s` seconds of
/// round time, so a burst of host contention spoils one window, not the
/// run. Time outside rounds (input encoding, scrapes) is never counted.
class RateWindows {
 public:
  explicit RateWindows(double window_s) : window_s_(window_s) {}
  void add(double items, double seconds);
  /// Median window rate; a trailing partial window counts only when no
  /// full window closed.
  double median_rate() const;
  const std::vector<double>& rates() const { return rates_; }

 private:
  double window_s_;
  double items_ = 0.0;
  double seconds_ = 0.0;
  std::vector<double> rates_;
};

/// Prints the window rates behind a median_rate().
void print_windows(const char* workload, const RateWindows& rate);

/// What the rounds of a closed loop's measured phase took.
struct LoopPhase {
  RateWindows rate{kRateWindowSeconds};
  std::vector<double> round_s;
  double samples = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< The program's CPU seconds inside the rounds.

  void add_round(double round_samples, double seconds, double cpu) {
    rate.add(round_samples, seconds);
    round_s.push_back(seconds);
    samples += round_samples;
    wall_s += seconds;
    cpu_s += cpu;
  }
  double samples_per_cpu_s() const { return samples / cpu_s; }
  /// Round-latency quantiles with their sample count. With one round
  /// outstanding they are the reciprocal of the rate, so they are printed,
  /// never gated.
  void print_latency() const;
};

/// The closed loop of both streaming workloads: calls round() (a round on
/// daemon-fleet, an episode of rounds on engine-drift) until at least
/// `min_rounds` calls ran and `seconds` of wall time passed, and returns
/// the number of calls. A warm-up passes kWarmupSeconds; a measured phase
/// passes --seconds and times its rounds itself.
template <typename Round>
std::size_t run_rounds(double seconds, std::size_t min_rounds, Round&& round) {
  const double start = now();
  std::size_t rounds = 0;
  while (rounds < min_rounds || now() - start < seconds) {
    round();
    ++rounds;
  }
  return rounds;
}

/// setup_s: times setup() at least kSetupMinRepeats times and for at least
/// kSetupMinSeconds and returns the median. setup() returns what it stood
/// up, which is torn down outside the timing. daemon-fleet and offline-fig3
/// call this after their measured phase. Set-ups before it, even repeated
/// ones, ran in memory the process had just returned to the OS and paid
/// first-touch page faults: on a shared 4-vCPU host engine-drift's took
/// 25-36 ms before the phase against a steady 14-15 ms after it. The first,
/// cold set-up is printed and not gated.
template <typename Setup>
double median_setup_seconds(const char* workload, Setup&& setup) {
  std::vector<double> seconds;
  const double start = now();
  while (seconds.size() < kSetupMinRepeats ||
         now() - start < kSetupMinSeconds) {
    const double t = now();
    const auto stood_up = setup();
    seconds.push_back(now() - t);
  }
  const auto [lo, hi] = std::minmax_element(seconds.begin(), seconds.end());
  std::printf("%s: setup_s is the median of %zu set-ups (min %.4f s, "
              "max %.4f s)\n",
              workload, seconds.size(), *lo, *hi);
  return median(seconds);
}

/// Counters a traced phase is measured between.
struct Snapshot {
  double t = 0.0;
  Totals totals;
  csm::core::EngineStats engine;
  double process_cpu = 0.0;
  std::map<std::string, double> spans;
};
Snapshot snapshot(const csm::core::StreamEngine& engine);

/// Current resident set / peak resident set of this process, in MiB.
double rss_mib();
double hwm_mib();

/// 64-bit FNV-1a over the bytes of every value, folded into `h`.
std::uint64_t hash_doubles(std::uint64_t h, const std::vector<double>& v);
inline constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ULL;

/// One row of the traced run's wall-time table. Rows with `counted` false
/// are "of which" detail (isolation-pass estimates, stalls) and stay out of
/// the sum.
struct Row {
  std::string name;
  double seconds = 0.0;
  bool counted = true;
};

/// Prints the per-layer table: the counted rows plus an `unattributed` row
/// that makes them add up to `wall_s`, then the detail rows.
void print_layer_table(const std::string& title, double wall_s,
                       const std::vector<Row>& rows);

/// Seconds per call of `body`, timed over at least `min_seconds` and at
/// least `min_calls` calls (the isolation passes).
template <typename Body>
double seconds_per_call(Body&& body, double min_seconds,
                        std::size_t min_calls) {
  const double start = now();
  std::size_t calls = 0;
  double elapsed = 0.0;
  while (calls < min_calls || elapsed < min_seconds) {
    body();
    ++calls;
    elapsed = now() - start;
  }
  return elapsed / static_cast<double>(calls);
}

}  // namespace perfbench
