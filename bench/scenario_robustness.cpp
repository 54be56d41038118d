// Drift-triggered adaptive retrain under adversarial streaming scenarios.
//
// The kOnDrift policy (core::RetrainPolicy) claims two things: under a
// genuine mid-stream regime change it detects and retrains quickly, and on
// a stationary stream it never fires at all. This driver prices both claims
// against the replay::Scenario fault injectors: a stationary correlated
// synthetic stream is mutated by each scenario (clean control, mid-stream
// drift, sensor dropout, NaN sampler gaps, cascading bursts) and pushed
// column by column through a MethodStream per retrain policy (no retrain,
// periodic sync, drift-triggered). Every cell reports throughput, emitted
// signatures, retrain swaps and the kOnDrift counters (windows scored,
// windows flagged, drift retrains); the drift cell additionally reports
// detection latency in samples from scenario onset to the first
// drift-triggered retrain. A cell streams in milliseconds, so one timing
// swings several-fold between runs: each cell runs at least kCellTimings
// times and for at least 50 ms (200 ms at full scale), its median wall time
// is recorded, and each scenario prints the ondrift policy's throughput over
// the no-retrain baseline's.
//
// Hard-FAIL invariants (the acceptance checks for the adaptive policy):
//
//   - the drift-triggered policy on the CLEAN control must report exactly
//     zero drift retrains — any false retrain fails the driver;
//   - under the injected mid-stream drift scenario it must retrain at least
//     once, never before the scenario onset, and within kLatencyBound
//     samples of the onset;
//   - every policy must stream every scenario to completion: a refit over
//     fault-poisoned history (dropout, NaN gaps, bursts) may not kill the
//     stream under any policy. Detector robustness to non-drift faults is
//     reported, not pinned;
//   - the no-retrain baseline must report zero swaps in every scenario, and
//     every policy must emit exactly as many signatures as that baseline
//     (emission cadence is retrain-policy-independent).
//
// Every cell runs even after a check fails: each FAIL is printed and
// counted, the JSON holds every cell, and the run exits 1 at the end.
//
// hpcoda segments are deliberately NOT used here: they are intrinsically
// non-stationary (the fault segment contains faults, the application
// segment has workload phases), so a clean control over them flags
// constantly and the zero-false-retrain check would be meaningless. The
// driver generates its own stationary stream, where "clean" really is.
//
// Runs under the shared benchkit CLI (see --help). All policies within one
// scenario share that scenario's derived seed — the policy comparison
// requires identical input — and every seed lands in the JSON output.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "benchkit/benchkit.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/method_stream.hpp"
#include "core/streaming.hpp"
#include "replay/scenario.hpp"

namespace {

using namespace csm;

// Window-stationary correlated stream: a two-factor model (two shared white
// latents with per-sensor loadings, plus idiosyncratic noise and a
// per-sensor level). Unlike stream_throughput's slow sinusoid — whose ~126
// sample period makes every 60-sample window sit at a different phase — the
// per-window means and pair correlations here are constant up to sampling
// noise, so the drift reference built from the first window stays
// representative for the whole run and a clean control really is quiet
// (measured clean scores: p50 ~0.12, max ~0.23; the drift injector below
// scores >1.5).
common::Matrix factor_stream(std::size_t n, std::size_t t,
                             std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> w1(n), w2(n), level(n);
  for (std::size_t r = 0; r < n; ++r) {
    w1[r] = std::cos(0.4 * static_cast<double>(r));
    w2[r] = std::sin(0.4 * static_cast<double>(r));
    level[r] = 1.0 + 0.25 * static_cast<double>(r);
  }
  common::Matrix s(n, t);
  for (std::size_t c = 0; c < t; ++c) {
    const double z1 = rng.gaussian();
    const double z2 = rng.gaussian();
    for (std::size_t r = 0; r < n; ++r) {
      s(r, c) = level[r] + w1[r] * z1 + w2[r] * z2 + 0.3 * rng.gaussian();
    }
  }
  return s;
}

// One (scenario x policy) cell: the whole mutated stream pushed column by
// column so the first drift-triggered retrain can be located to the sample.
/// Fewest timed runs per (scenario x policy) cell; the median is recorded.
constexpr std::size_t kCellTimings = 5;

struct CellRun {
  std::size_t signatures = 0;
  std::size_t swaps = 0;
  std::size_t drift_windows = 0;
  std::size_t drift_flags = 0;
  std::size_t drift_retrains = 0;
  /// 1-based sample index of the push that fired the first drift retrain.
  std::optional<std::size_t> first_drift_retrain_at;
  /// Non-empty when the stream died mid-run; any death fails the driver.
  std::string error;
};

CellRun run_cell(const std::shared_ptr<const core::SignatureMethod>& method,
                 const core::StreamOptions& opts,
                 const common::ColumnBatch& data) {
  CellRun out;
  core::MethodStream stream(method, opts);
  try {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      if (stream.push(data.col(c))) ++out.signatures;
      if (!out.first_drift_retrain_at && stream.counters().drift_retrains > 0) {
        out.first_drift_retrain_at = c + 1;
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.swaps = stream.retrain_count();
  out.drift_windows = stream.counters().drift_windows;
  out.drift_flags = stream.counters().drift_flags;
  out.drift_retrains = stream.counters().drift_retrains;
  return out;
}

}  // namespace

namespace csm::benchkit {

Setup bench_setup() {
  return {"scenario_robustness",
          "drift-triggered adaptive retrain vs periodic and no-retrain "
          "baselines under adversarial streaming scenarios (clean control, "
          "mid-stream drift, dropout, NaN gaps, cascading bursts), with "
          "detection latency and false-retrain-rate per cell",
          0, ""};
}

int bench_run(Runner& run) {
  const bool quick = run.quick();

  const std::size_t sensors = 24;
  const std::size_t t = quick ? 6000 : 16384;
  const std::size_t onset = t / 2;  // Drift scenario switches regime here.
  // Detection budget from onset to the firing retrain: the reference is
  // scored every window_step samples and the patience streak must fill, so
  // the floor is window_step * patience; the budget leaves ~10x headroom
  // for the scorer to climb past the threshold.
  const std::size_t kLatencyBound = 600;

  core::StreamOptions base;
  base.window_length = 60;
  base.window_step = 10;
  base.history_length = 2048;

  // Tuned on the factor-model generator: clean windows score ~0.12 with a
  // measured max of ~0.23; the drift injector below scores >1.5 from its
  // first mutated window. 0.5 sits over 2x above the clean maximum and 3x
  // below the drifted minimum. Patience 3 means an isolated fluke window
  // can never fire a retrain on its own.
  const double drift_threshold = 0.5;
  const std::size_t drift_patience = 3;
  const std::size_t periodic_interval = 2048;
  const double min_cell_seconds = quick ? 0.05 : 0.2;

  struct ScenarioCase {
    const char* label;
    std::string spec;  ///< "" = clean control.
  };
  const ScenarioCase scenarios[] = {
      {"clean", ""},
      {"drift",
       "drift:at=" + std::to_string(onset) + ",mix=0.6,gain=1.6"},
      {"dropout", "dropout:p=0.02,len=40"},
      {"nan", "nan:p=0.01,len=25"},
      {"cascade", "cascade:p=0.02,len=60,span=8,mag=2.5"},
  };

  struct PolicyCase {
    const char* label;
    core::RetrainPolicy policy;
  };
  const PolicyCase policies[] = {
      {"off", core::RetrainPolicy::kSync},      // interval 0: never retrains.
      {"periodic", core::RetrainPolicy::kSync},
      {"ondrift", core::RetrainPolicy::kOnDrift},
  };

  std::printf("== Scenario robustness: retrain policies under adversarial "
              "streams (%zu sensors, %zu samples, wl=%zu ws=%zu) ==\n",
              sensors, t, base.window_length, base.window_step);
  std::printf("ondrift: threshold=%.2f patience=%zu; periodic: interval=%zu; "
              "drift onset at sample %zu\n",
              drift_threshold, drift_patience, periodic_interval, onset);
  int failures = 0;  // FAILs so far; every cell still runs.
  std::printf("%10s %10s %12s %6s %6s %8s %6s %9s %9s\n", "scenario",
              "policy", "smp/s", "sigs", "swaps", "windows", "flags",
              "retrains", "latency");

  for (const ScenarioCase& sc : scenarios) {
    const std::uint64_t seed = run.derive_seed(std::string("scenario/") +
                                               sc.label);
    // The model is fit on a clean prefix — the live deployment story:
    // trained at standup, faults arrive later. The streamed data is the
    // scenario-mutated copy (the clean control streams the original).
    const common::Matrix clean = factor_stream(sensors, t, seed);
    const std::shared_ptr<const core::SignatureMethod> method =
        baselines::default_registry()
            .create("cs:blocks=8")
            ->fit(clean.sub_cols(0, 2000));
    common::ColumnBatch data(clean);
    if (!sc.spec.empty()) {
      replay::Scenario scenario = replay::Scenario::parse(sc.spec, seed);
      scenario.apply(0, 0, data);
    }

    std::size_t baseline_signatures = 0;
    double off_rate = 0.0;
    double ondrift_rate = 0.0;
    for (const PolicyCase& pc : policies) {
      core::StreamOptions opts = base;
      opts.retrain_policy = pc.policy;
      if (pc.policy == core::RetrainPolicy::kOnDrift) {
        opts.drift_threshold = drift_threshold;
        opts.drift_patience = drift_patience;
      } else if (std::string(pc.label) == "periodic") {
        opts.retrain_interval = periodic_interval;
      }

      const std::string name =
          std::string(sc.label) + "/" + pc.label;
      // Every run of a cell is deterministic; only its timing varies.
      CellRun cell;
      std::vector<double> wall;
      double total = 0.0;
      while (wall.size() < kCellTimings || total < min_cell_seconds) {
        const common::Timer timer;
        cell = run_cell(method, opts, data);
        wall.push_back(timer.seconds());
        total += wall.back();
      }
      const auto mid =
          wall.begin() + static_cast<std::ptrdiff_t>(wall.size() / 2);
      std::nth_element(wall.begin(), mid, wall.end());
      CaseResult& result = run.record(name, *mid, static_cast<double>(t));
      result.repetitions = wall.size();
      if (std::string(pc.label) == "off") off_rate = result.items_per_sec;
      if (pc.policy == core::RetrainPolicy::kOnDrift) {
        ondrift_rate = result.items_per_sec;
      }
      result.seed = seed;
      result.param("scenario", sc.spec.empty() ? "clean" : sc.spec);
      result.param("policy", pc.label);
      result.param("sensors", std::to_string(sensors));
      result.param("samples", std::to_string(t));
      result.metric("signatures", static_cast<double>(cell.signatures));
      result.metric("retrain_swaps", static_cast<double>(cell.swaps));
      result.metric("drift_windows", static_cast<double>(cell.drift_windows));
      result.metric("drift_flags", static_cast<double>(cell.drift_flags));
      result.metric("drift_retrains",
                    static_cast<double>(cell.drift_retrains));
      // False-retrain rate: drift retrains per scored window. Only the
      // clean control pins it to zero; fault scenarios report it.
      if (cell.drift_windows > 0) {
        result.metric("false_retrain_rate",
                      static_cast<double>(cell.drift_retrains) /
                          static_cast<double>(cell.drift_windows));
      }

      char latency_buf[32];
      std::snprintf(latency_buf, sizeof(latency_buf), "%s", "-");
      // Detection latency only means something where there is an onset to
      // measure from — the drift scenario.
      if (pc.policy == core::RetrainPolicy::kOnDrift &&
          std::string(sc.label) == "drift" && cell.first_drift_retrain_at) {
        const std::size_t fired = *cell.first_drift_retrain_at;
        const std::size_t latency = fired > onset ? fired - onset : 0;
        result.metric("detection_latency_samples",
                      static_cast<double>(latency));
        std::snprintf(latency_buf, sizeof(latency_buf), "%zu", latency);
      }
      std::printf("%10s %10s %12.0f %6zu %6zu %8zu %6zu %9zu %9s\n",
                  sc.label, pc.label, result.items_per_sec, cell.signatures,
                  cell.swaps, cell.drift_windows, cell.drift_flags,
                  cell.drift_retrains, latency_buf);
      if (!cell.error.empty()) {
        result.metric("stream_died", 1.0);
        std::printf("%10s %10s   stream died mid-run: %s\n", "", "",
                    cell.error.c_str());
      }

      // -- Hard-FAIL invariants ------------------------------------------
      const std::string policy_label = pc.label;
      if (!cell.error.empty()) {
        std::fprintf(stderr, "FAIL: %s died mid-stream: %s\n", name.c_str(),
                     cell.error.c_str());
        ++failures;
      }
      if (policy_label == "off") {
        baseline_signatures = cell.signatures;
        if (cell.swaps != 0 || cell.drift_retrains != 0) {
          std::fprintf(stderr,
                       "FAIL: no-retrain baseline retrained under %s "
                       "(%zu swaps, %zu drift retrains)\n",
                       sc.label, cell.swaps, cell.drift_retrains);
          ++failures;
        }
      } else if (cell.signatures != baseline_signatures) {
        std::fprintf(stderr,
                     "FAIL: %s emitted %zu signatures, baseline emitted "
                     "%zu\n", name.c_str(), cell.signatures,
                     baseline_signatures);
        ++failures;
      }
      if (pc.policy == core::RetrainPolicy::kOnDrift) {
        if (std::string(sc.label) == "clean" && cell.drift_retrains != 0) {
          std::fprintf(stderr,
                       "FAIL: drift detector fired %zu false retrain(s) on "
                       "the stationary clean control\n", cell.drift_retrains);
          ++failures;
        }
        if (std::string(sc.label) == "drift") {
          const std::size_t fired = cell.first_drift_retrain_at.value_or(0);
          if (fired == 0) {
            std::fprintf(stderr,
                         "FAIL: drift detector never retrained under the "
                         "injected regime change (max score never held "
                         "%.2f for %zu windows)\n",
                         drift_threshold, drift_patience);
            ++failures;
          } else if (fired <= onset) {
            std::fprintf(stderr,
                         "FAIL: drift retrain fired at sample %zu, before "
                         "the scenario onset at %zu\n", fired, onset);
            ++failures;
          } else if (fired - onset > kLatencyBound) {
            std::fprintf(stderr,
                         "FAIL: drift detection latency %zu samples "
                         "exceeds the %zu-sample budget\n",
                         fired - onset, kLatencyBound);
            ++failures;
          }
        }
      }
    }
    std::printf("%10s ondrift/off throughput: %.2f\n", sc.label,
                ondrift_rate / off_rate);
  }

  if (failures != 0) {
    std::fprintf(stderr, "scenario_robustness: %d check(s) FAILED\n",
                 failures);
    return 1;
  }
  std::printf("\nOK: clean control fired zero false retrains; injected "
              "drift detected within %zu samples of onset\n", kLatencyBound);
  return 0;
}

}  // namespace csm::benchkit
