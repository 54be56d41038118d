// Online ingestion throughput: the ring-buffer CS stream vs the erase-front
// history it replaced, window-copy emit vs the stream's emit, the CS stream
// state vs compute_streaming per window, and StreamEngine scaling across
// node counts.
//
// The paper's in-band ODA claim only holds if the per-sample cost of the
// online path is independent of how much history a stream retains. The
// original CS stream kept its history in a std::vector<std::vector<double>>:
// one heap allocation per push and an O(history) erase-front once the
// buffer was full, so throughput degraded as history_length grew.
// NaiveStream below reproduces that implementation verbatim as the
// "before" baseline; the library MethodStream driving the CS method
// (common::RingMatrix) is the "after". The copy-vs-view table isolates the
// emit path: CopyStream reproduces the pre-MatrixView emit (copy_latest
// window assembly + sorted/derivative temporaries per signature) while
// MethodStream emits from the CS stream state, which normalised each column
// once on push — the two must emit identical signatures, and the stream
// must not be slower at any history length. The cs-emit table then splits
// that stream emit from the rest of the stream: per window, the stream
// state against compute_streaming over the same ring windows (which
// normalises every column once per window it lies in), at the daemon's
// shape and Table I's, with a byte-identity check per shape and no speed
// gate. The engine table fans synthetic node fleets through StreamEngine
// and reports aggregate samples/sec, and the driver exits non-zero if
// StreamEngine ever disagrees with per-node MethodStream runs.
//
// The cold-start table measures the fleet-standup path the ModelPack exists
// for: reviving all N trained node models, once from N per-file CSMB models
// (open + read + decode each) and once from a single mmap-ed pack (open
// once, decode N records). Engines stood up from the two load paths must
// emit identical signatures on identical input, and the driver fails if the
// pack path is not at least 2x faster.
//
// The train-kernel table prices the retrain fit itself: the cache-tiled
// shifted-correlation pass against the scalar reference it replaced, with a
// bit-identity probe (the driver fails on a single differing byte) and a 2x
// speedup floor at n=1024. The kOnDrift table prices drift scoring per
// window: the drift_score rescan of every window against the chunk-summary
// DriftTracker the stream runs (reported, not gated). The retrain-policy
// table then pushes the same single-node stream under no retraining,
// inline (sync) retraining and shadow-fit (async) retraining, recording
// per-push wall times: the sync stall surfaces in the p99/max columns, and
// the run fails if async ingest p99 with retrains firing exceeds 5x the
// no-retrain baseline. Each run ends by draining the retrain pool and
// pushing one more window step, so every fired retrain is swapped in or
// aborted by the time the counters are read.
//
// Every section runs even after a check fails: each FAIL is printed and
// counted, and the run exits 1 once the JSON is written, so one missed
// floor never hides the sections after it.
//
// Runs under the shared benchkit CLI (see --help). Naive and ring cases at
// one sweep point share the same derived data seed — the before/after
// comparison requires identical input — while distinct sweep points get
// distinct seeds, all recorded in the JSON output.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "benchkit/benchkit.hpp"
#include "common/matrix.hpp"
#include "common/ring_matrix.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/method_registry.hpp"
#include "core/method_stream.hpp"
#include "core/model_codec.hpp"
#include "core/model_pack.hpp"
#include "core/pipeline.hpp"
#include "core/retrain_executor.hpp"
#include "core/smoothing.hpp"
#include "core/stream_engine.hpp"
#include "core/streaming.hpp"
#include "core/training.hpp"
#include "stats/correlation.hpp"
#include "stats/drift.hpp"
#include "stats/finite_diff.hpp"

namespace {

using namespace csm;

common::Matrix synthetic_stream(std::size_t n, std::size_t t,
                                std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.05 * static_cast<double>(c) +
                         0.3 * static_cast<double>(r)) +
                0.1 * rng.gaussian();
    }
  }
  return s;
}

// The CS method streaming over a pre-trained model, emitting both channels
// (the flat form of what the verbatim baselines below return).
std::shared_ptr<const core::SignatureMethod> cs_method(core::CsModel model,
                                                       std::size_t blocks) {
  return std::make_shared<const core::CsSignatureMethod>(
      std::make_shared<const core::CsPipeline>(std::move(model),
                                               core::CsOptions{blocks, false}));
}

// The pre-ring-buffer CS stream, kept verbatim as the "before" baseline:
// vector-of-vectors history with erase-front eviction and element-by-element
// window assembly. Retraining omitted (disabled in the comparison anyway).
class NaiveStream {
 public:
  NaiveStream(core::CsModel model, core::StreamOptions options,
              std::size_t blocks)
      : model_(std::move(model)), options_(options), blocks_(blocks) {
    history_.reserve(options_.history_length);
    next_emit_at_ = options_.window_length;
  }

  std::optional<core::Signature> push(std::span<const double> column) {
    if (history_.size() == options_.history_length) {
      history_.erase(history_.begin());  // O(history) shift on every push.
    }
    history_.emplace_back(column.begin(), column.end());
    ++samples_seen_;

    if (samples_seen_ < next_emit_at_) return std::nullopt;
    next_emit_at_ += options_.window_step;

    const std::size_t n = model_.n_sensors();
    const std::size_t wl = options_.window_length;
    const bool have_seed = history_.size() > wl;
    const std::size_t first = history_.size() - wl;
    common::Matrix window(n, wl);
    for (std::size_t c = 0; c < wl; ++c) {
      for (std::size_t r = 0; r < n; ++r) {
        window(r, c) = history_[first + c][r];
      }
    }
    const common::Matrix sorted = model_.sort(window);
    common::Matrix derivs;
    if (have_seed) {
      common::Matrix seed_col(n, 1);
      for (std::size_t r = 0; r < n; ++r) {
        seed_col(r, 0) = history_[first - 1][r];
      }
      const common::Matrix sorted_seed = model_.sort(seed_col);
      derivs = stats::backward_diff_rows_seeded(sorted, sorted_seed.col(0));
    } else {
      derivs = stats::backward_diff_rows(sorted);
    }
    return core::smooth(sorted, derivs, blocks_);
  }

 private:
  core::CsModel model_;
  core::StreamOptions options_;
  std::size_t blocks_;
  std::vector<std::vector<double>> history_;
  std::size_t samples_seen_ = 0;
  std::size_t next_emit_at_ = 0;
};

std::size_t run_naive(const core::CsModel& model,
                      const core::StreamOptions& opts, std::size_t blocks,
                      const common::Matrix& data) {
  NaiveStream stream(model, opts, blocks);
  std::vector<double> column(data.rows());
  std::size_t sigs = 0;
  for (std::size_t c = 0; c < data.cols(); ++c) {
    for (std::size_t r = 0; r < data.rows(); ++r) column[r] = data(r, c);
    if (stream.push(column)) ++sigs;
  }
  return sigs;
}

// The pre-MatrixView CS stream emit path, kept verbatim as the copy-vs-view
// "before" baseline: ring-buffer ingest (that part stays), but every emit
// assembles the window with copy_latest into a reused matrix, materialises
// a sorted matrix, a sorted seed and a derivative matrix, then smooths.
class CopyStream {
 public:
  CopyStream(core::CsModel model, core::StreamOptions options,
             std::size_t blocks)
      : model_(std::move(model)),
        options_(options),
        blocks_(blocks),
        history_(model_.n_sensors(), options_.history_length),
        window_(model_.n_sensors(), options_.window_length),
        seed_col_(model_.n_sensors(), 1) {
    next_emit_at_ = options_.window_length;
  }

  std::vector<core::Signature> push_all(const common::Matrix& columns) {
    std::vector<core::Signature> out;
    for (std::size_t c = 0; c < columns.cols(); ++c) {
      const std::span<double> slot = history_.push_slot();
      const double* src = columns.data() + c;
      const std::size_t stride = columns.cols();
      for (std::size_t r = 0; r < slot.size(); ++r) slot[r] = src[r * stride];
      ++samples_seen_;
      if (samples_seen_ < next_emit_at_) continue;
      next_emit_at_ += options_.window_step;

      const std::size_t n = model_.n_sensors();
      const std::size_t wl = options_.window_length;
      const bool have_seed = history_.size() > wl;
      history_.copy_latest(wl, window_);
      const common::Matrix sorted = model_.sort(window_);
      common::Matrix derivs;
      if (have_seed) {
        const std::span<const double> seed = history_.newest(wl);
        for (std::size_t r = 0; r < n; ++r) seed_col_(r, 0) = seed[r];
        const common::Matrix sorted_seed = model_.sort(seed_col_);
        derivs = stats::backward_diff_rows_seeded(sorted, sorted_seed.col(0));
      } else {
        derivs = stats::backward_diff_rows(sorted);
      }
      out.push_back(core::smooth(sorted, derivs, blocks_));
    }
    return out;
  }

 private:
  core::CsModel model_;
  core::StreamOptions options_;
  std::size_t blocks_;
  common::RingMatrix history_;
  common::Matrix window_;
  common::Matrix seed_col_;
  std::size_t samples_seen_ = 0;
  std::size_t next_emit_at_ = 0;
};

std::size_t run_ring(const std::shared_ptr<const core::SignatureMethod>& method,
                     const core::StreamOptions& opts,
                     const common::Matrix& data) {
  core::MethodStream stream(method, opts);
  return stream.push_all(data).size();
}

bool engine_matches_per_node_streams(const core::StreamOptions& opts,
                                     std::size_t blocks, std::uint64_t seed) {
  const std::size_t n_nodes = 8;
  core::StreamEngine engine(opts);
  std::vector<common::Matrix> batches;
  std::vector<std::shared_ptr<const core::SignatureMethod>> methods;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    batches.push_back(synthetic_stream(24, 600, seed + i));
    methods.push_back(cs_method(core::train(batches.back()), blocks));
    engine.add_node("node", methods.back());
  }
  engine.ingest_batch(batches);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    core::MethodStream reference(methods[i], opts);
    if (engine.drain(i) != reference.push_all(batches[i])) return false;
  }
  return true;
}

// One retrain-policy run: the whole batch pushed column by column through a
// MethodStream with per-push wall time recorded, so the retrain tables can
// quote ingest latency quantiles rather than throughput alone.
struct RetrainRun {
  std::size_t signatures = 0;
  std::size_t swaps = 0;
  std::size_t aborts = 0;
  std::vector<double> push_us;  ///< One wall-clock entry per push.
};

RetrainRun run_retrain_policy(
    const std::shared_ptr<const core::SignatureMethod>& method,
    const core::StreamOptions& opts, const common::Matrix& data) {
  RetrainRun out;
  out.push_us.reserve(data.cols());
  core::RetrainExecutor pool(opts.retrain_threads);  // Outlives the stream.
  core::MethodStream stream(method, opts, 0, &pool);
  std::vector<double> column(data.rows());
  const auto push = [&](std::size_t c) {
    for (std::size_t r = 0; r < data.rows(); ++r) column[r] = data(r, c);
    if (stream.push(column)) ++out.signatures;
  };
  for (std::size_t c = 0; c < data.cols(); ++c) {
    const auto t0 = std::chrono::steady_clock::now();
    push(c);
    const auto t1 = std::chrono::steady_clock::now();
    out.push_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  // Untimed tail, the same under every policy: wait for the last fit the
  // run launched, then push one more window step so an emit boundary swaps
  // it in. Every fired retrain is then swapped in or aborted, whatever the
  // host's fit-vs-ingest timing was.
  pool.drain();
  for (std::size_t c = 0; c < opts.window_step; ++c) push(c);
  out.swaps = stream.retrain_count();
  out.aborts = stream.counters().retrain_aborts;
  return out;
}

// kOnDrift scoring over one stream, the way MethodStream runs it: a ring
// push per column and, at each emitted window, a score against the
// reference taken from the first window. `rescan` scores each window with
// stats::drift_score over the ring's view; otherwise a stats::DriftTracker
// summarises the columns as they arrive. `scores` receives each score.
void score_drift_windows(const common::Matrix& data, std::size_t wl,
                         std::size_t ws, bool rescan,
                         std::vector<double>& scores) {
  const std::size_t n = data.rows();
  common::RingMatrix ring(n, 1024);
  stats::DriftTracker tracker(n, wl, ws);
  stats::DriftReference ref;
  scores.clear();
  for (std::size_t c = 0; c < data.cols(); ++c) {
    const std::span<double> slot = ring.push_slot();
    for (std::size_t r = 0; r < n; ++r) slot[r] = data(r, c);
    bool due = false;
    if (rescan) {
      due = c + 1 >= wl && (c + 1 - wl) % ws == 0;
    } else {
      due = tracker.push(slot);
    }
    if (!due) continue;
    if (ref.empty()) {
      ref = rescan ? stats::make_drift_reference(ring.latest_view(wl))
                   : tracker.reference();
      continue;
    }
    scores.push_back(rescan ? stats::drift_score(ring.latest_view(wl), ref)
                            : tracker.score(ref));
  }
}

// The CS emit over one stream, the way MethodStream runs it: a ring push
// per column and, at each window end, the signature of the newest wl
// columns seeded with the column before them — from the method's stream
// state when `use_state` (fed every pushed column), otherwise from
// compute_streaming over the ring's view. `out` receives every signature.
void emit_cs_windows(const core::SignatureMethod& method,
                     const common::Matrix& data, std::size_t wl,
                     std::size_t ws, bool use_state,
                     std::vector<std::vector<double>>& out) {
  const std::size_t n = data.rows();
  common::RingMatrix ring(n, 1024);
  const std::unique_ptr<core::StreamState> state =
      use_state ? method.make_stream_state(wl) : nullptr;
  out.clear();
  for (std::size_t c = 0; c < data.cols(); ++c) {
    const std::span<double> slot = ring.push_slot();
    for (std::size_t r = 0; r < n; ++r) slot[r] = data(r, c);
    if (state) state->push(slot);
    if (c + 1 < wl || (c + 1 - wl) % ws != 0) continue;
    const bool seeded = ring.size() > wl;
    if (state) {
      out.push_back(state->emit(seeded));
      continue;
    }
    const common::MatrixView window = ring.latest_view(wl);
    if (seeded) {
      const std::span<const double> seed = ring.newest(wl);
      out.push_back(method.compute_streaming(window, &seed));
    } else {
      out.push_back(method.compute_streaming(window, nullptr));
    }
  }
}

bool same_bytes(const std::vector<std::vector<double>>& a,
                const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

double quantile_us(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

}  // namespace

namespace csm::benchkit {

Setup bench_setup() {
  return {"stream_throughput",
          "CS stream push path (erase-front history vs ring buffer), "
          "the CS emit per window (stream state vs compute_streaming), "
          "StreamEngine fleet-scaling throughput, fleet cold-start from "
          "per-file models vs one model pack, the training kernel, kOnDrift "
          "scoring per window and the retrain policies",
          kFlagOutDir, ""};
}

int bench_run(Runner& run) {
  const bool quick = run.quick();
  int failures = 0;  // FAILs so far; every section still runs.

  core::StreamOptions opts;
  opts.window_length = 60;
  opts.window_step = 10;
  const std::size_t blocks = 20;

  const std::vector<std::size_t> sensor_counts =
      quick ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64};
  const std::vector<std::size_t> histories =
      quick ? std::vector<std::size_t>{512, 4096}
            : std::vector<std::size_t>{1024, 4096, 16384};

  std::printf("== CS stream push path: erase-front history vs ring buffer "
              "(wl=60, ws=10) ==\n");
  std::printf("%8s %9s %9s %15s %15s %9s\n", "sensors", "history", "samples",
              "naive (smp/s)", "ring (smp/s)", "speedup");
  for (std::size_t n : sensor_counts) {
    for (std::size_t history : histories) {
      // The stream must outlive the history several times over, otherwise
      // the naive buffer never fills and erase-front never runs.
      const std::size_t t =
          std::max<std::size_t>(5 * history, quick ? 8000 : 20000);
      const std::string point = "n=" + std::to_string(n) +
                                "/hist=" + std::to_string(history);
      // One seed per sweep point, shared by the naive and ring cases: the
      // before/after comparison requires identical input data.
      const std::uint64_t seed = run.derive_seed("push/" + point);
      const common::Matrix data = synthetic_stream(n, t, seed);
      const core::CsModel model =
          core::train(data.sub_cols(0, std::min<std::size_t>(t, 4000)));
      const auto method = cs_method(model, blocks);
      opts.history_length = history;

      std::size_t naive_sigs = 0;
      std::size_t ring_sigs = 0;
      CaseResult& naive = run.measure(
          "naive/" + point, static_cast<double>(t),
          [&] { naive_sigs = run_naive(model, opts, blocks, data); });
      CaseResult& ring =
          run.measure("ring/" + point, static_cast<double>(t),
                      [&] { ring_sigs = run_ring(method, opts, data); });
      for (CaseResult* c : {&naive, &ring}) {
        c->seed = seed;
        c->param("sensors", std::to_string(n));
        c->param("history", std::to_string(history));
        c->param("samples", std::to_string(t));
      }
      naive.metric("signatures", static_cast<double>(naive_sigs));
      ring.metric("signatures", static_cast<double>(ring_sigs));
      if (naive_sigs != ring_sigs) {
        std::fprintf(stderr, "FAIL: signature count mismatch (%zu vs %zu)\n",
                     naive_sigs, ring_sigs);
        ++failures;
      }
      std::printf("%8zu %9zu %9zu %15.0f %15.0f %8.1fx\n", n, history, t,
                  naive.items_per_sec, ring.items_per_sec,
                  ring.items_per_sec / naive.items_per_sec);
    }
  }

  std::printf("\n== CS stream emit path: window copy vs MethodStream "
              "(wl=60, ws=10) ==\n");
  std::printf("%8s %9s %9s %15s %15s %9s\n", "sensors", "history", "samples",
              "copy (smp/s)", "view (smp/s)", "speedup");
  for (std::size_t n : sensor_counts) {
    for (std::size_t history : histories) {
      // Long enough that the ring wraps and emits dominate; shared seed so
      // copy and view consume identical input.
      const std::size_t t =
          std::max<std::size_t>(3 * history, quick ? 8000 : 20000);
      const std::string point = "n=" + std::to_string(n) +
                                "/hist=" + std::to_string(history);
      const std::uint64_t seed = run.derive_seed("emit/" + point);
      const common::Matrix data = synthetic_stream(n, t, seed);
      const core::CsModel model =
          core::train(data.sub_cols(0, std::min<std::size_t>(t, 4000)));
      const auto method = cs_method(model, blocks);
      opts.history_length = history;

      std::vector<core::Signature> copy_sigs;
      std::vector<std::vector<double>> view_sigs;
      CaseResult& copy =
          run.measure("window-copy/" + point, static_cast<double>(t), [&] {
            CopyStream stream(model, opts, blocks);
            copy_sigs = stream.push_all(data);
          });
      CaseResult& view =
          run.measure("window-view/" + point, static_cast<double>(t), [&] {
            core::MethodStream stream(method, opts);
            view_sigs = stream.push_all(data);
          });
      for (CaseResult* c : {&copy, &view}) {
        c->seed = seed;
        c->param("sensors", std::to_string(n));
        c->param("history", std::to_string(history));
        c->param("samples", std::to_string(t));
      }
      copy.metric("signatures", static_cast<double>(copy_sigs.size()));
      view.metric("signatures", static_cast<double>(view_sigs.size()));
      bool same = copy_sigs.size() == view_sigs.size();
      for (std::size_t k = 0; same && k < copy_sigs.size(); ++k) {
        same = copy_sigs[k].flatten() == view_sigs[k];
      }
      if (!same) {
        std::fprintf(stderr,
                     "FAIL: view emit differs from copy emit at %s\n",
                     point.c_str());
        ++failures;
      }
      // The invariant this driver guards: the stream emit must not be
      // slower than the copy emit at any sweep point. The 10% grace absorbs
      // shared-runner jitter (the stream, emitting from the CS stream
      // state, measures ~4-5x in practice), so tripping this means the
      // invariant actually broke.
      if (view.items_per_sec < 0.9 * copy.items_per_sec) {
        std::fprintf(stderr,
                     "FAIL: view emit slower than copy emit at %s "
                     "(%.0f vs %.0f smp/s)\n",
                     point.c_str(), view.items_per_sec, copy.items_per_sec);
        ++failures;
      }
      std::printf("%8zu %9zu %9zu %15.0f %15.0f %8.2fx\n", n, history, t,
                  copy.items_per_sec, view.items_per_sec,
                  view.items_per_sec / copy.items_per_sec);
    }
  }

  // CS emit per window: the stream state against compute_streaming over the
  // same ring windows, ring push included on both sides, at the daemon's
  // shape (52 sensors, wl/ws 30/5, CS-20), Table I's (128, 60/10, CS-20)
  // and a narrow CS-5 one. Reported, not gated; each shape FAILs on a
  // single differing byte.
  {
    std::printf("\n== CS emit per window: stream state vs compute_streaming "
                "over the ring view ==\n");
    std::printf("%8s %9s %9s %15s %15s %9s\n", "sensors", "shape",
                "windows", "view (us/w)", "state (us/w)", "speedup");
    const std::size_t emit_t = quick ? 6000 : 24000;
    const std::size_t shapes[][4] = {
        {52, 30, 5, 20}, {128, 60, 10, 20}, {24, 60, 10, 5}};
    for (const auto& shape : shapes) {
      const std::size_t n = shape[0], wl = shape[1], ws = shape[2];
      const std::size_t l = shape[3];
      const std::string point = "n=" + std::to_string(n) +
                                "/wl=" + std::to_string(wl) +
                                "/ws=" + std::to_string(ws) +
                                "/l=" + std::to_string(l);
      // Shared seed: both sides consume identical input.
      const std::uint64_t seed = run.derive_seed("cs-emit/" + point);
      const common::Matrix data = synthetic_stream(n, emit_t, seed);
      const auto method = cs_method(core::train(data.sub_cols(0, 2000)), l);
      const std::size_t windows = (emit_t - wl) / ws + 1;
      std::vector<std::vector<double>> view_sigs;
      std::vector<std::vector<double>> state_sigs;
      CaseResult& view = run.measure(
          "cs-emit/view/" + point, static_cast<double>(windows),
          [&] { emit_cs_windows(*method, data, wl, ws, false, view_sigs); });
      CaseResult& state = run.measure(
          "cs-emit/state/" + point, static_cast<double>(windows),
          [&] { emit_cs_windows(*method, data, wl, ws, true, state_sigs); });
      for (CaseResult* c : {&view, &state}) {
        c->seed = seed;
        c->param("sensors", std::to_string(n));
        c->param("samples", std::to_string(emit_t));
        c->param("blocks", std::to_string(l));
        c->metric("us_per_window", 1e6 / c->items_per_sec);
      }
      const double speedup = state.items_per_sec / view.items_per_sec;
      state.metric("speedup_vs_view", speedup);
      if (view_sigs.size() != windows || !same_bytes(view_sigs, state_sigs)) {
        std::fprintf(stderr,
                     "FAIL: CS stream state emit differs from "
                     "compute_streaming at %s\n", point.c_str());
        ++failures;
      }
      std::printf("%8zu %9s %9zu %15.2f %15.2f %8.2fx\n", n,
                  (std::to_string(wl) + "/" + std::to_string(ws)).c_str(),
                  windows, 1e6 / view.items_per_sec,
                  1e6 / state.items_per_sec, speedup);
    }
  }

  const std::size_t fleet_t = quick ? 4000 : 20000;
  std::printf("\n== StreamEngine fleet scaling (32 sensors/node, history "
              "4096, %zu samples/node) ==\n", fleet_t);
  opts.history_length = 4096;
  std::printf("%8s %15s %15s %12s\n", "nodes", "samples", "agg smp/s",
              "signatures");
  for (std::size_t nodes : {1u, 4u, 16u}) {
    const std::string name = "engine/nodes=" + std::to_string(nodes);
    const std::uint64_t seed = run.derive_seed(name);
    std::vector<common::Matrix> batches;
    std::vector<std::shared_ptr<const core::SignatureMethod>> methods;
    for (std::size_t i = 0; i < nodes; ++i) {
      batches.push_back(synthetic_stream(32, fleet_t, seed + i));
      methods.push_back(cs_method(core::train(batches.back()), blocks));
    }
    std::size_t signatures = 0;
    CaseResult& result = run.measure(
        name, static_cast<double>(nodes * fleet_t), [&] {
          core::StreamEngine engine(opts);
          for (std::size_t i = 0; i < nodes; ++i) {
            engine.add_node("node", methods[i]);
          }
          engine.ingest_batch(batches);
          signatures = engine.stats().signatures;
        });
    result.param("nodes", std::to_string(nodes));
    result.param("samples_per_node", std::to_string(fleet_t));
    result.metric("signatures", static_cast<double>(signatures));
    std::printf("%8zu %15llu %15.0f %12llu\n", nodes,
                static_cast<unsigned long long>(nodes * fleet_t),
                result.items_per_sec,
                static_cast<unsigned long long>(signatures));
  }

  // Fleet cold-start: the same N trained models land on disk twice — once
  // as N per-file CSMB records, once inside a single pack —
  // and each layout stands up a fresh StreamEngine from zero. Only the
  // standup is timed; fixture writing happens outside the measured lambdas.
  namespace fs = std::filesystem;
  const std::size_t cold_nodes = quick ? 2000 : 100000;
  const std::size_t cold_distinct = 32;  // Distinct models, replicated.
  const std::uint64_t cold_seed = run.derive_seed("coldstart");
  const auto& registry = baselines::default_registry();

  const fs::path work_dir = run.opts().out_dir
                                ? fs::path(*run.opts().out_dir)
                                : fs::temp_directory_path() /
                                      ("csm_coldstart_" +
                                       std::to_string(run.opts().seed));
  const fs::path model_dir = work_dir / "models";
  const fs::path pack_file = work_dir / "fleet.pack";
  fs::create_directories(model_dir);

  std::printf("\n== Fleet cold-start: %zu nodes, per-file CSMB models vs "
              "one mmap-ed pack ==\n", cold_nodes);
  const int failures_before_cold_start = failures;
  [&] {  // A lambda, so a fixture write failure can leave just this section.
    // 32 distinct 32-sensor CS models; node i carries model i % 32. The
    // record of each is encoded once and replicated, so fixture setup is
    // file-I/O bound, not codec bound.
    const std::size_t cold_sensors = 32;
    std::vector<std::vector<std::uint8_t>> records;
    const auto untrained = registry.create("cs:blocks=4");
    for (std::size_t k = 0; k < cold_distinct; ++k) {
      const auto trained =
          untrained->fit(synthetic_stream(cold_sensors, 400, cold_seed + k));
      records.push_back(core::codec::encode_binary(*trained));
    }

    std::vector<std::string> ids;
    ids.reserve(cold_nodes);
    core::ModelPackWriter writer(pack_file);
    for (std::size_t i = 0; i < cold_nodes; ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "node%06zu", i);
      ids.emplace_back(buf);
      const std::vector<std::uint8_t>& record = records[i % cold_distinct];
      std::ofstream out(model_dir / (ids.back() + ".csmb"),
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(record.data()),
                static_cast<std::streamsize>(record.size()));
      if (!out) {
        std::fprintf(stderr, "FAIL: cannot write cold-start fixtures\n");
        ++failures;
        return;
      }
      writer.add_record(ids.back(), record);
    }
    writer.finish();

    // The timed region is model revival only — the part the pack changes:
    // open + read + decode one file per node versus mmap once + decode each
    // record. Downstream engine registration costs the same either way
    // and is exercised (unmeasured) by the equivalence probe below.
    const std::string cold_point = "nodes=" + std::to_string(cold_nodes);
    std::vector<std::shared_ptr<const core::SignatureMethod>> from_files;
    CaseResult& files_case =
        run.measure("coldstart-files/" + cold_point,
                    static_cast<double>(cold_nodes), [&] {
          from_files.clear();
          from_files.reserve(cold_nodes);
          for (const std::string& id : ids) {
            from_files.push_back(registry.load(model_dir / (id + ".csmb")));
          }
        });
    // Keep only the equivalence probes from the file fleet before timing
    // the pack: holding all 10^5 file-loaded methods resident would make
    // the pack phase fault in a second fleet-sized heap, charging the pack
    // for memory the files path left behind rather than for its own work.
    from_files.resize(std::min<std::size_t>(cold_nodes, 8));
    from_files.shrink_to_fit();
    std::vector<std::shared_ptr<const core::SignatureMethod>> from_pack;
    CaseResult& pack_case =
        run.measure("coldstart-pack/" + cold_point,
                    static_cast<double>(cold_nodes), [&] {
          from_pack.clear();
          from_pack.reserve(cold_nodes);
          const core::ModelPack pack = core::ModelPack::open(pack_file);
          // Whole-fleet standup walks the index by position; by-id lookup
          // (pack.load) is the single-node path, probed below.
          for (std::size_t i = 0; i < cold_nodes; ++i) {
            from_pack.push_back(registry.decode(pack.record(i)));
          }
        });
    for (CaseResult* c : {&files_case, &pack_case}) {
      c->seed = cold_seed;
      c->param("nodes", std::to_string(cold_nodes));
      c->param("distinct_models", std::to_string(cold_distinct));
      c->param("sensors", std::to_string(cold_sensors));
    }
    const double speedup = pack_case.items_per_sec / files_case.items_per_sec;
    pack_case.metric("speedup_vs_files", speedup);

    // Both load paths must stream identically: stand one engine up from the
    // file-loaded methods and one through StreamEngine::add_node(pack, id),
    // probe both with one shared batch and compare the emitted feature
    // vectors exactly. Pack ids are index-sorted and ids[] is zero-padded,
    // so node i in one engine is node i in the other.
    core::StreamOptions cold_opts;
    cold_opts.window_length = 16;
    cold_opts.window_step = 8;
    cold_opts.history_length = 40;
    const std::size_t probe_nodes = std::min<std::size_t>(cold_nodes, 8);
    const core::ModelPack pack = core::ModelPack::open(pack_file);
    core::StreamEngine files_engine(cold_opts);
    core::StreamEngine pack_engine(cold_opts);
    for (std::size_t i = 0; i < probe_nodes; ++i) {
      files_engine.add_node(ids[i], from_files[i]);
      pack_engine.add_node(pack, ids[i], registry);
    }
    const common::Matrix probe =
        synthetic_stream(cold_sensors, 64, cold_seed + 999);
    for (std::size_t i = 0; i < probe_nodes; ++i) {
      files_engine.ingest(i, probe);
      pack_engine.ingest(i, probe);
      if (files_engine.drain(i) != pack_engine.drain(i)) {
        std::fprintf(stderr,
                     "FAIL: pack-loaded node %zu streams differently from "
                     "its file-loaded twin\n", i);
        ++failures;
        break;
      }
    }

    std::printf("%8s %18s %18s %9s\n", "nodes", "files (models/s)",
                "pack (models/s)", "speedup");
    std::printf("%8zu %18.0f %18.0f %8.1fx\n", cold_nodes,
                files_case.items_per_sec, pack_case.items_per_sec, speedup);
    // The invariant the pack exists for. 2x is a deliberately loose floor
    // (shared CI runners): on a shared 4-vCPU host the pack read 5.2-6.9x
    // at 10^5 nodes and 4.7-7.5x at --quick.
    if (speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: pack cold-start only %.2fx faster than per-file "
                   "models (fixtures kept in %s)\n",
                   speedup, work_dir.string().c_str());
      ++failures;
    }
  }();
  if (failures == failures_before_cold_start) {  // Else keep the fixtures.
    fs::remove_all(model_dir);
    fs::remove(pack_file);
    if (!run.opts().out_dir) fs::remove_all(work_dir);
  }

  // Training kernel: the cache-tiled shifted-correlation pass against the
  // scalar reference it replaced. The tiled path must be bit-identical (the
  // async retrain swap depends on it — a swapped-in shadow model must equal
  // the model a sync fit would have produced) and at least 2x faster at the
  // fleet-scale sensor count, where the reference rereads every row ~n
  // times with no cache blocking.
  {
    const std::size_t kernel_t = quick ? 512 : 2048;
    std::printf("\n== Training kernel: tiled shifted-correlation vs scalar "
                "reference (%zu samples) ==\n", kernel_t);
    std::printf("%8s %9s %16s %16s %9s\n", "sensors", "samples",
                "ref (coef/s)", "tiled (coef/s)", "speedup");
    for (const std::size_t n : {64u, 256u, 1024u}) {
      const std::string point = "n=" + std::to_string(n);
      // Shared seed: both kernels must consume identical input.
      const std::uint64_t seed = run.derive_seed("train-kernel/" + point);
      const common::Matrix s = synthetic_stream(n, kernel_t, seed);
      const common::MatrixView view{s};
      const double coefficients = static_cast<double>(n * n);

      common::Matrix ref_out;
      common::Matrix tiled_out;
      CaseResult& ref =
          run.measure("train-kernel-ref/" + point, coefficients,
                      [&] { ref_out = stats::shifted_correlation_matrix_reference(view); });
      stats::CorrelationWorkspace ws;
      CaseResult& tiled =
          run.measure("train-kernel/" + point, coefficients,
                      [&] { tiled_out = stats::shifted_correlation_matrix(view, ws); });
      for (CaseResult* c : {&ref, &tiled}) {
        c->seed = seed;
        c->param("sensors", std::to_string(n));
        c->param("samples", std::to_string(kernel_t));
      }
      if (tiled_out.rows() != ref_out.rows() ||
          tiled_out.cols() != ref_out.cols() ||
          std::memcmp(tiled_out.data(), ref_out.data(),
                      ref_out.size() * sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "FAIL: tiled correlation kernel is not bit-identical "
                     "to the reference at %s\n", point.c_str());
        ++failures;
      }
      const double speedup = tiled.items_per_sec / ref.items_per_sec;
      tiled.metric("speedup_vs_reference", speedup);
      std::printf("%8zu %9zu %16.0f %16.0f %8.1fx\n", n, kernel_t,
                  ref.items_per_sec, tiled.items_per_sec, speedup);
      // The acceptance floor: >=2x at the largest sweep point. Loose on
      // purpose (shared runners); measures far higher in practice.
      if (n == 1024 && speedup < 2.0) {
        std::fprintf(stderr,
                     "FAIL: tiled kernel only %.2fx faster than the scalar "
                     "reference at n=1024\n", speedup);
        ++failures;
      }
    }
  }

  // kOnDrift scoring per window: the drift_score rescan of each window
  // against the chunk-summary tracker MethodStream runs, at the
  // application segment's sensor count (52, so 64 of the 1326 pairs are
  // watched) and three shapes: Table I's 30/5 and 60/10, and 30/7, where
  // gcd(wl, ws) = 1 makes every column its own chunk. Both sides include
  // the ring push. Reported, not gated.
  {
    std::printf("\n== kOnDrift scoring per window: drift_score rescan vs "
                "DriftTracker (52 sensors, 64 pairs) ==\n");
    std::printf("%8s %9s %15s %15s %9s %12s\n", "shape", "windows",
                "rescan (us/w)", "tracker (us/w)", "speedup", "max |dscore|");
    const std::size_t drift_t = quick ? 3000 : 12000;
    const std::size_t shapes[][2] = {{30, 5}, {30, 7}, {60, 10}};
    for (const auto& shape : shapes) {
      const std::string point = "wl=" + std::to_string(shape[0]) +
                                "/ws=" + std::to_string(shape[1]);
      const std::uint64_t seed = run.derive_seed("drift/" + point);
      const common::Matrix data = synthetic_stream(52, drift_t, seed);
      // Every emitted window but the first (the reference) is scored.
      const std::size_t windows = (drift_t - shape[0]) / shape[1];
      std::vector<double> rescan_scores;
      std::vector<double> tracker_scores;
      CaseResult& rescan = run.measure(
          "drift-rescan/" + point, static_cast<double>(windows), [&] {
            score_drift_windows(data, shape[0], shape[1], true,
                                rescan_scores);
          });
      CaseResult& tracker = run.measure(
          "drift-tracker/" + point, static_cast<double>(windows), [&] {
            score_drift_windows(data, shape[0], shape[1], false,
                                tracker_scores);
          });
      if (rescan_scores.size() != windows ||
          tracker_scores.size() != windows) {
        std::fprintf(stderr, "FAIL: drift scoring at %s scored %zu/%zu of "
                     "%zu windows\n", point.c_str(), rescan_scores.size(),
                     tracker_scores.size(), windows);
        ++failures;
        continue;
      }
      double max_diff = 0.0;
      for (std::size_t k = 0; k < windows; ++k) {
        max_diff = std::max(max_diff,
                            std::abs(rescan_scores[k] - tracker_scores[k]));
      }
      for (CaseResult* c : {&rescan, &tracker}) {
        c->seed = seed;
        c->param("sensors", "52");
        c->param("samples", std::to_string(drift_t));
        c->metric("us_per_window", 1e6 / c->items_per_sec);
      }
      tracker.metric("max_score_diff", max_diff);
      std::printf("%8s %9zu %15.2f %15.2f %8.1fx %12.2g\n",
                  (std::to_string(shape[0]) + "/" + std::to_string(shape[1]))
                      .c_str(),
                  windows, 1e6 / rescan.items_per_sec,
                  1e6 / tracker.items_per_sec,
                  tracker.items_per_sec / rescan.items_per_sec, max_diff);
    }
  }

  // Retrain policies: the same single-node ingest under no retraining, the
  // historical inline (sync) retrain, and the shadow-fit async retrain.
  // Per-push wall times are recorded so the table can quote ingest latency
  // quantiles: the sync stall shows up as a p99/max blow-up, and the async
  // pin — ingest p99 with retrains firing within 5x of the no-retrain
  // baseline — is the invariant the shadow-fit pipeline exists for.
  {
    const std::size_t rt_sensors = 32;
    const std::size_t rt_t = quick ? 8192 : 16384;
    core::StreamOptions rt_opts;
    rt_opts.window_length = 60;
    rt_opts.window_step = 10;
    rt_opts.history_length = 256;
    rt_opts.retrain_threads = 2;
    // Rare enough that a single-core runner's scheduler noise around each
    // fit stays below the p99 index (pushes affected per fit << 1% of the
    // run), frequent enough that every run exercises dozens of swaps.
    const std::size_t rt_interval = 512;
    const std::string rt_point = "n=" + std::to_string(rt_sensors) +
                                 "/interval=" + std::to_string(rt_interval);
    const std::uint64_t rt_seed = run.derive_seed("retrain/" + rt_point);
    std::printf("\n== Retrain policies: ingest latency with retrains firing "
                "every %zu samples (%zu sensors, %zu samples) ==\n",
                rt_interval, rt_sensors, rt_t);

    const common::Matrix rt_data =
        synthetic_stream(rt_sensors, rt_t, rt_seed);
    const std::shared_ptr<const core::SignatureMethod> rt_method =
        baselines::default_registry()
            .create("cs:blocks=8")
            ->fit(rt_data.sub_cols(0, 2000));

    struct PolicyCase {
      const char* label;
      std::size_t interval;
      core::RetrainPolicy policy;
    };
    const PolicyCase policies[] = {
        {"retrain-off", 0, core::RetrainPolicy::kSync},
        {"retrain-sync", rt_interval, core::RetrainPolicy::kSync},
        {"retrain-async", rt_interval, core::RetrainPolicy::kAsync},
    };
    std::printf("%14s %13s %10s %10s %10s %7s %7s\n", "policy", "smp/s",
                "p50 (us)", "p99 (us)", "max (us)", "swaps", "aborts");
    double off_p99 = 0.0;
    double async_p99 = 0.0;
    std::size_t off_signatures = 0;
    for (const PolicyCase& pc : policies) {
      core::StreamOptions opts_for = rt_opts;
      opts_for.retrain_interval = pc.interval;
      opts_for.retrain_policy = pc.policy;
      RetrainRun rr;
      CaseResult& result = run.measure(
          std::string(pc.label) + "/" + rt_point, static_cast<double>(rt_t),
          [&] { rr = run_retrain_policy(rt_method, opts_for, rt_data); });
      const double p50 = quantile_us(rr.push_us, 0.50);
      const double p99 = quantile_us(rr.push_us, 0.99);
      const double max_us =
          *std::max_element(rr.push_us.begin(), rr.push_us.end());
      result.seed = rt_seed;
      result.param("sensors", std::to_string(rt_sensors));
      result.param("samples", std::to_string(rt_t));
      result.param("history", std::to_string(rt_opts.history_length));
      result.param("retrain_interval", std::to_string(pc.interval));
      result.metric("ingest_p50_us", p50);
      result.metric("ingest_p99_us", p99);
      result.metric("ingest_max_us", max_us);
      result.metric("signatures", static_cast<double>(rr.signatures));
      result.metric("retrain_swaps", static_cast<double>(rr.swaps));
      result.metric("retrain_aborts", static_cast<double>(rr.aborts));
      std::printf("%14s %13.0f %10.1f %10.1f %10.1f %7zu %7zu\n", pc.label,
                  result.items_per_sec, p50, p99, max_us, rr.swaps,
                  rr.aborts);

      // The emission cadence is retrain-policy-independent: every policy
      // must emit exactly as many signatures as the no-retrain baseline.
      if (pc.interval == 0) {
        off_signatures = rr.signatures;
        off_p99 = p99;
      } else if (rr.signatures != off_signatures) {
        std::fprintf(stderr,
                     "FAIL: %s emitted %zu signatures, baseline emitted "
                     "%zu\n", pc.label, rr.signatures, off_signatures);
        ++failures;
      }
      if (pc.policy == core::RetrainPolicy::kAsync && pc.interval != 0) {
        async_p99 = p99;
        // Every fired retrain must be accounted exactly once — swapped in
        // or aborted; the drained tail leaves none in flight.
        const std::size_t triggers = rt_t / rt_interval;
        if (rr.swaps + rr.aborts != triggers) {
          std::fprintf(stderr,
                       "FAIL: async retrain accounting off (%zu swaps + "
                       "%zu aborts vs %zu triggers)\n",
                       rr.swaps, rr.aborts, triggers);
          ++failures;
        }
        if (rr.swaps == 0) {
          std::fprintf(stderr,
                       "FAIL: no async retrain ever completed and swapped "
                       "in\n");
          ++failures;
        }
        result.metric("p99_vs_no_retrain", p99 / off_p99);
      }
    }
    // The pin the shadow-fit pipeline exists for: retraining in the
    // background must leave ingest tail latency within 5x of never
    // retraining at all (sync, measured above, stalls for the full fit).
    if (async_p99 > 5.0 * off_p99) {
      std::fprintf(stderr,
                   "FAIL: async retrain ingest p99 %.1f us exceeds 5x the "
                   "no-retrain baseline %.1f us\n", async_p99, off_p99);
      ++failures;
    }
  }

  std::printf("\n== StreamEngine vs per-node MethodStream equivalence ==\n");
  opts.history_length = 1024;
  if (!engine_matches_per_node_streams(opts, blocks,
                                       run.derive_seed("equivalence"))) {
    std::printf("FAIL: engine output differs from per-node streams\n");
    ++failures;
  } else {
    std::printf("OK: identical signatures on all nodes\n");
  }
  if (failures != 0) {
    std::fprintf(stderr, "stream_throughput: %d check(s) FAILED\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace csm::benchkit
