// Online ingestion throughput: the ring-buffer CS stream vs the erase-front
// history it replaced, window-copy emit vs the zero-copy MatrixView emit,
// and StreamEngine scaling across node counts.
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
// MethodStream reads the ring segments in place through the fused
// smooth_window kernel — the two must emit identical signatures, and the
// view path must not be slower at any history length. The last table fans
// synthetic node fleets through StreamEngine and reports aggregate
// samples/sec, and the driver exits non-zero if StreamEngine ever
// disagrees with per-node MethodStream runs.
//
// The daemon-loopback table prices the fleet-daemon service path: the same
// ingest driven through a FleetServer over the in-process loopback
// transport — CSMF frame encode, CRC, connection servicing and all —
// against direct StreamEngine calls. The drained signatures must be
// bit-for-bit identical to the direct engine's, or the driver fails.
//
// The cold-start table measures the fleet-standup path the ModelPack exists
// for: reviving all N trained node models, once from N per-file text models
// (open + parse each) and once from a single mmap-ed pack (open once,
// binary-decode N records). Engines stood up from the two load paths must
// emit identical signatures on identical input, and the driver fails if the
// pack path is not at least 2x faster (it measures far higher in practice).
//
// The train-kernel table prices the retrain fit itself: the cache-tiled
// shifted-correlation pass against the scalar reference it replaced, with a
// bit-identity probe (the driver fails on a single differing byte) and a 2x
// speedup floor at n=1024. The retrain-policy table then pushes the same
// single-node stream under no retraining, inline (sync) retraining and
// shadow-fit (async) retraining, recording per-push wall times: the sync
// stall surfaces in the p99/max columns, and the driver fails if async
// ingest p99 with retrains firing exceeds 5x the no-retrain baseline.
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
#include <thread>
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
#include "core/smoothing.hpp"
#include "core/stream_engine.hpp"
#include "core/streaming.hpp"
#include "core/training.hpp"
#include "net/loopback.hpp"
#include "net/message.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "stats/correlation.hpp"
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
  core::MethodStream stream(method, opts);
  std::vector<double> column(data.rows());
  for (std::size_t c = 0; c < data.cols(); ++c) {
    for (std::size_t r = 0; r < data.rows(); ++r) column[r] = data(r, c);
    const auto t0 = std::chrono::steady_clock::now();
    if (stream.push(column)) ++out.signatures;
    const auto t1 = std::chrono::steady_clock::now();
    out.push_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  out.swaps = stream.retrain_count();
  out.aborts = stream.retrain_aborts();
  return out;
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
          "StreamEngine fleet-scaling throughput, the daemon loopback "
          "frame path vs direct engine ingest, and fleet cold-start from "
          "per-file models vs one model pack",
          kFlagOutDir, ""};
}

int bench_run(Runner& run) {
  const bool quick = run.quick();

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
        return 1;
      }
      std::printf("%8zu %9zu %9zu %15.0f %15.0f %8.1fx\n", n, history, t,
                  naive.items_per_sec, ring.items_per_sec,
                  ring.items_per_sec / naive.items_per_sec);
    }
  }

  std::printf("\n== CS stream emit path: window copy vs zero-copy MatrixView "
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
        return 1;
      }
      // The zero-copy invariant this driver guards: the view emit must not
      // be slower than the copy emit at any sweep point. The 10% grace
      // absorbs shared-runner jitter (the view path measures ~1.4-2x in
      // practice), so tripping this means the invariant actually broke.
      if (view.items_per_sec < 0.9 * copy.items_per_sec) {
        std::fprintf(stderr,
                     "FAIL: view emit slower than copy emit at %s "
                     "(%.0f vs %.0f smp/s)\n",
                     point.c_str(), view.items_per_sec, copy.items_per_sec);
        return 1;
      }
      std::printf("%8zu %9zu %9zu %15.0f %15.0f %8.2fx\n", n, history, t,
                  copy.items_per_sec, view.items_per_sec,
                  view.items_per_sec / copy.items_per_sec);
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

  // Daemon frame path: the same fleet ingest, once through direct
  // StreamEngine calls and once through a FleetServer serving CSMF frames
  // over the in-process loopback transport. The gap is the whole protocol
  // tax — frame encode on the client (pre-paid outside the timed region,
  // as a real collector would pay it), CRC verify + decode + connection
  // servicing on the daemon. Both paths must drain bit-for-bit identical
  // signatures. Wire bytes are pre-encoded so repetitions re-run only the
  // daemon side: fresh engine, fresh server thread, fresh connection.
  {
    const std::size_t daemon_nodes = 4;
    const std::size_t daemon_sensors = 16;
    const std::size_t daemon_t = quick ? 2000 : 8000;
    const std::size_t daemon_chunk = 250;  // Columns per kSampleBatch.
    const std::uint64_t daemon_seed = run.derive_seed("daemon-loopback");
    std::printf("\n== Fleet ingest: direct engine vs daemon loopback frame "
                "path (%zu nodes, %zu sensors/node, %zu samples/node) ==\n",
                daemon_nodes, daemon_sensors, daemon_t);

    core::StreamOptions d_opts;
    d_opts.window_length = 60;
    d_opts.window_step = 10;
    d_opts.history_length = 1024;
    const auto& registry = baselines::default_registry();

    std::vector<std::string> ids;
    std::vector<common::Matrix> batches;
    std::vector<std::shared_ptr<const core::SignatureMethod>> methods;
    std::vector<net::Frame> add_frames;
    std::vector<std::vector<std::uint8_t>> wire(daemon_nodes);
    for (std::size_t i = 0; i < daemon_nodes; ++i) {
      ids.push_back("bench" + std::to_string(i));
      batches.push_back(
          synthetic_stream(daemon_sensors, daemon_t, daemon_seed + i));
      methods.push_back(registry.create("cs:blocks=8")->fit(batches.back()));
      net::NodeAdd add;
      add.record = core::codec::encode_binary(*methods.back());
      net::Frame frame;
      frame.type = net::FrameType::kNodeAdd;
      frame.node = ids.back();
      frame.payload = net::encode_node_add(add);
      add_frames.push_back(std::move(frame));
      for (std::size_t at = 0; at < daemon_t; at += daemon_chunk) {
        net::Frame batch;
        batch.type = net::FrameType::kSampleBatch;
        batch.node = ids.back();
        batch.payload = net::encode_sample_batch(batches.back().sub_cols(
            at, std::min(daemon_chunk, daemon_t - at)));
        const std::vector<std::uint8_t> bytes = net::encode_frame(batch);
        wire[i].insert(wire[i].end(), bytes.begin(), bytes.end());
      }
    }

    const std::string daemon_point =
        "nodes=" + std::to_string(daemon_nodes);
    std::vector<std::vector<std::vector<double>>> expected(daemon_nodes);
    CaseResult& direct = run.measure(
        "engine-direct/" + daemon_point,
        static_cast<double>(daemon_nodes * daemon_t), [&] {
          core::StreamEngine engine(d_opts);
          for (std::size_t i = 0; i < daemon_nodes; ++i) {
            engine.add_node(ids[i], methods[i]);
          }
          engine.ingest_batch(batches);
          for (std::size_t i = 0; i < daemon_nodes; ++i) {
            expected[i] = engine.drain(i);
          }
        });

    std::vector<std::vector<std::vector<double>>> drained(daemon_nodes);
    CaseResult& daemon = run.measure(
        "daemon-loopback/" + daemon_point,
        static_cast<double>(daemon_nodes * daemon_t), [&] {
          core::StreamEngine engine(d_opts);
          net::LoopbackHub hub;
          net::FleetServerOptions server_opts;
          server_opts.server_version = "bench";
          server_opts.registry = &registry;
          server_opts.poll_timeout_ms = 10;
          net::FleetServer server(hub.listen(), engine,
                                  std::move(server_opts));
          std::thread server_thread([&] { server.run(); });
          {
            const std::unique_ptr<net::Connection> conn = hub.connect();
            net::FrameReader reader;
            for (const net::Frame& add : add_frames) {
              net::call(*conn, reader, add, 30000);
            }
            for (std::size_t i = 0; i < daemon_nodes; ++i) {
              net::write_all(*conn, wire[i]);
            }
            // Drains double as the sync point: batches are not acked, but
            // the server answers a drain only after every frame queued
            // before it on this connection has been ingested.
            for (std::size_t i = 0; i < daemon_nodes; ++i) {
              net::Frame request;
              request.type = net::FrameType::kDrainRequest;
              request.node = ids[i];
              const net::Frame response =
                  net::call(*conn, reader, request, 30000);
              drained[i] =
                  net::decode_drain_response(response.payload).signatures;
            }
          }
          server.stop();
          server_thread.join();
        });

    for (std::size_t i = 0; i < daemon_nodes; ++i) {
      if (expected[i].empty() || drained[i] != expected[i]) {
        std::fprintf(stderr,
                     "FAIL: daemon-drained signatures differ from the "
                     "direct engine on %s\n", ids[i].c_str());
        return 1;
      }
    }
    for (CaseResult* c : {&direct, &daemon}) {
      c->seed = daemon_seed;
      c->param("nodes", std::to_string(daemon_nodes));
      c->param("sensors", std::to_string(daemon_sensors));
      c->param("samples_per_node", std::to_string(daemon_t));
      c->param("batch_cols", std::to_string(daemon_chunk));
    }
    const double tax = direct.items_per_sec / daemon.items_per_sec;
    daemon.metric("slowdown_vs_direct", tax);
    std::printf("%12s %15s %11s\n", "path", "agg smp/s", "frame tax");
    std::printf("%12s %15.0f %11s\n", "direct", direct.items_per_sec, "-");
    std::printf("%12s %15.0f %10.2fx\n", "loopback", daemon.items_per_sec,
                tax);
  }

  // Fleet cold-start: the same N trained models land on disk twice — once
  // as N per-file "csmethod v2" text models, once inside a single pack —
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

  std::printf("\n== Fleet cold-start: %zu nodes, per-file text models vs "
              "one mmap-ed pack ==\n", cold_nodes);
  {
    // 32 distinct 32-sensor CS models; node i carries model i % 32. The
    // text blob and binary record of each are encoded once and replicated,
    // so fixture setup is file-I/O bound, not codec bound.
    const std::size_t cold_sensors = 32;
    std::vector<std::string> text_blobs;
    std::vector<std::vector<std::uint8_t>> bin_records;
    const auto untrained = registry.create("cs:blocks=4");
    for (std::size_t k = 0; k < cold_distinct; ++k) {
      const auto trained =
          untrained->fit(synthetic_stream(cold_sensors, 400, cold_seed + k));
      text_blobs.push_back(trained->serialize());
      bin_records.push_back(core::codec::encode_binary(*trained));
    }

    std::vector<std::string> ids;
    ids.reserve(cold_nodes);
    core::ModelPackWriter writer(pack_file);
    for (std::size_t i = 0; i < cold_nodes; ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "node%06zu", i);
      ids.emplace_back(buf);
      const std::size_t k = i % cold_distinct;
      std::ofstream out(model_dir / (ids.back() + ".csm"),
                        std::ios::binary | std::ios::trunc);
      out << text_blobs[k];
      if (!out) {
        std::fprintf(stderr, "FAIL: cannot write cold-start fixtures\n");
        return 1;
      }
      writer.add_record(ids.back(), bin_records[k]);
    }
    writer.finish();

    // The timed region is model revival only — the part the pack changes:
    // open + read + parse one file per node versus mmap once + binary-decode
    // each record. Downstream engine registration costs the same either way
    // and is exercised (unmeasured) by the equivalence probe below.
    const std::string cold_point = "nodes=" + std::to_string(cold_nodes);
    std::vector<std::shared_ptr<const core::SignatureMethod>> from_files;
    CaseResult& files_case =
        run.measure("coldstart-files/" + cold_point,
                    static_cast<double>(cold_nodes), [&] {
          from_files.clear();
          from_files.reserve(cold_nodes);
          for (const std::string& id : ids) {
            from_files.push_back(registry.load(model_dir / (id + ".csm")));
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
        return 1;
      }
    }

    std::printf("%8s %18s %18s %9s\n", "nodes", "files (models/s)",
                "pack (models/s)", "speedup");
    std::printf("%8zu %18.0f %18.0f %8.1fx\n", cold_nodes,
                files_case.items_per_sec, pack_case.items_per_sec, speedup);
    // The invariant the pack exists for. 2x is a deliberately loose floor
    // (shared CI runners); the full-size sweep measures well above 10x.
    if (speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: pack cold-start only %.2fx faster than per-file "
                   "models (fixtures kept in %s)\n",
                   speedup, work_dir.string().c_str());
      return 1;
    }
  }
  fs::remove_all(model_dir);
  fs::remove(pack_file);
  if (!run.opts().out_dir) fs::remove_all(work_dir);

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
        return 1;
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
        return 1;
      }
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
        return 1;
      }
      if (pc.policy == core::RetrainPolicy::kAsync && pc.interval != 0) {
        async_p99 = p99;
        // Every fired retrain must be accounted exactly once — swapped in
        // or aborted — except a single fit still in flight at teardown.
        const std::size_t triggers = rt_t / rt_interval;
        if (rr.swaps + rr.aborts + 1 < triggers ||
            rr.swaps + rr.aborts > triggers) {
          std::fprintf(stderr,
                       "FAIL: async retrain accounting off (%zu swaps + "
                       "%zu aborts vs %zu triggers)\n",
                       rr.swaps, rr.aborts, triggers);
          return 1;
        }
        if (rr.swaps == 0) {
          std::fprintf(stderr,
                       "FAIL: no async retrain ever completed and swapped "
                       "in\n");
          return 1;
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
      return 1;
    }
  }

  std::printf("\n== StreamEngine vs per-node MethodStream equivalence ==\n");
  opts.history_length = 1024;
  if (!engine_matches_per_node_streams(opts, blocks,
                                       run.derive_seed("equivalence"))) {
    std::printf("FAIL: engine output differs from per-node streams\n");
    return 1;
  }
  std::printf("OK: identical signatures on all nodes\n");
  return 0;
}

}  // namespace csm::benchkit
