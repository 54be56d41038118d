// daemon-fleet: what csmd does for one cluster partition.
//
// An in-process net::FleetServer on its own thread over net::listen_unix,
// polled as net::run_daemon polls it (200 ms), serves 256 nodes x 52
// sensors whose CS-20 models come by pack id from a core::ModelPack. One
// collector connection runs a closed loop: each round pushes one 10-column
// kSampleBatch per node, then one kDrainRequest per node, and waits for all
// 256 replies. Every kScrapeEverySeconds an operator scrape opens a fresh
// connection, as `csmcli fleet-stats` does, and asks for kStatsRequest +
// kNodeStatsRequest. The server thread's time splits between the net layer
// and the engine; there is no drift scoring and no retraining.
//
// Throughput is gated per CPU second of the server thread, not per second
// of wall time. The round's wall time is mostly socket round trips and
// wake-ups between the collector and the server: on a shared 4-vCPU host
// the wall rate moved by -35% between two sets of ten runs of identical
// code, while the server's CPU per sample held within a few percent. The
// wall rate is printed beside it. op_p50_ms is the fleet-stats scrape.
#include <poll.h>
#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "bench.hpp"
#include "core/model_pack.hpp"
#include "core/stream_engine.hpp"
#include "decorators.hpp"
#include "net/frame.hpp"
#include "net/message.hpp"
#include "net/server.hpp"
#include "net/unix_socket.hpp"

namespace perfbench {

namespace {

namespace hpcoda = csm::hpcoda;

constexpr std::size_t kNodes = 256;
constexpr std::size_t kBatchCols = 10;
constexpr int kPollMs = 200;  // net::run_daemon's poll timeout.
constexpr double kScrapeEverySeconds = 2.0;
constexpr int kIoTimeoutMs = 10000;
constexpr double kSpinSeconds = 0.05;
// Relative to the run directory, so the path fits sockaddr_un wherever the
// checkout lives.
const char* const kSocketPath = "perfbench-fleet.sock";
const char* const kPackPath = "perfbench-fleet.pack";

core::StreamOptions stream_options() {
  core::StreamOptions o;  // csmd defaults otherwise: history 1024, no cap.
  o.window_length = 30;   // Table I, application segment.
  o.window_step = 5;
  return o;
}

std::string node_name(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "n%03zu", i);
  return buf;
}

/// Nodes whose drained signatures are checked against an in-process
/// engine: one per source block (17 is coprime with 16).
bool checked_node(std::size_t i) { return i % 17 == 0; }

/// Fits CS-20 on each source block and packs one record per node. The
/// traced run times the fits (core.method.fit).
void write_pack(const CyclingInputs& in, bool traced) {
  std::shared_ptr<const core::SignatureMethod> prototype =
      csm::baselines::default_registry().create("cs:blocks=20");
  if (traced) {
    prototype = std::make_shared<TracedMethod>(prototype, Stat::kCsCompute);
  }
  std::vector<std::unique_ptr<core::SignatureMethod>> models;
  for (const hpcoda::ComponentBlock& b : in.app.blocks) {
    models.push_back(prototype->fit(b.sensors));
  }
  core::ModelPackWriter writer(kPackPath);
  for (std::size_t i = 0; i < kNodes; ++i) {
    writer.add(node_name(i), *models[i % models.size()]);
  }
  writer.finish();
}

/// Client side of a request/response exchange: writes `out` and reads
/// until `expect` reply frames arrived, interleaving both directions so
/// neither side's socket buffer fills while the other waits. With `spin`
/// the client busy-polls for up to kSpinSeconds before it blocks, so the
/// collector's own wake-up latency on a shared host stays out of the round
/// time. Scrapes block at once, as `csmcli fleet-stats` does: a client that
/// drains the socket while the server is still inside its send would let a
/// large reply through with one refill stall instead of two, depending on
/// timing.
void exchange(net::Connection& conn, net::FrameReader& reader,
              std::span<const std::uint8_t> out, std::size_t expect,
              std::vector<net::Frame>& replies, bool spin) {
  std::vector<std::uint8_t> buf(64 * 1024);
  std::size_t sent = 0;
  double idle_since = -1.0;
  while (sent < out.size() || replies.size() < expect) {
    bool progress = false;
    if (sent < out.size()) {
      const std::size_t n = conn.write_some(out.subspan(sent));
      sent += n;
      progress = n > 0;
    }
    const std::size_t n = conn.read_some(buf);
    if (n > 0) {
      reader.feed({buf.data(), n});
      while (std::optional<net::Frame> f = reader.next()) {
        replies.push_back(std::move(*f));
      }
      progress = true;
    } else if (!conn.is_open()) {
      throw net::TransportError("daemon closed the connection");
    }
    if (progress) {
      idle_since = -1.0;
      continue;
    }
    if (idle_since < 0.0) idle_since = now();
    if (spin && now() - idle_since < kSpinSeconds) continue;
    pollfd p{conn.native_handle(), POLLIN, 0};
    if (sent < out.size()) p.events |= POLLOUT;
    if (::poll(&p, 1, kIoTimeoutMs) == 0) {
      throw net::TransportError("daemon did not answer within 10 s");
    }
    idle_since = -1.0;
  }
}

/// One stood-up daemon: engine, pack, listener, server thread and the
/// collector connection with every node added.
class Fleet {
 public:
  Fleet(bool traced, const core::MethodRegistry& registry)
      : engine_(stream_options()) {
    {
      const Span s("core.pack.open");
      pack_.emplace(core::ModelPack::open(kPackPath));
    }
    std::unique_ptr<net::Listener> listener = net::listen_unix(kSocketPath);
    if (traced) {
      auto wrapped = std::make_unique<TracedListener>(std::move(listener));
      listener_ = wrapped.get();
      listener = std::move(wrapped);
    }
    net::FleetServerOptions options;
    options.server_version = "perfbench";
    options.registry = &registry;
    options.pack = &*pack_;
    options.poll_timeout_ms = kPollMs;
    server_ = std::make_unique<net::FleetServer>(std::move(listener), engine_,
                                                 std::move(options));
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (...) {
        server_error_ = std::current_exception();
      }
    });
    try {
      add_nodes();
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Fleet() {
    try {
      stop();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: server thread failed: %s\n", e.what());
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Stops the server thread (closing the collector wakes its poll) and
  /// rethrows anything the server loop threw.
  void stop() {
    if (!thread_.joinable()) return;
    server_->stop();
    collector_.reset();
    thread_.join();
    if (server_error_) std::rethrow_exception(server_error_);
  }

  core::StreamEngine& engine() { return engine_; }
  net::Connection& collector() { return *collector_; }
  net::FrameReader& reader() { return reader_; }
  TracedListener* listener() { return listener_; }
  /// Frames handled by the server; only valid after stop().
  std::uint64_t frames_handled() const { return server_->frames_handled(); }
  /// CPU seconds the server thread has used so far.
  double server_cpu() {
    clockid_t cid{};
    pthread_getcpuclockid(thread_.native_handle(), &cid);
    timespec ts{};
    clock_gettime(cid, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }

  // Client-side bookkeeping for the output checks.
  std::size_t rounds = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t drained = 0;
  std::vector<std::uint64_t> hash =
      std::vector<std::uint64_t>(kNodes, kHashSeed);
  std::vector<std::uint64_t> count = std::vector<std::uint64_t>(kNodes, 0);

 private:
  /// Connects the collector and adds every node by pack id.
  void add_nodes() {
    collector_ = net::connect_unix(kSocketPath);
    net::FrameWriter adds;
    for (std::size_t i = 0; i < kNodes; ++i) {
      net::NodeAdd add;
      add.source = net::NodeAddSource::kPackId;
      add.pack_id = node_name(i);
      adds.write({net::FrameType::kNodeAdd, node_name(i),
                  net::encode_node_add(add)});
    }
    std::vector<net::Frame> acks;
    exchange(*collector_, reader_, adds.buffer(), kNodes, acks, true);
    frames_sent += kNodes;
    for (const net::Frame& f : acks) {
      if (f.type != net::FrameType::kOk) {
        throw std::runtime_error("node add refused: " +
                                 net::decode_error_text(f.payload));
      }
    }
  }

  core::StreamEngine engine_;
  std::optional<core::ModelPack> pack_;
  TracedListener* listener_ = nullptr;
  std::unique_ptr<net::FleetServer> server_;
  std::exception_ptr server_error_;
  // Declared after everything the server thread touches.
  std::thread thread_;
  std::unique_ptr<net::Connection> collector_;
  net::FrameReader reader_;
};

/// What one measured phase saw, for metrics and the traced report.
struct Phase : LoopPhase {
  std::vector<double> scrape_ms;
  std::uint64_t errors = 0;
  // Kept for the isolation pass: the last round's wire bytes and replies,
  // and the last scrape's replies.
  std::vector<std::uint8_t> round_bytes;
  std::vector<net::Frame> round_replies;
  std::vector<net::Frame> scrape_replies;
};

class Driver {
 public:
  Driver(const CyclingInputs& in, Outcome& out) : in_(in), out_(out) {}

  /// One closed-loop round: encode (untimed), push + drain (timed), then
  /// check and hash the drained signatures (untimed).
  void round(Fleet& fleet, Phase* phase) {
    net::FrameWriter& w = writer_;
    w.clear();
    {
      const Span s("bench.encode", static_cast<std::uint32_t>(fleet.rounds));
      for (std::size_t i = 0; i < kNodes; ++i) {
        const common::Matrix batch =
            in_.block(i).sub_cols(in_.column(i, fleet.rounds), kBatchCols);
        w.write({net::FrameType::kSampleBatch, node_name(i),
                 net::encode_sample_batch(batch)});
      }
      for (std::size_t i = 0; i < kNodes; ++i) {
        w.write({net::FrameType::kDrainRequest, node_name(i), {}});
      }
    }
    replies_.clear();
    const double cpu = fleet.server_cpu();
    const double start = now();
    {
      const Span s("net.client.round",
                   static_cast<std::uint32_t>(fleet.rounds));
      exchange(fleet.collector(), fleet.reader(), w.buffer(), kNodes,
               replies_, true);
    }
    const double seconds = now() - start;
    const double server_cpu = fleet.server_cpu() - cpu;
    out_.attempted += 2 * kNodes;
    fleet.frames_sent += 2 * kNodes;
    ++fleet.rounds;
    const Span s("bench.check", static_cast<std::uint32_t>(fleet.rounds));
    for (std::size_t i = 0; i < replies_.size(); ++i) {
      const net::Frame& f = replies_[i];
      if (f.type != net::FrameType::kDrainResponse || f.node != node_name(i)) {
        if (phase != nullptr) ++phase->errors;
        out_.fail("drain reply " + std::to_string(i) + " is " +
                  net::frame_type_name(f.type) +
                  (f.type == net::FrameType::kError
                       ? ": " + net::decode_error_text(f.payload)
                       : ""));
        continue;
      }
      const net::DrainResponse r = net::decode_drain_response(f.payload);
      if (r.dropped != 0) out_.fail(f.node + " dropped signatures");
      for (const std::vector<double>& sig : r.signatures) {
        if (checked_node(i)) fleet.hash[i] = hash_doubles(fleet.hash[i], sig);
      }
      fleet.count[i] += r.signatures.size();
      fleet.drained += r.signatures.size();
    }
    if (phase != nullptr) {
      phase->add_round(static_cast<double>(kNodes * kBatchCols), seconds,
                       server_cpu);
      if (tracing()) {  // Inputs of the isolation pass.
        phase->round_bytes = w.buffer();
        phase->round_replies = replies_;
      }
    }
  }

  /// One operator scrape on a fresh connection; checks its totals against
  /// what was pushed and drained.
  void scrape(Fleet& fleet, Phase* phase) {
    net::FrameWriter w;
    w.write({net::FrameType::kStatsRequest, "", {}});
    w.write({net::FrameType::kNodeStatsRequest, "", {}});
    std::vector<net::Frame> replies;
    const double start = now();
    {
      const Span s("net.client.scrape",
                   static_cast<std::uint32_t>(fleet.rounds));
      std::unique_ptr<net::Connection> conn = net::connect_unix(kSocketPath);
      net::FrameReader reader;
      exchange(*conn, reader, w.buffer(), 2, replies, false);
    }
    const double ms = 1e3 * (now() - start);
    out_.attempted += 2;
    fleet.frames_sent += 2;
    if (replies[0].type != net::FrameType::kStatsResponse ||
        replies[1].type != net::FrameType::kNodeStatsResponse) {
      if (phase != nullptr) ++phase->errors;
      out_.fail("scrape answered with an error frame");
      return;
    }
    const net::StatsResponse stats =
        net::decode_stats_response(replies[0].payload);
    const net::NodeStatsResponse nodes =
        net::decode_node_stats_response(replies[1].payload);
    const std::uint64_t per_node = fleet.rounds * kBatchCols;
    if (stats.samples != per_node * kNodes ||
        stats.signatures != fleet.drained || stats.dropped != 0 ||
        stats.nodes != kNodes) {
      out_.fail("scrape totals differ from what was pushed and drained");
    }
    if (nodes.nodes.size() != kNodes) {
      out_.fail("node-stats scrape has " + std::to_string(nodes.nodes.size()) +
                " rows");
    } else {
      for (std::size_t i = 0; i < kNodes; ++i) {
        const core::NodeStats& row = nodes.nodes[i];
        if (row.name != node_name(i) || row.samples != per_node ||
            row.signatures != fleet.count[i]) {
          out_.fail("node-stats row of " + node_name(i) + " is off");
          break;
        }
      }
    }
    if (phase != nullptr) {
      phase->scrape_ms.push_back(ms);
      phase->scrape_replies = std::move(replies);
    }
  }

  void warm_up(Fleet& fleet) {
    run_rounds(kWarmupSeconds, 0, [&] { round(fleet, nullptr); });
    scrape(fleet, nullptr);
  }

  /// Rounds for `seconds`, a scrape every kScrapeEverySeconds, and one at
  /// the end when the phase was too short for any.
  void measure(Fleet& fleet, double seconds, Phase& phase) {
    double next_scrape = now() + kScrapeEverySeconds;
    run_rounds(seconds, 0, [&] {
      round(fleet, &phase);
      if (now() >= next_scrape) {
        scrape(fleet, &phase);
        next_scrape += kScrapeEverySeconds;
      }
    });
    if (phase.scrape_ms.empty()) scrape(fleet, &phase);
  }

 private:
  const CyclingInputs& in_;
  Outcome& out_;
  net::FrameWriter writer_;
  std::vector<net::Frame> replies_;
};

/// Replays each checked node's columns through an in-process engine (no
/// server, no wire) and compares the drained signatures byte for byte.
void check_against_engine(const CyclingInputs& in, const Fleet& fleet,
                          Outcome& out) {
  const core::ModelPack pack = core::ModelPack::open(kPackPath);
  core::StreamEngine engine(stream_options());
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!checked_node(i)) continue;
    const std::size_t node =
        engine.add_node(pack, node_name(i), csm::baselines::default_registry());
    std::uint64_t h = kHashSeed;
    std::uint64_t n = 0;
    in.replay(i, fleet.rounds * kBatchCols, [&](const common::Matrix& chunk) {
      engine.ingest(node, chunk);
      for (const std::vector<double>& sig : engine.drain(node)) {
        h = hash_doubles(h, sig);
        ++n;
      }
    });
    ++out.attempted;
    if (h != fleet.hash[i] || n != fleet.count[i]) {
      out.fail("drained signatures of " + node_name(i) +
               " differ from the in-process engine");
    }
  }
  if (fleet.frames_handled() != fleet.frames_sent) {
    out.fail("server handled " + std::to_string(fleet.frames_handled()) +
             " frames, client sent " + std::to_string(fleet.frames_sent));
  }
}

struct FleetSnapshot : Snapshot {
  double server_cpu = 0.0;
  double current_wait = 0.0;
  std::uint64_t frames_sent = 0;
};

FleetSnapshot fleet_snapshot(Fleet& fleet) {
  FleetSnapshot s;
  static_cast<Snapshot&>(s) = snapshot(fleet.engine());
  s.server_cpu = fleet.server_cpu();
  s.current_wait = fleet.listener() ? fleet.listener()->current_wait() : 0.0;
  s.frames_sent = fleet.frames_sent;
  return s;
}

/// Isolation pass over the run's own inputs for the code no decorator
/// reaches: frame read/CRC, payload decode, reply encode, the stats scrape
/// inside the engine. Returns per-unit seconds.
struct Isolation {
  double read_crc_per_byte = 0.0;
  double decode_per_batch = 0.0;
  double encode_per_drain = 0.0;
  double encode_per_scrape = 0.0;
  double node_stats_per_scrape = 0.0;
};

Isolation isolate(const Phase& phase, core::StreamEngine& engine) {
  Isolation iso;
  const std::vector<std::uint8_t>& bytes = phase.round_bytes;
  std::vector<net::Frame> frames;
  iso.read_crc_per_byte =
      seconds_per_call(
          [&] {
            net::FrameReader reader;
            frames.clear();
            for (std::size_t at = 0; at < bytes.size(); at += 16 * 1024) {
              reader.feed(std::span(bytes).subspan(
                  at, std::min<std::size_t>(16 * 1024, bytes.size() - at)));
              while (std::optional<net::Frame> f = reader.next()) {
                frames.push_back(std::move(*f));
              }
            }
          },
          0.2, 3) /
      static_cast<double>(bytes.size());
  iso.decode_per_batch =
      seconds_per_call(
          [&] {
            for (std::size_t i = 0; i < kNodes; ++i) {
              (void)net::decode_sample_batch(frames[i].payload);
            }
          },
          0.2, 3) /
      static_cast<double>(kNodes);
  std::vector<net::DrainResponse> drains;
  for (const net::Frame& f : phase.round_replies) {
    drains.push_back(net::decode_drain_response(f.payload));
  }
  iso.encode_per_drain =
      seconds_per_call(
          [&] {
            for (std::size_t i = 0; i < drains.size(); ++i) {
              (void)net::encode_frame({net::FrameType::kDrainResponse,
                                       node_name(i),
                                       net::encode_drain_response(drains[i])});
            }
          },
          0.2, 3) /
      static_cast<double>(drains.size());
  if (phase.scrape_replies.size() == 2) {
    const net::StatsResponse stats =
        net::decode_stats_response(phase.scrape_replies[0].payload);
    const net::NodeStatsResponse nodes =
        net::decode_node_stats_response(phase.scrape_replies[1].payload);
    iso.encode_per_scrape = seconds_per_call(
        [&] {
          (void)net::encode_frame({net::FrameType::kStatsResponse, "",
                                   net::encode_stats_response(stats)});
          (void)net::encode_frame({net::FrameType::kNodeStatsResponse, "",
                                   net::encode_node_stats_response(nodes)});
        },
        0.2, 3);
  }
  iso.node_stats_per_scrape = seconds_per_call(
      [&] {
        (void)engine.stats();
        (void)engine.node_stats();
      },
      0.2, 3);
  return iso;
}

void report_traced(const Phase& phase, const FleetSnapshot& a,
                   const FleetSnapshot& b, const Isolation& iso,
                   const Totals& pack_fits, double overhead_pct,
                   std::uint64_t frames, Outcome& out) {
  const Totals d = b.totals.since(a.totals);
  const double wall = b.t - a.t;
  const double wait =
      d.s(Stat::kListenerWait) + b.current_wait - a.current_wait;
  const double read = d.s(Stat::kTransportRead);
  const double write = d.s(Stat::kTransportWrite);
  const double ingest = b.engine.ingest_seconds - a.engine.ingest_seconds;
  const double emit = d.s(Stat::kComputeStreaming);
  const double fit = d.s(Stat::kFit);
  const double busy = b.server_cpu - a.server_cpu;
  const double server_self = busy - read - write - ingest;
  const double rounds = static_cast<double>(phase.round_s.size());
  const double scrapes = static_cast<double>(phase.scrape_ms.size());
  const double read_crc =
      iso.read_crc_per_byte * static_cast<double>(d.n(Stat::kBytesIn));
  const double decode = iso.decode_per_batch * rounds * kNodes;
  const double encode =
      iso.encode_per_drain * rounds * kNodes + iso.encode_per_scrape * scrapes;
  const double node_stats = iso.node_stats_per_scrape * scrapes;

  print_layer_table(
      "daemon-fleet per-layer wall time, server thread, traced phase", wall,
      {{"net.listener.wait", wait},
       {"net.transport.read", read},
       {"net.transport.write", write},
       {"core.method.compute_streaming", emit},
       {"core.method.fit", fit},
       {"core.stream.self (ring push, enqueue)", ingest - emit - fit},
       {"net.server.self (CPU: dispatch, codecs)", server_self},
       {"net.listener.wait: stalled (reply unflushed)",
        d.s(Stat::kListenerStall), false},
       {"net.server.self: net.frame.read_crc (isolation)", read_crc, false},
       {"net.server.self: net.message.decode (isolation)", decode, false},
       {"net.server.self: net.message.encode (isolation)", encode, false},
       {"net.server.self: core.engine.node_stats (isolation)", node_stats,
        false}});
  std::printf("  unattributed = server thread off-CPU outside its poll wait\n");
  const std::uint64_t stalls = d.n(Stat::kListenerStall);
  std::printf("\n");
  phase.print_latency();
  std::printf("scrapes: %zu, p50 %.1f ms; stalled waits %llu (%.2f per "
              "scrape x %d ms poll = %.1f ms per scrape)\n",
              phase.scrape_ms.size(), median(phase.scrape_ms),
              static_cast<unsigned long long>(stalls),
              static_cast<double>(stalls) / scrapes, kPollMs,
              static_cast<double>(stalls) / scrapes * kPollMs);
  std::printf("pack: core.method.fit %.4f s over %llu fits\n",
              pack_fits.s(Stat::kFit),
              static_cast<unsigned long long>(pack_fits.n(Stat::kFit)));
  std::printf("setup: core.pack.open %.6f s, %llu pack loads %.4f s\n",
              span_total_seconds()["core.pack.open"],
              static_cast<unsigned long long>(totals().n(Stat::kPackLoad)),
              totals().s(Stat::kPackLoad));

  out.detail("net.transport.read_s", read, "s");
  out.detail("net.transport.write_s", write, "s");
  out.detail("net.transport.bytes_in",
             static_cast<double>(d.n(Stat::kBytesIn)), "bytes");
  out.detail("net.transport.bytes_out",
             static_cast<double>(d.n(Stat::kBytesOut)), "bytes");
  out.count("net.transport.partial_writes", d.n(Stat::kPartialWrites));
  out.detail("net.listener.wait_s", wait, "s");
  out.count("net.listener.stalled_waits", stalls);
  out.detail("net.listener.stall_s", d.s(Stat::kListenerStall), "s");
  out.detail("net.server.busy_s", busy, "s");
  out.detail("net.server.self_s", server_self, "s");
  out.count("net.server.frames", frames);
  out.count("net.server.errors", phase.errors);
  out.detail("net.frame.read_crc_s", read_crc, "s");
  out.detail("net.message.decode_s", decode, "s");
  out.detail("net.message.encode_s", encode, "s");
  out.detail("core.engine.ingest_s", ingest, "s");
  out.count("core.engine.ingest_calls",
            b.engine.ingest_latency_us.total() -
                a.engine.ingest_latency_us.total());
  out.detail("core.stream.self_s", ingest - emit - fit, "s");
  out.detail("core.engine.node_stats_s", node_stats, "s");
  out.detail("core.pack.open_s", span_total_seconds()["core.pack.open"], "s");
  out.detail("core.pack.load_s", totals().s(Stat::kPackLoad), "s");
  out.count("core.pack.loads", totals().n(Stat::kPackLoad));
  out.count("core.engine.samples", b.engine.samples - a.engine.samples);
  out.count("core.engine.signatures",
            b.engine.signatures - a.engine.signatures);
  out.count("core.engine.retrains", b.engine.retrains - a.engine.retrains);
  out.count("core.engine.dropped", b.engine.dropped - a.engine.dropped);
  report(out, PerLayer{pack_fits.s(Stat::kFit), pack_fits.n(Stat::kFit), emit,
                       d.n(Stat::kComputeStreaming),
                       b.process_cpu - a.process_cpu, wall, overhead_pct});
}

}  // namespace

Outcome run_daemon_fleet(const Args& args) {
  Outcome out;
  const CyclingInputs in(args.seed, 0xf1ee7, kNodes, kBatchCols);
  const double rss_inputs = rss_mib();
  const core::MethodRegistry& plain = csm::baselines::default_registry();
  Driver driver(in, out);

  if (!args.trace) {
    // The set-up fits and packs the fleet's models, then stands the daemon
    // up until every node-add is acked.
    const auto stand_up = [&] {
      write_pack(in, false);
      out.attempted += kNodes;
      return std::make_unique<Fleet>(false, plain);
    };
    const double cold_start = now();
    std::unique_ptr<Fleet> fleet = stand_up();
    std::printf("daemon-fleet: first (cold) set-up %.4f s, not gated\n",
                now() - cold_start);
    driver.warm_up(*fleet);
    Phase phase;
    driver.measure(*fleet, args.seconds, phase);
    const double hwm = hwm_mib();
    fleet->stop();
    check_against_engine(in, *fleet, out);
    fleet.reset();
    std::printf("daemon-fleet: %zu rounds, %zu scrapes\n", phase.round_s.size(),
                phase.scrape_ms.size());
    print_windows("daemon-fleet", phase.rate);
    std::printf("daemon-fleet: wall samples/s %.1f (reported, not gated); "
                "the server thread was busy for %.1f%% of the round time\n",
                phase.rate.median_rate(),
                100.0 * phase.cpu_s / phase.wall_s);
    const double setup = median_setup_seconds("daemon-fleet", stand_up);
    report(out, "daemon-fleet",
           {phase.samples, phase.cpu_s, phase.scrape_ms, "fleet-stats scrapes",
            setup, hwm - rss_inputs});
    return out;
  }

  // Traced run: the first half untraced (the overhead baseline), the second
  // half with every decorator installed.
  write_pack(in, true);
  const Totals pack_fits = totals();
  const double half = args.seconds / 2.0;
  double untraced_rate = 0.0;
  {
    Fleet fleet(false, plain);
    driver.warm_up(fleet);
    Phase phase;
    driver.measure(fleet, half, phase);
    fleet.stop();
    check_against_engine(in, fleet, out);
    untraced_rate = phase.samples_per_cpu_s();
  }
  set_tracing(true);
  const core::MethodRegistry traced = traced_registry(plain);
  Fleet fleet(true, traced);
  driver.warm_up(fleet);
  Phase phase;
  const FleetSnapshot a = fleet_snapshot(fleet);
  driver.measure(fleet, half, phase);
  const FleetSnapshot b = fleet_snapshot(fleet);
  const Isolation iso = isolate(phase, fleet.engine());
  fleet.stop();
  set_tracing(false);
  check_against_engine(in, fleet, out);
  const double overhead =
      100.0 * (untraced_rate / phase.samples_per_cpu_s() - 1.0);
  report_traced(phase, a, b, iso, pack_fits, overhead,
                fleet.frames_handled() - a.frames_sent, out);
  std::printf("spans: %zu written to perfbench-trace-daemon-fleet.jsonl\n",
              write_spans("perfbench-trace-daemon-fleet.jsonl"));
  return out;
}

}  // namespace perfbench
