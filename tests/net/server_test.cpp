#include "net/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/method_registry.hpp"
#include "core/model_codec.hpp"
#include "core/model_pack.hpp"
#include "core/stream_engine.hpp"
#include "core/training.hpp"
#include "net/message.hpp"
#include "net/unix_socket.hpp"
#include "replay/recording.hpp"

namespace csm::net {
namespace {

std::shared_ptr<const core::SignatureMethod> fit_method(
    const common::Matrix& s) {
  return baselines::default_registry().create("cs:blocks=4")->fit(s);
}

common::Matrix node_matrix(std::size_t n, std::size_t t,
                           std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.07 * static_cast<double>(c) +
                         0.4 * static_cast<double>(r)) +
                0.05 * rng.gaussian();
    }
  }
  return s;
}

core::StreamOptions engine_options() {
  core::StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 10;
  return opts;
}

FleetServerOptions server_options() {
  FleetServerOptions options;
  options.server_version = "test-build";
  options.registry = &baselines::default_registry();
  return options;
}

// Unique short path per server: sockaddr_un caps the path around 100
// bytes, so build trees are out and /tmp is in.
std::string socket_path(const char* tag) {
  return "/tmp/csm_srv_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// Writes all of `bytes` on `conn` from the thread that also pumps
/// `server`. A single-threaded test must never block on a full socket
/// buffer (macOS unix buffers hold about 8 KiB), so whenever the socket
/// takes less than the rest, one poll_once(0) lets the server read.
void write_pumping(FleetServer& server, Connection& conn,
                   std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    ASSERT_TRUE(conn.is_open()) << bytes.size() << " bytes unsent";
    bytes = bytes.subspan(conn.write_some(bytes));
    if (!bytes.empty()) server.poll_once(0);
  }
}

/// Sends `request` on `conn` and pumps `server` on the calling thread until
/// one response frame is back. Unlike transport.hpp's call(), a kError
/// answer is returned, not thrown, so tests can inspect it.
Frame roundtrip(FleetServer& server, Connection& conn, FrameReader& reader,
                const Frame& request) {
  write_pumping(server, conn, encode_frame(request));
  for (int i = 0; i < 1000; ++i) {
    server.poll_once(10);
    std::array<std::uint8_t, 4096> buf{};
    while (const std::size_t n = conn.read_some(buf)) {
      reader.feed({buf.data(), n});
    }
    if (std::optional<Frame> frame = reader.next()) {
      return *std::move(frame);
    }
  }
  ADD_FAILURE() << "no response after 1000 poll iterations";
  return Frame{};
}

Frame node_add_frame(const std::string& name,
                     const core::SignatureMethod& method) {
  NodeAdd add;
  add.source = NodeAddSource::kInlineRecord;
  add.record = core::codec::encode_binary(method);
  Frame frame;
  frame.type = FrameType::kNodeAdd;
  frame.node = name;
  frame.payload = encode_node_add(add);
  return frame;
}

Frame batch_frame(const std::string& name, const common::Matrix& cols) {
  Frame frame;
  frame.type = FrameType::kSampleBatch;
  frame.node = name;
  frame.payload = encode_sample_batch(cols);
  return frame;
}

// One server + one client over a unix socket, on the same thread: the
// client writes a frame, then the fixture pumps poll_once until the
// response arrives. Writes go through write_pumping(), so this cannot
// deadlock.
class FleetServerTest : public ::testing::Test {
 protected:
  Frame roundtrip(const Frame& request) {
    return net::roundtrip(server_, *conn_, reader_, request);
  }

  /// Fire-and-forget (sample batches): write, then pump once so the
  /// server ingests it.
  void push(const Frame& frame) {
    write_pumping(server_, *conn_, encode_frame(frame));
    server_.poll_once(10);
  }

  /// Registers `count` nodes ("n0", "n1", ...) sharing one inline model.
  void add_nodes(std::size_t count) {
    Frame add = node_add_frame("", *fit_method(node_matrix(4, 60, 21)));
    for (std::size_t i = 0; i < count; ++i) {
      // Appended, not "n" + to_string(i): GCC 12 warns -Wrestrict on the
      // inlined operator+ (a false positive, fatal under -Werror).
      add.node = "n";
      add.node += std::to_string(i);
      ASSERT_EQ(roundtrip(add).type, FrameType::kOk);
    }
  }

  const std::string path_ = socket_path("fixture");
  core::StreamEngine engine_{engine_options()};
  FleetServer server_{listen_unix(path_), engine_, server_options()};
  std::unique_ptr<Connection> conn_ = connect_unix(path_);
  FrameReader reader_;
};

TEST_F(FleetServerTest, NodeAddIngestDrainMatchesReference) {
  const common::Matrix s = node_matrix(6, 120, 42);
  const auto method = fit_method(s);

  const Frame ack = roundtrip(node_add_frame("n0", *method));
  ASSERT_EQ(ack.type, FrameType::kOk) << decode_error_text(ack.payload);
  EXPECT_EQ(decode_ok(ack.payload), std::optional<std::uint64_t>(0));
  EXPECT_EQ(server_.node_index("n0"), 0u);

  // Push in two batches with an awkward split; the engine's windowing
  // must not care.
  push(batch_frame("n0", s.sub_cols(0, 47)));
  push(batch_frame("n0", s.sub_cols(47, 73)));

  Frame drain;
  drain.type = FrameType::kDrainRequest;
  drain.node = "n0";
  const Frame response = roundtrip(drain);
  ASSERT_EQ(response.type, FrameType::kDrainResponse)
      << decode_error_text(response.payload);
  const DrainResponse drained = decode_drain_response(response.payload);
  EXPECT_EQ(drained.dropped, 0u);

  core::StreamEngine reference(engine_options());
  reference.add_node("n0", method, s.rows());
  reference.ingest(0, s);
  const auto expected = reference.drain(0);
  ASSERT_EQ(drained.signatures.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(drained.signatures[k], expected[k]) << "signature " << k;
  }
}

TEST_F(FleetServerTest, SemanticErrorsAnswerWithoutClosing) {
  // Unknown node: kError naming it, connection stays up.
  Frame drain;
  drain.type = FrameType::kDrainRequest;
  drain.node = "ghost";
  const Frame err = roundtrip(drain);
  ASSERT_EQ(err.type, FrameType::kError);
  EXPECT_NE(decode_error_text(err.payload).find("ghost"),
            std::string::npos);
  EXPECT_TRUE(conn_->is_open());
  EXPECT_EQ(server_.n_connections(), 1u);

  // Empty node name on add.
  Frame add;
  add.type = FrameType::kNodeAdd;
  add.payload = encode_node_add(NodeAdd{});
  EXPECT_EQ(roundtrip(add).type, FrameType::kError);

  // Malformed payload in a well-formed frame.
  Frame bad;
  bad.type = FrameType::kSampleBatch;
  bad.node = "n";
  bad.payload = {1, 2, 3};
  EXPECT_EQ(roundtrip(bad).type, FrameType::kError);

  // A response type from a client is a protocol misuse, same taxonomy.
  Frame backwards;
  backwards.type = FrameType::kStatsResponse;
  EXPECT_EQ(roundtrip(backwards).type, FrameType::kError);
  EXPECT_TRUE(conn_->is_open());
}

TEST_F(FleetServerTest, DuplicateNodeAddIsRejected) {
  const common::Matrix s = node_matrix(4, 60, 7);
  const auto method = fit_method(s);
  ASSERT_EQ(roundtrip(node_add_frame("dup", *method)).type, FrameType::kOk);
  const Frame err = roundtrip(node_add_frame("dup", *method));
  ASSERT_EQ(err.type, FrameType::kError);
  EXPECT_NE(decode_error_text(err.payload).find("already exists"),
            std::string::npos);
}

TEST_F(FleetServerTest, RemoveNodeRetiresTheName) {
  const common::Matrix s = node_matrix(4, 60, 8);
  const auto method = fit_method(s);
  ASSERT_EQ(roundtrip(node_add_frame("gone", *method)).type,
            FrameType::kOk);

  Frame remove;
  remove.type = FrameType::kNodeRemove;
  remove.node = "gone";
  EXPECT_EQ(roundtrip(remove).type, FrameType::kOk);
  EXPECT_FALSE(engine_.alive(0));

  // Ingest at the removed name is now a semantic error...
  EXPECT_EQ(roundtrip(remove).type, FrameType::kError);
  // ...and the name is free for a fresh registration (new index).
  const Frame ack = roundtrip(node_add_frame("gone", *method));
  ASSERT_EQ(ack.type, FrameType::kOk);
  EXPECT_EQ(decode_ok(ack.payload), std::optional<std::uint64_t>(1));
}

// The f64 block of a sample batch sits at frame offset 20 + id length, so
// ids of 1..8 bytes put it at every offset mod 8; feeding the wire whole,
// byte by byte, 7 and 1000 bytes at a time also moves each frame around
// inside the server's read buffer (1000-byte reads leave long partial
// frames for the reader to carry over). Whatever the alignment and split, the drained
// signatures are bit for bit those of an engine fed the Matrix directly.
TEST(FleetServerIngest, EveryAlignmentAndSplitDrainsTheReferenceBytes) {
  const common::Matrix s = node_matrix(5, 60, 61);
  const auto method = fit_method(s);
  core::StreamEngine reference(engine_options());
  reference.add_node("ref", method, s.rows());
  reference.ingest(0, s);
  const std::vector<std::vector<double>> expected = reference.drain(0);
  ASSERT_FALSE(expected.empty());

  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{1000}}) {
    SCOPED_TRACE(chunk == 0 ? "whole" : "chunk " + std::to_string(chunk));
    core::StreamEngine engine(engine_options());
    const std::string path = socket_path("align");
    FleetServer server(listen_unix(path), engine, server_options());
    const std::unique_ptr<Connection> conn = connect_unix(path);
    FrameReader reader;
    std::vector<std::string> names;
    for (std::size_t id_len = 1; id_len <= 8; ++id_len) {
      names.emplace_back(id_len, static_cast<char>('a' + id_len - 1));
      ASSERT_EQ(roundtrip(server, *conn, reader,
                          node_add_frame(names.back(), *method))
                    .type,
                FrameType::kOk);
    }
    std::vector<std::uint8_t> wire;
    for (const auto& [start, len] : {std::pair<std::size_t, std::size_t>{0, 13},
                                    {13, 1}, {14, 29}, {43, 17}}) {
      for (const std::string& name : names) {
        const std::vector<std::uint8_t> frame =
            encode_frame(batch_frame(name, s.sub_cols(start, len)));
        wire.insert(wire.end(), frame.begin(), frame.end());
      }
    }
    const std::size_t step = chunk == 0 ? wire.size() : chunk;
    for (std::size_t at = 0; at < wire.size(); at += step) {
      write_pumping(
          server, *conn,
          std::span(wire).subspan(at, std::min(step, wire.size() - at)));
      server.poll_once(0);
    }
    for (const std::string& name : names) {
      SCOPED_TRACE(name);
      const Frame reply = roundtrip(server, *conn, reader,
                                    {FrameType::kDrainRequest, name, {}});
      ASSERT_EQ(reply.type, FrameType::kDrainResponse)
          << decode_error_text(reply.payload);
      const DrainResponse drained = decode_drain_response(reply.payload);
      ASSERT_EQ(drained.signatures.size(), expected.size());
      for (std::size_t k = 0; k < expected.size(); ++k) {
        ASSERT_EQ(drained.signatures[k].size(), expected[k].size());
        EXPECT_EQ(std::memcmp(drained.signatures[k].data(),
                              expected[k].data(),
                              expected[k].size() * sizeof(double)),
                  0)
            << "signature " << k;
      }
    }
    EXPECT_EQ(server.n_connections(), 1u);
  }
}

TEST_F(FleetServerTest, MalformedBatchesAnswerErrorAndKeepTheConnection) {
  const common::Matrix s = node_matrix(6, 40, 62);
  const auto method = fit_method(s);
  ASSERT_EQ(roundtrip(node_add_frame("n0", *method)).type, FrameType::kOk);
  const std::vector<std::uint8_t> good = encode_sample_batch(s.sub_cols(0, 3));

  std::vector<std::vector<std::uint8_t>> bad;
  bad.emplace_back(good.begin(), good.end() - 1);  // Truncated block.
  bad.push_back(good);
  bad.back().push_back(0);  // Trailing byte.
  bad.push_back({0, 0, 0, 0, 3, 0, 0, 0});  // n_sensors = 0, 3 columns.
  bad.push_back(encode_sample_batch(node_matrix(4, 3, 63)));  // 4 != 6.
  for (std::size_t i = 0; i < bad.size(); ++i) {
    Frame frame;
    frame.type = FrameType::kSampleBatch;
    frame.node = "n0";
    frame.payload = bad[i];
    EXPECT_EQ(roundtrip(frame).type, FrameType::kError) << "batch " << i;
    EXPECT_TRUE(conn_->is_open()) << "batch " << i;
    EXPECT_EQ(server_.n_connections(), 1u) << "batch " << i;
  }
  // None of them reached the node; a good batch still does.
  push(batch_frame("n0", s.sub_cols(0, 3)));
  Frame scrape;
  scrape.type = FrameType::kStatsRequest;
  const Frame stats = roundtrip(scrape);
  ASSERT_EQ(stats.type, FrameType::kStatsResponse);
  EXPECT_EQ(decode_stats_response(stats.payload).samples, 3u);
}

// Standalone (fresh engine/server): the pack must be wired into the server
// options before the first connection.
TEST(FleetServerPack, NodeAddFromModelPack) {
  const common::Matrix s = node_matrix(5, 80, 9);
  const auto method = fit_method(s);
  const std::filesystem::path file =
      std::filesystem::path(::testing::TempDir()) / "server_test_pack.csmp";
  {
    core::ModelPackWriter writer(file);
    writer.add("packed-node", *method);
    writer.finish();
  }
  const core::ModelPack pack = core::ModelPack::open(file);

  FleetServerOptions options = server_options();
  options.pack = &pack;
  core::StreamEngine engine(engine_options());
  const std::string path = socket_path("pack");
  FleetServer server(listen_unix(path), engine, std::move(options));
  auto conn = connect_unix(path);
  FrameReader reader;

  NodeAdd add;
  add.source = NodeAddSource::kPackId;
  add.pack_id = "packed-node";
  add.n_sensors = static_cast<std::uint32_t>(s.rows());
  Frame frame;
  frame.type = FrameType::kNodeAdd;
  frame.node = "n0";
  frame.payload = encode_node_add(add);
  const Frame ack = roundtrip(server, *conn, reader, frame);
  ASSERT_EQ(ack.type, FrameType::kOk) << decode_error_text(ack.payload);

  // An id the pack does not contain is a semantic error.
  add.pack_id = "no-such-id";
  frame.node = "n1";
  frame.payload = encode_node_add(add);
  EXPECT_EQ(roundtrip(server, *conn, reader, frame).type, FrameType::kError);
  std::filesystem::remove(file);
}

// csmd --record in miniature: a Recorder is the engine's ingest tap, and a
// client adds a CS node with n_sensors 0 ("take the count from the model")
// and pushes batches. The add is acked, the capture's node table holds the
// model's sensor count and every pushed batch, and replaying the capture
// through a fresh engine drains the live signatures byte for byte.
TEST(FleetServerRecord, ZeroSensorNodeAddIsCapturedAndReplays) {
  const common::Matrix s = node_matrix(6, 150, 13);
  const auto method = fit_method(s);
  replay::Recorder recorder;
  core::StreamEngine engine(engine_options());
  engine.set_tap(recorder.tap());
  const std::string path = socket_path("record");
  FleetServer server(listen_unix(path), engine, server_options());
  auto conn = connect_unix(path);
  FrameReader reader;

  const Frame add = node_add_frame("n0", *method);
  ASSERT_EQ(decode_node_add(add.payload).n_sensors, 0u);
  const Frame ack = roundtrip(server, *conn, reader, add);
  ASSERT_EQ(ack.type, FrameType::kOk) << decode_error_text(ack.payload);
  const std::vector<std::pair<std::size_t, std::size_t>> splits = {
      {0, 47}, {47, 80}, {127, 23}};
  for (const auto& [start, len] : splits) {
    write_pumping(server, *conn,
                  encode_frame(batch_frame("n0", s.sub_cols(start, len))));
  }
  Frame drain;
  drain.type = FrameType::kDrainRequest;
  drain.node = "n0";
  const Frame response = roundtrip(server, *conn, reader, drain);
  ASSERT_EQ(response.type, FrameType::kDrainResponse)
      << decode_error_text(response.payload);
  const std::vector<std::vector<double>> live =
      decode_drain_response(response.payload).signatures;
  ASSERT_FALSE(live.empty());

  engine.set_tap({});
  recorder.finish();
  replay::ReplayReader capture =
      replay::ReplayReader::open_bytes(recorder.bytes());
  ASSERT_EQ(capture.n_nodes(), 1u);
  EXPECT_EQ(capture.node(0).id, "n0");
  EXPECT_EQ(capture.node(0).n_sensors, s.rows());
  EXPECT_EQ(capture.batch_count(), splits.size());

  core::StreamEngine replayed(engine_options());
  replayed.add_node(capture.node(0).id, method);
  std::size_t k = 0;
  while (const auto batch = capture.next()) {
    ASSERT_LT(k, splits.size());
    EXPECT_EQ(batch->columns, common::ColumnBatch(s.sub_cols(
                                  splits[k].first, splits[k].second)));
    replayed.ingest(batch->node, batch->columns);
    ++k;
  }
  EXPECT_EQ(k, splits.size());
  const std::vector<std::vector<double>> again = replayed.drain(0);
  ASSERT_EQ(again.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(again[i].size(), live[i].size());
    EXPECT_EQ(std::memcmp(again[i].data(), live[i].data(),
                          live[i].size() * sizeof(double)),
              0)
        << "signature " << i;
  }
}

TEST_F(FleetServerTest, PackIdWithoutPackIsRejected) {
  NodeAdd add;
  add.source = NodeAddSource::kPackId;
  add.pack_id = "whatever";
  Frame frame;
  frame.type = FrameType::kNodeAdd;
  frame.node = "n0";
  frame.payload = encode_node_add(add);
  const Frame err = roundtrip(frame);
  ASSERT_EQ(err.type, FrameType::kError);
  EXPECT_NE(decode_error_text(err.payload).find("no model pack"),
            std::string::npos);
}

TEST_F(FleetServerTest, StatsScrapeReportsEngineAndBuild) {
  const common::Matrix s = node_matrix(6, 100, 11);
  const auto method = fit_method(s);
  ASSERT_EQ(roundtrip(node_add_frame("n0", *method)).type, FrameType::kOk);
  push(batch_frame("n0", s));

  Frame scrape;
  scrape.type = FrameType::kStatsRequest;
  const Frame response = roundtrip(scrape);
  ASSERT_EQ(response.type, FrameType::kStatsResponse);
  const StatsResponse stats = decode_stats_response(response.payload);
  EXPECT_EQ(stats.server_version, "test-build");
  EXPECT_EQ(stats.nodes, 1u);
  EXPECT_EQ(stats.samples, s.cols());
  EXPECT_GT(stats.signatures, 0u);
  // One ingest call -> one latency histogram sample (the clamp policy
  // keeps even an overflowing sample in total()).
  EXPECT_EQ(stats.ingest_latency_us.total(), 1u);
}

TEST(FleetServerDrift, NodeStatsScrapeCarriesDriftCounters) {
  core::StreamOptions opts = engine_options();
  opts.history_length = 64;
  opts.retrain_policy = core::RetrainPolicy::kOnDrift;
  opts.drift_threshold = 0.8;
  opts.drift_patience = 2;
  core::StreamEngine engine(opts);
  const std::string path = socket_path("drift");
  FleetServer server(listen_unix(path), engine, server_options());
  const std::unique_ptr<Connection> conn = connect_unix(path);
  FrameReader reader;
  // A level and gain jump halfway through: a regime change to flag.
  common::Matrix s = node_matrix(5, 200, 12);
  for (std::size_t r = 0; r < s.rows(); ++r) {
    for (std::size_t c = 100; c < s.cols(); ++c) s(r, c) = 3.0 * s(r, c) + 4.0;
  }
  ASSERT_EQ(roundtrip(server, *conn, reader,
                      node_add_frame("n0", *fit_method(s.sub_cols(0, 100))))
                .type,
            FrameType::kOk);
  write_pumping(server, *conn, encode_frame(batch_frame("n0", s)));

  Frame scrape;
  scrape.type = FrameType::kNodeStatsRequest;
  const Frame reply = roundtrip(server, *conn, reader, scrape);
  ASSERT_EQ(reply.type, FrameType::kNodeStatsResponse);
  const std::vector<core::NodeStats> rows =
      decode_node_stats_response(reply.payload).nodes;
  const std::vector<core::NodeStats> local = engine.node_stats();
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(local.size(), 1u);
  EXPECT_GT(rows[0].drift_windows, 0u);
  EXPECT_GT(rows[0].drift_flags, 0u);
  EXPECT_GT(rows[0].drift_retrains, 0u);
  EXPECT_EQ(rows[0].name, local[0].name);
  core::StreamCounters::for_each_field([&](const char* name, auto field) {
    if constexpr (core::kIsHistogramField<decltype(field)>) {
      EXPECT_EQ((rows[0].*field).total(), (local[0].*field).total()) << name;
    } else {
      EXPECT_EQ(rows[0].*field, local[0].*field) << name;
    }
  });
}

TEST(FleetServerRefit, FailedRefitGetsNoErrorAndIsCounted) {
  // kSync, a refit every 60 samples over a 40-column history. Sensor 2 is
  // dead (NaN) through the whole second batch, so the refit at sample 120
  // sees no finite value of it and the CS fit throws. The one-way push must
  // get no kError; the node keeps its model and counts the failure.
  core::StreamOptions opts = engine_options();  // wl 20, ws 10.
  opts.history_length = 40;
  opts.retrain_interval = 60;
  core::StreamEngine engine(opts);
  const std::string path = socket_path("refit");
  FleetServer server(listen_unix(path), engine, server_options());
  const std::unique_ptr<Connection> conn = connect_unix(path);
  FrameReader reader;
  common::Matrix s = node_matrix(5, 120, 14);
  for (std::size_t c = 60; c < s.cols(); ++c) s(2, c) = std::nan("");
  ASSERT_EQ(roundtrip(server, *conn, reader,
                      node_add_frame("n0", *fit_method(s.sub_cols(0, 60))))
                .type,
            FrameType::kOk);
  write_pumping(server, *conn,
                encode_frame(batch_frame("n0", s.sub_cols(0, 60))));
  write_pumping(server, *conn,
                encode_frame(batch_frame("n0", s.sub_cols(60, 60))));

  // The next reply on the connection is the drain's, with every window.
  Frame drain;
  drain.type = FrameType::kDrainRequest;
  drain.node = "n0";
  const Frame drained = roundtrip(server, *conn, reader, drain);
  if (drained.type == FrameType::kError) {
    FAIL() << "answered with kError: " << decode_error_text(drained.payload);
  }
  ASSERT_EQ(drained.type, FrameType::kDrainResponse);
  EXPECT_EQ(decode_drain_response(drained.payload).signatures.size(), 11u);

  Frame scrape;
  scrape.type = FrameType::kNodeStatsRequest;
  const Frame reply = roundtrip(server, *conn, reader, scrape);
  ASSERT_EQ(reply.type, FrameType::kNodeStatsResponse);
  const std::vector<core::NodeStats> rows =
      decode_node_stats_response(reply.payload).nodes;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].samples, 120u);
  EXPECT_EQ(rows[0].signatures, 11u);
  EXPECT_EQ(rows[0].retrains, 1u);  // The clean refit at sample 60.
  EXPECT_EQ(rows[0].retrain_failures, 1u);
}

TEST_F(FleetServerTest, CorruptFrameGetsErrorThenDisconnect) {
  std::vector<std::uint8_t> garbage = encode_frame(Frame{});
  garbage[0] = 'Z';  // Bad magic: the stream is unframeable.
  write_pumping(server_, *conn_, garbage);

  // The parting kError frame arrives, then the server hangs up.
  FrameReader reader;
  const std::optional<Frame> err = [&]() -> std::optional<Frame> {
    for (int i = 0; i < 1000; ++i) {
      server_.poll_once(10);
      std::array<std::uint8_t, 4096> buf{};
      while (const std::size_t n = conn_->read_some(buf)) {
        reader.feed({buf.data(), n});
      }
      if (auto frame = reader.next()) return frame;
      if (!conn_->is_open()) return std::nullopt;
    }
    return std::nullopt;
  }();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, FrameType::kError);
  EXPECT_NE(decode_error_text(err->payload).find("magic"),
            std::string::npos);

  for (int i = 0; i < 1000 && server_.n_connections() > 0; ++i) {
    server_.poll_once(10);
  }
  EXPECT_EQ(server_.n_connections(), 0u);
}

TEST_F(FleetServerTest, ClientDisconnectMidFrameIsDropped) {
  const std::vector<std::uint8_t> wire =
      encode_frame(batch_frame("n0", node_matrix(4, 30, 3)));
  write_pumping(server_, *conn_, {wire.data(), wire.size() / 2});
  server_.poll_once(10);
  EXPECT_EQ(server_.n_connections(), 1u);

  conn_->close();  // Truncated frame + EOF: not a clean close.
  for (int i = 0; i < 1000 && server_.n_connections() > 0; ++i) {
    server_.poll_once(10);
  }
  EXPECT_EQ(server_.n_connections(), 0u);
  EXPECT_EQ(server_.frames_handled(), 0u);
}

TEST_F(FleetServerTest, SampleBatchesAreNotAcked) {
  const common::Matrix s = node_matrix(4, 60, 5);
  const auto method = fit_method(s);
  ASSERT_EQ(roundtrip(node_add_frame("n0", *method)).type, FrameType::kOk);

  push(batch_frame("n0", s));
  // A stats roundtrip is the sync point; the batch must produce no frame
  // of its own, so the next frame back is exactly the stats response.
  Frame scrape;
  scrape.type = FrameType::kStatsRequest;
  EXPECT_EQ(roundtrip(scrape).type, FrameType::kStatsResponse);
}

// Reply flushing, which only a real socket shows: a reply larger than the
// send buffer, a client that does not read and one that half-closes. The
// test thread pumps the server and reads the client in turn.
using FleetServerUnixTest = FleetServerTest;

// A node-stats row is ~2.2 KiB, so 512 nodes make a reply of over 1 MiB:
// several refills of any unix socket send buffer.
constexpr std::size_t kLargeFleet = 512;

TEST_F(FleetServerUnixTest, LargeReplyResumesAsSoonAsTheClientDrains) {
  ASSERT_NO_FATAL_FAILURE(add_nodes(kLargeFleet));
  Frame request;
  request.type = FrameType::kNodeStatsRequest;
  write_frame(*conn_, request);

  std::vector<std::uint8_t> buf(64 * 1024);
  std::optional<Frame> reply;
  for (int polls = 0; !reply.has_value(); ++polls) {
    ASSERT_LT(polls, 1000) << "no reply";
    // Every poll after the first follows a drain, so it must not sit out
    // its timeout.
    const auto start = std::chrono::steady_clock::now();
    server_.poll_once(10000);
    const auto took = std::chrono::steady_clock::now() - start;
    ASSERT_LT(took, std::chrono::seconds(2)) << "poll " << polls;
    while (const std::size_t n = conn_->read_some(buf)) {
      reader_.feed({buf.data(), n});
    }
    reply = reader_.next();
  }
  ASSERT_EQ(reply->type, FrameType::kNodeStatsResponse);
  EXPECT_GT(reply->payload.size(), std::size_t{1} << 20);
  const NodeStatsResponse decoded = decode_node_stats_response(reply->payload);
  EXPECT_EQ(decoded.nodes.size(), kLargeFleet);
  NodeStatsResponse expected;
  expected.nodes = engine_.node_stats();
  EXPECT_EQ(reply->payload, encode_node_stats_response(expected));
}

TEST_F(FleetServerUnixTest, NonReadingClientLeavesTheWaitIdle) {
  ASSERT_NO_FATAL_FAILURE(add_nodes(kLargeFleet));
  Frame request;
  request.type = FrameType::kNodeStatsRequest;
  write_frame(*conn_, request);
  ASSERT_TRUE(server_.poll_once(10000));  // Handled; the reply is stuck.

  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(server_.poll_once(100));
    const auto took = std::chrono::steady_clock::now() - start;
    EXPECT_GE(took, std::chrono::milliseconds(90));
  }
  EXPECT_EQ(server_.n_connections(), 1u);
}

TEST_F(FleetServerUnixTest, HalfClosedClientStillGetsItsReply) {
  Frame scrape;
  scrape.type = FrameType::kStatsRequest;
  write_frame(*conn_, scrape);
  ASSERT_EQ(::shutdown(conn_->native_handle(), SHUT_WR), 0);
  for (int i = 0; i < 100 && server_.frames_handled() == 0; ++i) {
    server_.poll_once(100);
  }
  ASSERT_EQ(server_.frames_handled(), 1u);

  const std::optional<Frame> reply = read_frame(*conn_, reader_, 5000);
  ASSERT_TRUE(reply.has_value()) << "EOF instead of the stats response";
  ASSERT_EQ(reply->type, FrameType::kStatsResponse);
  const StatsResponse stats = decode_stats_response(reply->payload);
  EXPECT_EQ(stats.server_version, "test-build");
  EXPECT_FALSE(read_frame(*conn_, reader_, 5000).has_value());  // Then EOF.
  EXPECT_EQ(server_.n_connections(), 0u);
}

}  // namespace
}  // namespace csm::net
