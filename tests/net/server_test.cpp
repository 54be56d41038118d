#include "net/server.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/method_registry.hpp"
#include "core/model_codec.hpp"
#include "core/model_pack.hpp"
#include "core/stream_engine.hpp"
#include "core/training.hpp"
#include "net/loopback.hpp"
#include "net/message.hpp"

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

// One server + one client on the same thread: the client writes a frame,
// then the fixture pumps poll_once until the response arrives. Loopback
// writes never block, so this cannot deadlock.
class FleetServerTest : public ::testing::Test {
 protected:
  FleetServerTest() {
    FleetServerOptions options;
    options.server_version = "test-build";
    options.registry = &baselines::default_registry();
    server_ = std::make_unique<FleetServer>(hub_.listen(), engine_,
                                            std::move(options));
    conn_ = hub_.connect();
  }

  /// Sends `request` and pumps the server until one response frame is
  /// back. Unlike transport.hpp's call(), a kError answer is returned,
  /// not thrown, so tests can inspect it.
  Frame roundtrip(const Frame& request) {
    write_frame(*conn_, request);
    FrameReader& reader = reader_;
    for (int i = 0; i < 1000; ++i) {
      server_->poll_once(10);
      std::array<std::uint8_t, 4096> buf{};
      while (const std::size_t n = conn_->read_some(buf)) {
        reader.feed({buf.data(), n});
      }
      if (std::optional<Frame> frame = reader.next()) {
        return *std::move(frame);
      }
    }
    ADD_FAILURE() << "no response after 1000 poll iterations";
    return Frame{};
  }

  /// Fire-and-forget (sample batches): write, then pump once so the
  /// server ingests it.
  void push(const Frame& frame) {
    write_frame(*conn_, frame);
    server_->poll_once(10);
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

  LoopbackHub hub_;
  core::StreamEngine engine_{engine_options()};
  std::unique_ptr<FleetServer> server_;
  std::unique_ptr<Connection> conn_;
  FrameReader reader_;
};

TEST_F(FleetServerTest, NodeAddIngestDrainMatchesReference) {
  const common::Matrix s = node_matrix(6, 120, 42);
  const auto method = fit_method(s);

  const Frame ack = roundtrip(node_add_frame("n0", *method));
  ASSERT_EQ(ack.type, FrameType::kOk) << decode_error_text(ack.payload);
  EXPECT_EQ(decode_ok(ack.payload), std::optional<std::uint64_t>(0));
  EXPECT_EQ(server_->node_index("n0"), 0u);

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
  EXPECT_EQ(server_->n_connections(), 1u);

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

// Standalone (fresh hub/engine/server): the pack must be wired into the
// server options before the first connection.
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

  FleetServerOptions options;
  options.server_version = "test-build";
  options.registry = &baselines::default_registry();
  options.pack = &pack;
  core::StreamEngine engine(engine_options());
  LoopbackHub hub;
  FleetServer server(hub.listen(), engine, std::move(options));
  auto conn = hub.connect();
  FrameReader reader;
  const auto roundtrip = [&](const Frame& request) {
    write_frame(*conn, request);
    for (int i = 0; i < 1000; ++i) {
      server.poll_once(10);
      std::array<std::uint8_t, 4096> buf{};
      while (const std::size_t n = conn->read_some(buf)) {
        reader.feed({buf.data(), n});
      }
      if (std::optional<Frame> frame = reader.next()) {
        return *std::move(frame);
      }
    }
    ADD_FAILURE() << "no response after 1000 poll iterations";
    return Frame{};
  };

  NodeAdd add;
  add.source = NodeAddSource::kPackId;
  add.pack_id = "packed-node";
  add.n_sensors = static_cast<std::uint32_t>(s.rows());
  Frame frame;
  frame.type = FrameType::kNodeAdd;
  frame.node = "n0";
  frame.payload = encode_node_add(add);
  const Frame ack = roundtrip(frame);
  ASSERT_EQ(ack.type, FrameType::kOk) << decode_error_text(ack.payload);

  // An id the pack does not contain is a semantic error.
  add.pack_id = "no-such-id";
  frame.node = "n1";
  frame.payload = encode_node_add(add);
  EXPECT_EQ(roundtrip(frame).type, FrameType::kError);
  std::filesystem::remove(file);
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

TEST_F(FleetServerTest, CorruptFrameGetsErrorThenDisconnect) {
  std::vector<std::uint8_t> garbage = encode_frame(Frame{});
  garbage[0] = 'Z';  // Bad magic: the stream is unframeable.
  write_all(*conn_, garbage);

  // The parting kError frame arrives, then the server hangs up.
  FrameReader reader;
  const std::optional<Frame> err = [&]() -> std::optional<Frame> {
    for (int i = 0; i < 1000; ++i) {
      server_->poll_once(10);
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

  for (int i = 0; i < 1000 && server_->n_connections() > 0; ++i) {
    server_->poll_once(10);
  }
  EXPECT_EQ(server_->n_connections(), 0u);
}

TEST_F(FleetServerTest, ClientDisconnectMidFrameIsDropped) {
  const std::vector<std::uint8_t> wire =
      encode_frame(batch_frame("n0", node_matrix(4, 30, 3)));
  write_all(*conn_, {wire.data(), wire.size() / 2});
  server_->poll_once(10);
  EXPECT_EQ(server_->n_connections(), 1u);

  conn_->close();  // Truncated frame + EOF: not a clean close.
  for (int i = 0; i < 1000 && server_->n_connections() > 0; ++i) {
    server_->poll_once(10);
  }
  EXPECT_EQ(server_->n_connections(), 0u);
  EXPECT_EQ(server_->frames_handled(), 0u);
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

}  // namespace
}  // namespace csm::net
