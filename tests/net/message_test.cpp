#include "net/message.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/matrix_view.hpp"
#include "core/model_codec.hpp"

namespace csm::net {
namespace {

TEST(PayloadReader, ReadsScalarsInOrder) {
  const std::vector<std::uint8_t> bytes = {
      0x2a,                    // u8 = 42
      0x01, 0x02,              // u16 = 0x0201
      0x04, 0x03, 0x02, 0x01,  // u32 = 0x01020304
  };
  PayloadReader in(bytes);
  EXPECT_EQ(in.u8("a"), 42u);
  EXPECT_EQ(in.u16("b"), 0x0201u);
  EXPECT_EQ(in.u32("c"), 0x01020304u);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_NO_THROW(in.finish("scalars"));
}

TEST(PayloadReader, TruncationNamesTheField) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02};
  PayloadReader in(bytes);
  try {
    in.u32("n_sensors");
    FAIL() << "expected MessageError";
  } catch (const MessageError& e) {
    EXPECT_NE(std::string(e.what()).find("n_sensors"), std::string::npos)
        << e.what();
  }
}

// The no-allocation-from-unvalidated-length rule: a count far beyond the
// bytes present must be rejected up front, not used to size a vector.
TEST(PayloadReader, HugeArrayCountIsRejectedBeforeAllocation) {
  const std::vector<std::uint8_t> bytes(16, 0);
  PayloadReader in(bytes);
  EXPECT_THROW(in.f64_array("values", UINT64_C(0x2000000000000000)),
               MessageError);
  PayloadReader in2(bytes);
  EXPECT_THROW(in2.u64_array("values", UINT64_C(0x2000000000000000)),
               MessageError);
  PayloadReader in3(bytes);
  EXPECT_THROW(in3.bytes("record", UINT64_C(0xffffffffffffffff)),
               MessageError);
}

TEST(PayloadReader, FinishRejectsTrailingBytes) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02};
  PayloadReader in(bytes);
  in.u8("a");
  EXPECT_THROW(in.finish("message"), MessageError);
}

TEST(SampleBatch, RoundTripsColumnMajor) {
  common::Matrix m(3, 4);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = static_cast<double>(10 * r) + static_cast<double>(c) + 0.25;
    }
  }
  const std::vector<std::uint8_t> payload = encode_sample_batch(m);
  EXPECT_EQ(payload.size(), 8u + 3u * 4u * sizeof(double));
  const common::Matrix back =
      common::MatrixView(decode_sample_batch(payload)).materialize();
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(back(r, c), m(r, c)) << r << "," << c;
    }
  }
}

TEST(SampleBatch, EitherLayoutEncodesTheSameBytes) {
  common::Matrix m(3, 5);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = static_cast<double>(r) - 0.5 * static_cast<double>(c);
    }
  }
  const std::vector<std::uint8_t> payload = encode_sample_batch(m);
  const common::ColumnBatch columns(m);
  EXPECT_EQ(encode_sample_batch(columns), payload);
  // The block after the two counts is column-major, sample after sample.
  for (std::size_t c = 0; c < m.cols(); ++c) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(core::codec::load_u64(payload.data() + 8 +
                                      (c * m.rows() + r) * sizeof(double)),
                std::bit_cast<std::uint64_t>(m(r, c)));
    }
  }
  // A reused decode buffer takes any shape.
  common::ColumnBatch reused(7, 9);
  decode_sample_batch(payload, reused);
  EXPECT_EQ(reused, columns);
}

TEST(SampleBatch, RejectsTruncatedData) {
  common::Matrix m(2, 3);
  std::vector<std::uint8_t> payload = encode_sample_batch(m);
  payload.resize(payload.size() - 1);
  EXPECT_THROW(decode_sample_batch(payload), MessageError);
}

TEST(SampleBatch, RejectsTrailingBytes) {
  common::Matrix m(2, 3);
  std::vector<std::uint8_t> payload = encode_sample_batch(m);
  payload.push_back(0);
  EXPECT_THROW(decode_sample_batch(payload), MessageError);
}

TEST(NodeAdd, RoundTripsInlineRecord) {
  NodeAdd msg;
  msg.source = NodeAddSource::kInlineRecord;
  msg.n_sensors = 12;
  msg.record = {0xca, 0xfe, 0x00, 0x01};
  const NodeAdd back = decode_node_add(encode_node_add(msg));
  EXPECT_EQ(back.source, msg.source);
  EXPECT_EQ(back.n_sensors, msg.n_sensors);
  EXPECT_EQ(back.record, msg.record);
  EXPECT_TRUE(back.pack_id.empty());
}

TEST(NodeAdd, RoundTripsPackId) {
  NodeAdd msg;
  msg.source = NodeAddSource::kPackId;
  msg.n_sensors = 0;
  msg.pack_id = "rack3/node07";
  const NodeAdd back = decode_node_add(encode_node_add(msg));
  EXPECT_EQ(back.source, msg.source);
  EXPECT_EQ(back.pack_id, msg.pack_id);
  EXPECT_TRUE(back.record.empty());
}

TEST(NodeAdd, RejectsUnknownSource) {
  NodeAdd msg;
  std::vector<std::uint8_t> payload = encode_node_add(msg);
  payload[0] = 7;  // Not a NodeAddSource.
  EXPECT_THROW(decode_node_add(payload), MessageError);
}

TEST(DrainResponse, RoundTripsSignaturesAndDropCounter) {
  DrainResponse msg;
  msg.dropped = 1234567890123ULL;
  msg.signatures = {{1.0, -2.5, 3.25}, {}, {0.0}};
  const DrainResponse back =
      decode_drain_response(encode_drain_response(msg));
  EXPECT_EQ(back, msg);
}

TEST(DrainResponse, RejectsCountBeyondPayload) {
  DrainResponse msg;
  msg.signatures = {{1.0}};
  std::vector<std::uint8_t> payload = encode_drain_response(msg);
  payload[8] = 0xff;  // count u32 at offset 8: claim 255+ vectors.
  EXPECT_THROW(decode_drain_response(payload), MessageError);
}

TEST(StatsResponse, RoundTripsCountersVersionAndHistogram) {
  core::EngineStats stats;
  stats.samples = 1000;
  stats.signatures = 99;
  stats.retrains = 3;
  stats.dropped = 7;
  stats.nodes = 5;
  stats.ingest_seconds = 1.5;
  stats.ingest_latency_us.add(12.0);
  stats.ingest_latency_us.add(90000.0);  // Overflow sample.
  const StatsResponse msg{stats, "abc123"};

  const StatsResponse back =
      decode_stats_response(encode_stats_response(msg));
  EXPECT_EQ(back.samples, stats.samples);
  EXPECT_EQ(back.signatures, stats.signatures);
  EXPECT_EQ(back.retrains, stats.retrains);
  EXPECT_EQ(back.dropped, stats.dropped);
  EXPECT_EQ(back.nodes, stats.nodes);
  EXPECT_EQ(back.ingest_seconds, stats.ingest_seconds);
  EXPECT_EQ(back.server_version, "abc123");
  ASSERT_EQ(back.ingest_latency_us.bins(), stats.ingest_latency_us.bins());
  EXPECT_EQ(back.ingest_latency_us.lo(), stats.ingest_latency_us.lo());
  EXPECT_EQ(back.ingest_latency_us.hi(), stats.ingest_latency_us.hi());
  EXPECT_EQ(back.ingest_latency_us.total(),
            stats.ingest_latency_us.total());
  EXPECT_EQ(back.ingest_latency_us.overflow(),
            stats.ingest_latency_us.overflow());
  for (std::size_t b = 0; b < back.ingest_latency_us.bins(); ++b) {
    EXPECT_EQ(back.ingest_latency_us.count(b),
              stats.ingest_latency_us.count(b))
        << "bin " << b;
  }
}

TEST(StatsResponse, RejectsTruncatedHistogram) {
  const StatsResponse msg{core::EngineStats{}, "v"};
  std::vector<std::uint8_t> payload = encode_stats_response(msg);
  payload.resize(payload.size() - 4);
  EXPECT_THROW(decode_stats_response(payload), MessageError);
}

TEST(StatsResponse, RoundTripsAppendedRetrainFields) {
  core::EngineStats stats;
  stats.retrains = 4;
  stats.retrain_aborts = 2;
  stats.retrain_failures = 5;
  stats.retrain_latency_us.add(1500.0);
  stats.retrain_latency_us.add(2.0e7);  // Overflow sample.
  const StatsResponse back =
      decode_stats_response(encode_stats_response({stats, "v"}));
  EXPECT_EQ(back.retrains, 4u);
  EXPECT_EQ(back.retrain_aborts, 2u);
  EXPECT_EQ(back.retrain_failures, 5u);
  EXPECT_EQ(back.retrain_latency_us.total(),
            stats.retrain_latency_us.total());
  EXPECT_EQ(back.retrain_latency_us.overflow(), 1u);
  ASSERT_EQ(back.retrain_latency_us.bins(),
            stats.retrain_latency_us.bins());
  for (std::size_t b = 0; b < back.retrain_latency_us.bins(); ++b) {
    EXPECT_EQ(back.retrain_latency_us.count(b),
              stats.retrain_latency_us.count(b))
        << "bin " << b;
  }
}

TEST(StatsResponse, RoundTripsDriftCounters) {
  core::EngineStats stats;
  stats.drift_windows = 1234;
  stats.drift_flags = 56;
  stats.drift_retrains = 7;
  const StatsResponse msg{stats, "drifty"};
  const StatsResponse back =
      decode_stats_response(encode_stats_response(msg));
  EXPECT_EQ(back.drift_windows, 1234u);
  EXPECT_EQ(back.drift_flags, 56u);
  EXPECT_EQ(back.drift_retrains, 7u);
}

// A counter block cut into its parts, so a test can splice the block an
// older peer (fewer fields) or a newer one (extra fields) would send.
struct CounterBlock {
  std::vector<std::uint8_t> head;  ///< Payload bytes before the block.
  std::vector<std::vector<std::uint8_t>> counters;    ///< 8 bytes each.
  std::vector<std::vector<std::uint8_t>> histograms;  ///< Encoded whole.

  /// Splits the block that ends `payload`, starting at byte `at`.
  CounterBlock(const std::vector<std::uint8_t>& payload, std::size_t at)
      : head(payload.begin(), payload.begin() + at) {
    const auto take = [&](std::size_t n) {
      std::vector<std::uint8_t> part(payload.begin() + at,
                                     payload.begin() + at + n);
      at += n;
      return part;
    };
    for (std::size_t n = take(1)[0]; n > 0; --n) counters.push_back(take(8));
    for (std::size_t m = take(1)[0]; m > 0; --m) {
      std::uint32_t bins = 0;
      std::memcpy(&bins, payload.data() + at + 32, 4);  // After lo..overflow.
      histograms.push_back(take(36 + 8 * std::size_t{bins}));
    }
    EXPECT_EQ(at, payload.size());
  }

  std::vector<std::uint8_t> bytes() const {
    std::vector<std::uint8_t> out = head;
    out.push_back(static_cast<std::uint8_t>(counters.size()));
    for (const auto& c : counters) out.insert(out.end(), c.begin(), c.end());
    out.push_back(static_cast<std::uint8_t>(histograms.size()));
    for (const auto& h : histograms) out.insert(out.end(), h.begin(), h.end());
    return out;
  }
};

// A stats payload with every counter and both histograms non-zero; its
// block starts after u64 nodes | f64 ingest_seconds | u16 len | "v".
constexpr std::size_t kStatsBlockAt = 8 + 8 + 2 + 1;

std::vector<std::uint8_t> full_stats_payload() {
  StatsResponse msg;
  msg.server_version = "v";
  msg.nodes = 3;
  std::uint64_t next = 1;
  core::StreamCounters::for_each_field([&](const char*, auto field) {
    if constexpr (core::kIsHistogramField<decltype(field)>) {
      (msg.*field).add(10.0);
    } else {
      msg.*field = next++;
    }
  });
  return encode_stats_response(msg);
}

TEST(CounterBlock, MissingFieldsDecodeAsZero) {
  // An older peer's block: the first three counters and one histogram.
  CounterBlock block(full_stats_payload(), kStatsBlockAt);
  ASSERT_EQ(block.counters.size(), 9u);
  ASSERT_EQ(block.histograms.size(), 2u);
  block.counters.resize(3);
  block.histograms.resize(1);

  const StatsResponse back = decode_stats_response(block.bytes());
  EXPECT_EQ(back.samples, 1u);
  EXPECT_EQ(back.signatures, 2u);
  EXPECT_EQ(back.retrains, 3u);
  EXPECT_EQ(back.retrain_aborts, 0u);
  EXPECT_EQ(back.dropped, 0u);
  EXPECT_EQ(back.drift_windows, 0u);
  EXPECT_EQ(back.drift_flags, 0u);
  EXPECT_EQ(back.drift_retrains, 0u);
  EXPECT_EQ(back.retrain_failures, 0u);
  EXPECT_EQ(back.ingest_latency_us.total(), 1u);
  EXPECT_EQ(back.retrain_latency_us.total(), 0u);
  EXPECT_EQ(back.retrain_latency_us.bins(), core::kRetrainLatencyBins);
  EXPECT_EQ(back.nodes, 3u);
  EXPECT_EQ(back.server_version, "v");
}

TEST(CounterBlock, ExtraFieldsAreSkipped) {
  // A newer peer's block: one more counter and one more histogram.
  const std::vector<std::uint8_t> payload = full_stats_payload();
  CounterBlock block(payload, kStatsBlockAt);
  block.counters.push_back(std::vector<std::uint8_t>(8, 0xab));
  block.histograms.push_back(block.histograms.front());

  const StatsResponse back = decode_stats_response(block.bytes());
  EXPECT_EQ(encode_stats_response(back), payload);
}

TEST(CounterBlock, CountBeyondThePayloadIsRejected) {
  CounterBlock block(full_stats_payload(), kStatsBlockAt);
  block.histograms.clear();
  std::vector<std::uint8_t> bytes = block.bytes();
  bytes[kStatsBlockAt] = 255;  // 255 counters cannot fit in 73 bytes.
  try {
    decode_stats_response(bytes);
    FAIL() << "expected MessageError";
  } catch (const MessageError& e) {
    EXPECT_NE(std::string(e.what()).find("counter_count"), std::string::npos)
        << e.what();
  }

  bytes = CounterBlock(full_stats_payload(), kStatsBlockAt).bytes();
  bytes[kStatsBlockAt + 1 + 9 * 8] = 255;  // Histogram count.
  try {
    decode_stats_response(bytes);
    FAIL() << "expected MessageError";
  } catch (const MessageError& e) {
    EXPECT_NE(std::string(e.what()).find("histogram_count"),
              std::string::npos)
        << e.what();
  }
}

// The stats payload with the ingest histogram's lo and hi overwritten.
std::vector<std::uint8_t> stats_with_bounds(double lo, double hi) {
  CounterBlock block(full_stats_payload(), kStatsBlockAt);
  std::vector<std::uint8_t>& ingest = block.histograms.front();
  const std::uint64_t lo_bits = std::bit_cast<std::uint64_t>(lo);
  const std::uint64_t hi_bits = std::bit_cast<std::uint64_t>(hi);
  std::memcpy(ingest.data(), &lo_bits, 8);
  std::memcpy(ingest.data() + 8, &hi_bits, 8);
  return block.bytes();
}

void expect_bounds_rejected(double lo, double hi) {
  try {
    decode_stats_response(stats_with_bounds(lo, hi));
    FAIL() << "expected MessageError for lo=" << lo << " hi=" << hi;
  } catch (const MessageError& e) {
    EXPECT_NE(std::string(e.what()).find("ingest_latency_us"),
              std::string::npos)
        << e.what();
  }
}

TEST(CounterBlock, RejectsNanHistogramBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_bounds_rejected(nan, nan);
  expect_bounds_rejected(0.0, nan);
  expect_bounds_rejected(nan, 1.0);
}

TEST(CounterBlock, RejectsInfiniteHistogramBounds) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_bounds_rejected(-inf, inf);
  expect_bounds_rejected(0.0, inf);
  expect_bounds_rejected(-inf, 0.0);
  // Finite bounds through the same splice still decode.
  EXPECT_NO_THROW(decode_stats_response(stats_with_bounds(0.0, 1.0)));
}

TEST(NodeStatsResponse, RoundTripsRows) {
  NodeStatsResponse msg;
  core::NodeStats a;
  a.name = "rack3/node07";
  a.samples = 123456;
  a.signatures = 789;
  a.retrains = 11;
  a.retrain_aborts = 3;
  a.dropped = 2;
  a.drift_windows = 40;
  a.drift_flags = 5;
  a.drift_retrains = 1;
  a.retrain_failures = 6;
  a.ingest_latency_us.add(42.0);
  a.retrain_latency_us.add(90000.0);
  core::NodeStats b;  // All-default row (empty name is legal on the wire).
  msg.nodes = {a, b};

  const NodeStatsResponse back =
      decode_node_stats_response(encode_node_stats_response(msg));
  ASSERT_EQ(back.nodes.size(), 2u);
  EXPECT_EQ(back.nodes[0].name, a.name);
  EXPECT_EQ(back.nodes[0].samples, a.samples);
  EXPECT_EQ(back.nodes[0].signatures, a.signatures);
  EXPECT_EQ(back.nodes[0].retrains, a.retrains);
  EXPECT_EQ(back.nodes[0].retrain_aborts, a.retrain_aborts);
  EXPECT_EQ(back.nodes[0].dropped, a.dropped);
  EXPECT_EQ(back.nodes[0].drift_windows, a.drift_windows);
  EXPECT_EQ(back.nodes[0].drift_flags, a.drift_flags);
  EXPECT_EQ(back.nodes[0].drift_retrains, a.drift_retrains);
  EXPECT_EQ(back.nodes[0].retrain_failures, a.retrain_failures);
  EXPECT_EQ(back.nodes[0].ingest_latency_us.total(), 1u);
  EXPECT_EQ(back.nodes[0].retrain_latency_us.total(), 1u);
  EXPECT_EQ(back.nodes[0].retrain_latency_us.bins(),
            a.retrain_latency_us.bins());
  EXPECT_EQ(back.nodes[1].name, "");
  EXPECT_EQ(back.nodes[1].samples, 0u);
}

TEST(NodeStatsResponse, RejectsCountBeyondPayload) {
  NodeStatsResponse msg;
  msg.nodes.emplace_back();
  std::vector<std::uint8_t> payload = encode_node_stats_response(msg);
  payload[0] = 0xff;  // count u32 at offset 0: claim 255+ rows.
  payload[1] = 0xff;
  EXPECT_THROW(decode_node_stats_response(payload), MessageError);
}

TEST(NodeStatsResponse, RejectsTruncatedRow) {
  NodeStatsResponse msg;
  msg.nodes.emplace_back();
  msg.nodes.back().name = "n0";
  std::vector<std::uint8_t> payload = encode_node_stats_response(msg);
  payload.resize(payload.size() - 3);
  EXPECT_THROW(decode_node_stats_response(payload), MessageError);
}

TEST(NodeStatsResponse, RejectsTrailingGarbage) {
  NodeStatsResponse msg;
  msg.nodes.emplace_back();
  std::vector<std::uint8_t> payload = encode_node_stats_response(msg);
  payload.push_back(0);
  EXPECT_THROW(decode_node_stats_response(payload), MessageError);
}

TEST(OkMessage, RoundTripsWithAndWithoutValue) {
  EXPECT_EQ(decode_ok(encode_ok(42)), std::optional<std::uint64_t>(42));
  EXPECT_EQ(decode_ok(encode_ok(std::nullopt)), std::nullopt);
}

TEST(ErrorMessage, RoundTripsAndTruncatesAtCap) {
  EXPECT_EQ(decode_error_text(encode_error_text("bad node")), "bad node");
  const std::string huge(2 * kMaxErrorTextBytes, 'e');
  const std::string back = decode_error_text(encode_error_text(huge));
  EXPECT_EQ(back.size(), kMaxErrorTextBytes);
}

}  // namespace
}  // namespace csm::net
