#include "net/message.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "core/model_codec.hpp"

namespace csm::net {

namespace {

using core::codec::append_f64s;
using core::codec::append_u16;
using core::codec::append_u32;
using core::codec::append_u64;

void append_f64(std::vector<std::uint8_t>& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

// Histogram wire form: f64 lo | f64 hi | u64 underflow | u64 overflow |
// u32 bins | u64 x bins.
void append_histogram(std::vector<std::uint8_t>& out,
                      const stats::Histogram& h) {
  if (h.bins() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("CSMF encode: histogram bin count exceeds u32");
  }
  append_f64(out, h.lo());
  append_f64(out, h.hi());
  append_u64(out, h.underflow());
  append_u64(out, h.overflow());
  append_u32(out, static_cast<std::uint32_t>(h.bins()));
  for (std::size_t i = 0; i < h.bins(); ++i) append_u64(out, h.count(i));
}

stats::Histogram read_histogram(PayloadReader& in, const char* field) {
  const double lo = in.f64("hist_lo");
  const double hi = in.f64("hist_hi");
  const std::uint64_t underflow = in.u64("hist_underflow");
  const std::uint64_t overflow = in.u64("hist_overflow");
  const std::uint64_t bins = in.u32("hist_bins");
  std::vector<std::uint64_t> counts = in.u64_array("hist_counts", bins);
  // NaN fails every comparison, so hi < lo alone would let it through.
  if (counts.empty() || !std::isfinite(lo) || !std::isfinite(hi) || hi < lo) {
    throw MessageError("CSMF payload: bad histogram shape in " +
                       std::string(field) + " (bins=" + std::to_string(bins) +
                       ", lo=" + std::to_string(lo) +
                       ", hi=" + std::to_string(hi) + ")");
  }
  return stats::Histogram(lo, hi, std::move(counts), underflow, overflow);
}

// One half of the counter block (message.hpp): the u8 count, then every
// u64 counter, or every histogram, in StreamCounters::for_each_field order.
template <bool kHistograms>
void append_fields(std::vector<std::uint8_t>& out,
                   const core::StreamCounters& c) {
  const std::size_t count_at = out.size();
  out.push_back(0);
  core::StreamCounters::for_each_field([&](const char*, auto field) {
    if constexpr (core::kIsHistogramField<decltype(field)> == kHistograms) {
      if constexpr (kHistograms) {
        append_histogram(out, c.*field);
      } else {
        append_u64(out, c.*field);
      }
      ++out[count_at];
    }
  });
}

// Reads the fields of one half this build knows, skips a newer peer's
// extra ones and leaves the ones an older peer lacks at their zero
// defaults. The count is bounded by the bytes present before anything is
// read: a u64 costs 8 bytes, a histogram at least its 36-byte header.
template <bool kHistograms>
void read_fields(PayloadReader& in, core::StreamCounters& c) {
  const char* const count_field =
      kHistograms ? "histogram_count" : "counter_count";
  const std::uint64_t count = in.u8(count_field);
  if (count > in.remaining() / (kHistograms ? 36 : 8)) {
    throw MessageError("CSMF payload: bad " + std::string(count_field) +
                       ": " + std::to_string(count) +
                       " fields cannot fit in " +
                       std::to_string(in.remaining()) + " remaining bytes");
  }
  const auto read_one = [&](const char* name) {
    if constexpr (kHistograms) {
      return read_histogram(in, name);
    } else {
      return in.u64(name);
    }
  };
  std::uint64_t read = 0;
  core::StreamCounters::for_each_field([&](const char* name, auto field) {
    if constexpr (core::kIsHistogramField<decltype(field)> == kHistograms) {
      if (read < count) {
        c.*field = read_one(name);
        ++read;
      }
    }
  });
  for (; read < count; ++read) read_one("extra_field");
}

void append_counters(std::vector<std::uint8_t>& out,
                     const core::StreamCounters& c) {
  append_fields<false>(out, c);
  append_fields<true>(out, c);
}

void read_counters(PayloadReader& in, core::StreamCounters& c) {
  read_fields<false>(in, c);
  read_fields<true>(in, c);
}

}  // namespace

// ---------------------------------------------------------------------------
// PayloadReader
// ---------------------------------------------------------------------------

void PayloadReader::fail(const char* field, const std::string& detail) const {
  throw MessageError("CSMF payload: bad " + std::string(field) +
                     " at payload offset " + std::to_string(cursor_) + ": " +
                     detail);
}

void PayloadReader::need(const char* field, std::uint64_t n) const {
  if (n > remaining()) {
    fail(field, "needs " + std::to_string(n) + " bytes, " +
                    std::to_string(remaining()) + " remain");
  }
}

std::span<const std::uint8_t> PayloadReader::take(const char* field,
                                                  std::uint64_t n) {
  need(field, n);
  const std::span<const std::uint8_t> out =
      payload_.subspan(cursor_, static_cast<std::size_t>(n));
  cursor_ += out.size();
  return out;
}

std::uint8_t PayloadReader::u8(const char* field) {
  need(field, 1);
  return payload_[cursor_++];
}

std::uint16_t PayloadReader::u16(const char* field) {
  need(field, 2);
  const std::uint16_t v = core::codec::load_u16(payload_.data() + cursor_);
  cursor_ += 2;
  return v;
}

std::uint32_t PayloadReader::u32(const char* field) {
  need(field, 4);
  const std::uint32_t v = core::codec::load_u32(payload_.data() + cursor_);
  cursor_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64(const char* field) {
  need(field, 8);
  const std::uint64_t v = core::codec::load_u64(payload_.data() + cursor_);
  cursor_ += 8;
  return v;
}

double PayloadReader::f64(const char* field) {
  return std::bit_cast<double>(u64(field));
}

std::vector<std::uint8_t> PayloadReader::bytes(const char* field,
                                               std::uint64_t count) {
  const std::span<const std::uint8_t> raw = take(field, count);
  return {raw.begin(), raw.end()};
}

std::string PayloadReader::text(const char* field, std::uint64_t count) {
  const std::span<const std::uint8_t> raw = take(field, count);
  return {reinterpret_cast<const char*>(raw.data()), raw.size()};
}

std::span<const std::uint8_t> PayloadReader::f64_block(const char* field,
                                                       std::uint64_t count) {
  if (count > remaining() / sizeof(double)) {
    fail(field, std::to_string(count) + " doubles need " +
                    std::to_string(count * sizeof(double)) + " bytes, " +
                    std::to_string(remaining()) + " remain");
  }
  return take(field, count * sizeof(double));
}

std::vector<double> PayloadReader::f64_array(const char* field,
                                             std::uint64_t count) {
  // The count is bounded by the bytes actually present before the vector
  // is sized — the no-allocation-from-unvalidated-length rule.
  const std::span<const std::uint8_t> raw = f64_block(field, count);
  std::vector<double> out(static_cast<std::size_t>(count));
  core::codec::load_f64s(raw.data(), out);
  return out;
}

std::vector<std::uint64_t> PayloadReader::u64_array(const char* field,
                                                    std::uint64_t count) {
  if (count > remaining() / sizeof(std::uint64_t)) {
    fail(field, std::to_string(count) + " u64s need " +
                    std::to_string(count * sizeof(std::uint64_t)) +
                    " bytes, " + std::to_string(remaining()) + " remain");
  }
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(u64(field));
  return out;
}

std::span<const std::uint8_t> PayloadReader::rest() noexcept {
  std::span<const std::uint8_t> tail = payload_.subspan(cursor_);
  cursor_ = payload_.size();
  return tail;
}

void PayloadReader::finish(const char* what) const {
  if (remaining() != 0) {
    throw MessageError("CSMF payload: " + std::string(what) + " has " +
                       std::to_string(remaining()) +
                       " trailing bytes after the last field");
  }
}

// ---------------------------------------------------------------------------
// kSampleBatch
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_sample_batch(
    const common::MatrixView& columns) {
  constexpr std::size_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  if (columns.rows() > kU32Max || columns.cols() > kU32Max) {
    throw std::invalid_argument(
        "encode_sample_batch: matrix dimensions exceed u32");
  }
  std::vector<std::uint8_t> out;
  out.reserve(8 + columns.size() * sizeof(double));
  append_u32(out, static_cast<std::uint32_t>(columns.rows()));
  append_u32(out, static_cast<std::uint32_t>(columns.cols()));
  core::codec::append_f64_columns(out, columns);
  return out;
}

void decode_sample_batch(std::span<const std::uint8_t> payload,
                         common::ColumnBatch& out) {
  PayloadReader in(payload);
  const std::uint64_t n_sensors = in.u32("n_sensors");
  const std::uint64_t n_cols = in.u32("n_cols");
  // 64-bit product of two u32s cannot wrap; f64_block bounds it against
  // the payload before `out` is sized.
  const std::span<const std::uint8_t> block =
      in.f64_block("samples", n_sensors * n_cols);
  in.finish("sample-batch");
  out.resize(static_cast<std::size_t>(n_sensors),
             static_cast<std::size_t>(n_cols));
  core::codec::load_f64s(block.data(), out.values());
}

common::ColumnBatch decode_sample_batch(
    std::span<const std::uint8_t> payload) {
  common::ColumnBatch out;
  decode_sample_batch(payload, out);
  return out;
}

// ---------------------------------------------------------------------------
// kNodeAdd
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_node_add(const NodeAdd& msg) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(msg.source));
  append_u32(out, msg.n_sensors);
  if (msg.source == NodeAddSource::kInlineRecord) {
    out.insert(out.end(), msg.record.begin(), msg.record.end());
  } else {
    out.insert(out.end(), msg.pack_id.begin(), msg.pack_id.end());
  }
  return out;
}

NodeAdd decode_node_add(std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  NodeAdd msg;
  const std::uint8_t source = in.u8("source");
  if (source > static_cast<std::uint8_t>(NodeAddSource::kPackId)) {
    throw MessageError("CSMF payload: bad source at payload offset 0: " +
                       std::to_string(static_cast<unsigned>(source)) +
                       " is not a NodeAddSource");
  }
  msg.source = static_cast<NodeAddSource>(source);
  msg.n_sensors = in.u32("n_sensors");
  const std::span<const std::uint8_t> body = in.rest();
  if (msg.source == NodeAddSource::kInlineRecord) {
    msg.record.assign(body.begin(), body.end());
  } else {
    msg.pack_id.assign(reinterpret_cast<const char*>(body.data()),
                       body.size());
  }
  return msg;
}

// ---------------------------------------------------------------------------
// kDrainResponse
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_drain_response(const DrainResponse& msg) {
  std::vector<std::uint8_t> out;
  encode_drain_response(msg, out);
  return out;
}

void encode_drain_response(const DrainResponse& msg,
                           std::vector<std::uint8_t>& out) {
  constexpr std::size_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  if (msg.signatures.size() > kU32Max) {
    throw std::invalid_argument(
        "encode_drain_response: too many signatures for one frame");
  }
  std::size_t bytes = 12;
  for (const std::vector<double>& sig : msg.signatures) {
    if (sig.size() > kU32Max) {
      throw std::invalid_argument(
          "encode_drain_response: signature too long for one frame");
    }
    bytes += 4 + sig.size() * sizeof(double);
  }
  out.reserve(out.size() + bytes);
  append_u64(out, msg.dropped);
  append_u32(out, static_cast<std::uint32_t>(msg.signatures.size()));
  for (const std::vector<double>& sig : msg.signatures) {
    append_u32(out, static_cast<std::uint32_t>(sig.size()));
    append_f64s(out, sig);
  }
}

DrainResponse decode_drain_response(std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  DrainResponse msg;
  msg.dropped = in.u64("dropped");
  const std::uint64_t count = in.u32("count");
  // Each signature costs at least its 4-byte length prefix, so `count` is
  // bounded by the payload before the outer vector is sized.
  if (count > in.remaining() / 4) {
    throw MessageError(
        "CSMF payload: bad count: " + std::to_string(count) +
        " signatures cannot fit in " + std::to_string(in.remaining()) +
        " remaining bytes");
  }
  msg.signatures.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = in.u32("signature_len");
    msg.signatures.push_back(in.f64_array("signature", len));
  }
  in.finish("drain-response");
  return msg;
}

// ---------------------------------------------------------------------------
// kStatsResponse
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_stats_response(const StatsResponse& msg) {
  std::vector<std::uint8_t> out;
  encode_stats_response(msg, out);
  return out;
}

void encode_stats_response(const StatsResponse& msg,
                           std::vector<std::uint8_t>& out) {
  constexpr std::size_t kU16Max = std::numeric_limits<std::uint16_t>::max();
  if (msg.server_version.size() > kU16Max) {
    throw std::invalid_argument(
        "encode_stats_response: server version string too long");
  }
  append_u64(out, msg.nodes);
  append_f64(out, msg.ingest_seconds);
  append_u16(out, static_cast<std::uint16_t>(msg.server_version.size()));
  out.insert(out.end(), msg.server_version.begin(),
             msg.server_version.end());
  append_counters(out, msg);
}

StatsResponse decode_stats_response(std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  StatsResponse msg;
  msg.nodes = in.u64("nodes");
  msg.ingest_seconds = in.f64("ingest_seconds");
  const std::uint64_t version_len = in.u16("version_len");
  msg.server_version = in.text("server_version", version_len);
  read_counters(in, msg);
  in.finish("stats-response");
  return msg;
}

// ---------------------------------------------------------------------------
// kNodeStatsResponse
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_node_stats_response(
    const NodeStatsResponse& msg) {
  std::vector<std::uint8_t> out;
  encode_node_stats_response(msg, out);
  return out;
}

void encode_node_stats_response(const NodeStatsResponse& msg,
                                std::vector<std::uint8_t>& out) {
  constexpr std::size_t kU16Max = std::numeric_limits<std::uint16_t>::max();
  if (msg.nodes.size() > kMaxNodeStatsRows) {
    throw std::invalid_argument(
        "encode_node_stats_response: too many node rows for one frame "
        "(shard the engine)");
  }
  append_u32(out, static_cast<std::uint32_t>(msg.nodes.size()));
  for (const core::NodeStats& row : msg.nodes) {
    if (row.name.size() > kU16Max) {
      throw std::invalid_argument(
          "encode_node_stats_response: node name too long");
    }
    append_u16(out, static_cast<std::uint16_t>(row.name.size()));
    out.insert(out.end(), row.name.begin(), row.name.end());
    append_counters(out, row);
  }
}

NodeStatsResponse decode_node_stats_response(
    std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  NodeStatsResponse msg;
  const std::uint64_t count = in.u32("node_count");
  if (count > kMaxNodeStatsRows) {
    throw MessageError("CSMF payload: bad node_count: " +
                       std::to_string(count) + " rows exceed the cap of " +
                       std::to_string(kMaxNodeStatsRows));
  }
  // Each row costs at least its 2-byte name length and the block's two
  // counts, so the count is bounded by the bytes present before the vector
  // is sized.
  if (count > in.remaining() / 4) {
    throw MessageError("CSMF payload: bad node_count: " +
                       std::to_string(count) + " rows cannot fit in " +
                       std::to_string(in.remaining()) + " remaining bytes");
  }
  msg.nodes.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    core::NodeStats& row = msg.nodes.emplace_back();
    const std::uint64_t name_len = in.u16("node_name_len");
    row.name = in.text("node_name", name_len);
    read_counters(in, row);
  }
  in.finish("node-stats-response");
  return msg;
}

// ---------------------------------------------------------------------------
// kOk / kError
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_ok(std::optional<std::uint64_t> value) {
  std::vector<std::uint8_t> out;
  encode_ok(value, out);
  return out;
}

void encode_ok(std::optional<std::uint64_t> value,
               std::vector<std::uint8_t>& out) {
  out.push_back(value.has_value() ? 1 : 0);
  append_u64(out, value.value_or(0));
}

std::optional<std::uint64_t> decode_ok(
    std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  const std::uint8_t has_value = in.u8("has_value");
  if (has_value > 1) {
    throw MessageError(
        "CSMF payload: bad has_value at payload offset 0: expected 0 or 1, "
        "got " +
        std::to_string(static_cast<unsigned>(has_value)));
  }
  const std::uint64_t value = in.u64("value");
  in.finish("ok");
  if (has_value == 0) return std::nullopt;
  return value;
}

std::vector<std::uint8_t> encode_error_text(std::string_view text) {
  std::vector<std::uint8_t> out;
  encode_error_text(text, out);
  return out;
}

void encode_error_text(std::string_view text, std::vector<std::uint8_t>& out) {
  text = text.substr(0, kMaxErrorTextBytes);
  out.insert(out.end(), text.begin(), text.end());
}

std::string decode_error_text(std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxErrorTextBytes) {
    throw MessageError("CSMF payload: error text of " +
                       std::to_string(payload.size()) +
                       " bytes exceeds the cap of " +
                       std::to_string(kMaxErrorTextBytes));
  }
  return {reinterpret_cast<const char*>(payload.data()), payload.size()};
}

}  // namespace csm::net
