// CSMF payload schemas: the typed messages carried inside net/frame.hpp
// frames (docs/PROTOCOL.md lists the byte-level layouts). Every decoder
// reads through PayloadReader, which checks each length against the bytes
// actually present BEFORE any allocation — an untrusted count can name an
// error, never size a buffer.
//
// Sample batches keep one layout end to end: the wire block, the decoded
// common::ColumnBatch and a RingMatrix slot are all column-major, so a
// decode is one copy of the f64 block (memcpy on little-endian hosts) into
// a buffer the caller can reuse, and the engine ingests that buffer as a
// column-segment MatrixView. The block is never read in place: its offset
// in a frame depends on the node id's length, so it is not aligned for
// double. Every reply encoder has an appending form, which is how FleetServer
// writes a reply straight into its connection buffer (net/frame.hpp's
// append_frame); the returning forms wrap it.
//
// Error taxonomy: a malformed payload throws MessageError (a semantic
// error — the frame itself was well-formed, so the connection survives and
// the daemon answers with a kError frame). Framing corruption is
// FrameError (net/frame.hpp) and kills the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/matrix_view.hpp"
#include "core/stream_engine.hpp"

namespace csm::net {

/// Malformed payload inside a well-formed frame. The message names the
/// field and its offset within the payload.
class MessageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cap on kError frame text: error strings are diagnostics, not bulk data.
inline constexpr std::size_t kMaxErrorTextBytes = 4096;

/// Checked little-endian cursor over one frame payload. Every read names
/// its field; running past the end, or asking for an array whose count
/// exceeds the bytes present, throws MessageError before allocating.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> payload)
      : payload_(payload) {}

  std::uint8_t u8(const char* field);
  std::uint16_t u16(const char* field);
  std::uint32_t u32(const char* field);
  std::uint64_t u64(const char* field);
  double f64(const char* field);
  /// `count` raw bytes. Checked against remaining() first.
  std::vector<std::uint8_t> bytes(const char* field, std::uint64_t count);
  /// `count` bytes as a string (UTF-8 by convention, not validated).
  std::string text(const char* field, std::uint64_t count);
  /// `count` doubles. The count is validated against remaining()/8 before
  /// the vector is sized.
  std::vector<double> f64_array(const char* field, std::uint64_t count);
  /// The raw little-endian bytes of `count` doubles, same validation as
  /// f64_array, consumed without decoding.
  std::span<const std::uint8_t> f64_block(const char* field,
                                          std::uint64_t count);
  std::vector<std::uint64_t> u64_array(const char* field,
                                       std::uint64_t count);

  std::size_t remaining() const noexcept {
    return payload_.size() - cursor_;
  }
  /// The unread tail, consumed (for nested formats like CSMB records).
  std::span<const std::uint8_t> rest() noexcept;
  /// Throws MessageError when unread bytes remain (`what` names the
  /// message being decoded).
  void finish(const char* what) const;

 private:
  void need(const char* field, std::uint64_t n) const;
  /// The next `n` bytes, checked, consumed.
  std::span<const std::uint8_t> take(const char* field, std::uint64_t n);
  [[noreturn]] void fail(const char* field, const std::string& detail) const;

  std::span<const std::uint8_t> payload_;
  std::size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// kSampleBatch: u32 n_sensors | u32 n_cols | f64 x (n_sensors*n_cols),
// column-major (one monitoring time-stamp after another, matching the
// ingestion order).
// ---------------------------------------------------------------------------

/// Encodes an n_sensors x n_cols batch held in either layout.
std::vector<std::uint8_t> encode_sample_batch(
    const common::MatrixView& columns);
/// Decodes into `out`, reusing its allocation. A truncated block or
/// trailing bytes throw MessageError before `out` is touched.
void decode_sample_batch(std::span<const std::uint8_t> payload,
                         common::ColumnBatch& out);
/// Same decoder, into a fresh batch.
common::ColumnBatch decode_sample_batch(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// kNodeAdd: u8 source | u32 n_sensors | body. source 0 carries an inline
// CSMB model record as the body; source 1 carries a pack id to resolve in
// the daemon's mapped ModelPack. n_sensors is for sensor-count-agnostic
// methods (0 = take it from the model), as in StreamEngine::add_node.
// ---------------------------------------------------------------------------

enum class NodeAddSource : std::uint8_t {
  kInlineRecord = 0,
  kPackId = 1,
};

struct NodeAdd {
  NodeAddSource source = NodeAddSource::kInlineRecord;
  std::uint32_t n_sensors = 0;
  std::vector<std::uint8_t> record;  ///< CSMB record (kInlineRecord).
  std::string pack_id;               ///< Pack id (kPackId).
};

std::vector<std::uint8_t> encode_node_add(const NodeAdd& msg);
NodeAdd decode_node_add(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// kDrainResponse: u64 dropped | u32 count | count x (u32 len | f64 x len).
// The drained signature queue of one node plus its cumulative drop counter.
// ---------------------------------------------------------------------------

struct DrainResponse {
  std::uint64_t dropped = 0;
  std::vector<std::vector<double>> signatures;

  bool operator==(const DrainResponse&) const = default;
};

std::vector<std::uint8_t> encode_drain_response(const DrainResponse& msg);
/// Appends the payload to `out`; each signature is one bulk copy.
void encode_drain_response(const DrainResponse& msg,
                           std::vector<std::uint8_t>& out);
DrainResponse decode_drain_response(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// Counter block: the core::StreamCounters record as both stats payloads
// carry it, u8 n | n x u64 | u8 m | m x histogram, each in
// StreamCounters::for_each_field order (histograms as f64 lo | f64 hi |
// u64 underflow | u64 overflow | u32 bins | u64 x bins). The list only
// grows at its end: a decoder reads the fields it knows, skips a newer
// peer's extra ones and zero-fills the ones an older peer lacks.
//
// kStatsResponse: u64 nodes | f64 ingest_seconds | u16 version_len |
// version bytes | counter block — the fleet-wide EngineStats plus the
// daemon's build identity (git sha), so a scrape tells you what is
// actually running.
// ---------------------------------------------------------------------------

struct StatsResponse : core::EngineStats {
  std::string server_version;
};

std::vector<std::uint8_t> encode_stats_response(const StatsResponse& msg);
void encode_stats_response(const StatsResponse& msg,
                           std::vector<std::uint8_t>& out);
StatsResponse decode_stats_response(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// kNodeStatsResponse: u32 count | count x (u16 name_len | name bytes |
// counter block). One row per LIVE engine node, in node-index order — the
// un-merged per-node view that kStatsResponse's fleet-wide rollup loses.
// The request (kNodeStatsRequest) is empty with an empty frame id.
// ---------------------------------------------------------------------------

struct NodeStatsResponse {
  std::vector<core::NodeStats> nodes;
};

/// Caps a node-stats response at what one frame can carry; encode throws
/// std::invalid_argument beyond it. 64 MiB / ~2.2 KiB per row leaves head
/// room; a fleet bigger than this should shard engines (ROADMAP item 1).
inline constexpr std::size_t kMaxNodeStatsRows = 16384;

std::vector<std::uint8_t> encode_node_stats_response(
    const NodeStatsResponse& msg);
void encode_node_stats_response(const NodeStatsResponse& msg,
                                std::vector<std::uint8_t>& out);
NodeStatsResponse decode_node_stats_response(
    std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// kOk: u8 has_value | u64 value. NodeAdd acks carry the new node index;
// NodeRemove acks carry none.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_ok(std::optional<std::uint64_t> value);
void encode_ok(std::optional<std::uint64_t> value,
               std::vector<std::uint8_t>& out);
std::optional<std::uint64_t> decode_ok(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// kError: UTF-8 diagnostic text, truncated to kMaxErrorTextBytes on encode.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_error_text(std::string_view text);
void encode_error_text(std::string_view text, std::vector<std::uint8_t>& out);
std::string decode_error_text(std::span<const std::uint8_t> payload);

}  // namespace csm::net
