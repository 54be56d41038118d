// CSMF: the length-prefixed, CRC-checksummed binary frame protocol that
// carries fleet-monitoring traffic between csmcli/collector clients and the
// csmd daemon (docs/PROTOCOL.md is the field-by-field specification).
//
// One frame is one self-delimiting message:
//
//   offset  size        field
//        0     4        magic "CSMF"
//        4     1        protocol version (kFrameVersion)
//        5     1        frame type (FrameType)
//        6     2        u16 node-id length            (little-endian)
//        8     4        u32 payload length            (little-endian)
//       12    id_len    node id (UTF-8, no NUL)
//   12+id    pay_len    payload (see net/message.hpp for the schemas)
//     ...     4        u32 CRC32 over every preceding byte of the frame
//
// FrameWriter renders frames into a byte buffer; FrameReader incrementally
// reassembles them from arbitrary read boundaries — a transport may deliver
// half a header, three frames at once, or one byte at a time, and the
// reader produces the identical frame sequence regardless. Corrupt input
// (bad magic/version/type, an id or payload length beyond its cap, a CRC
// mismatch) throws FrameError naming the offending field and the absolute
// stream offset; after a FrameError the byte stream is desynchronised and
// the connection must be dropped. All length arithmetic is 64-bit, so an
// untrusted 32-bit length cannot wrap a size computation (the PR 7 house
// rule), and nothing is allocated from a length that has not been checked
// against its cap first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace csm::net {

/// Frame framing constants.
inline constexpr std::uint8_t kFrameMagic[4] = {'C', 'S', 'M', 'F'};
/// Version 2 carries the stats payloads as one counter block
/// (docs/PROTOCOL.md); a peer on any other version is refused with a
/// FrameError naming the version, never misparsed.
inline constexpr std::uint8_t kFrameVersion = 2;
inline constexpr std::size_t kFrameHeaderSize = 12;
inline constexpr std::size_t kFrameTrailerSize = 4;  ///< Trailing CRC32.
/// Cap on the node-id field: ids are pack-id-sized names, never bulk data.
inline constexpr std::size_t kMaxNodeIdBytes = 1024;
/// Default cap on one frame's payload (FrameReader can lower it). A sample
/// batch of 64 MiB is ~8M doubles — far beyond any sane collection round —
/// so anything larger is treated as corruption, not load.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 26;

/// Wire message kinds. Values are part of the protocol; add new ones at
/// the end and never renumber.
enum class FrameType : std::uint8_t {
  kSampleBatch = 1,    ///< Client -> daemon: columns for one node.
  kNodeAdd = 2,        ///< Client -> daemon: register a node (model inline
                       ///  as a CSMB record, or by pack id).
  kNodeRemove = 3,     ///< Client -> daemon: retire a node.
  kDrainRequest = 4,   ///< Client -> daemon: take a node's queued vectors.
  kDrainResponse = 5,  ///< Daemon -> client: the drained vectors.
  kStatsRequest = 6,   ///< Client -> daemon: scrape EngineStats.
  kStatsResponse = 7,  ///< Daemon -> client: the stats snapshot.
  kOk = 8,             ///< Daemon -> client: request succeeded (+ index).
  kError = 9,          ///< Daemon -> client: request failed (UTF-8 text).
  kNodeStatsRequest = 10,   ///< Client -> daemon: scrape per-node stats.
  kNodeStatsResponse = 11,  ///< Daemon -> client: one row per live node.
};

/// True for a byte value that is a defined FrameType.
bool is_known_frame_type(std::uint8_t type) noexcept;

/// Human-readable FrameType name (for logs and error text).
const char* frame_type_name(FrameType type) noexcept;

/// One decoded frame. `node` addresses a fleet node by name where the type
/// needs one (sample batches, node management, drains) and is empty
/// otherwise.
struct Frame {
  FrameType type = FrameType::kOk;
  std::string node;
  std::vector<std::uint8_t> payload;

  bool operator==(const Frame&) const = default;
};

/// Framing/corruption error: the message names the offending field and the
/// absolute stream offset of the defect.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Encodes one frame (header, id, payload, trailing CRC). Throws
/// std::invalid_argument when the node id or payload exceeds its cap —
/// writers validate at the edge so a reader never sees our own oversized
/// frames.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Accumulates encoded frames into one contiguous buffer, so a transport
/// write can flush several messages per syscall.
class FrameWriter {
 public:
  /// Appends `frame` to the buffer. Same validation as encode_frame.
  void write(const Frame& frame);

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::size_t size() const noexcept { return buf_.size(); }
  bool empty() const noexcept { return buf_.empty(); }
  void clear() noexcept { buf_.clear(); }
  /// Moves the accumulated bytes out, leaving the writer empty.
  std::vector<std::uint8_t> take() noexcept;

 private:
  std::vector<std::uint8_t> buf_;
};

/// Incremental frame reassembler. feed() raw transport bytes in whatever
/// chunks arrive; next() yields completed frames in order. Header fields
/// are validated as soon as their bytes are present, so a poisoned length
/// fails fast instead of waiting for gigabytes that never come.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Appends raw bytes from the transport.
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete frame, or std::nullopt when more bytes are
  /// needed. Throws FrameError on corrupt input; the reader (and the
  /// stream it was fed from) is unusable afterwards.
  std::optional<Frame> next();

  /// Bytes fed but not yet consumed as complete frames.
  std::size_t buffered() const noexcept { return buf_.size() - head_; }

  /// True when no partial frame is pending — a transport EOF here is a
  /// clean close, anywhere else a truncated frame.
  bool at_frame_boundary() const noexcept { return buffered() == 0; }

  /// Absolute offset of the next unconsumed byte since the first feed()
  /// (i.e. total bytes consumed as complete frames).
  std::uint64_t stream_offset() const noexcept { return stream_offset_; }

 private:
  [[noreturn]] void fail(const std::string& field, std::uint64_t rel_offset,
                         const std::string& detail) const;

  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  ///< Consumed prefix of buf_ (compacted lazily).
  std::uint64_t stream_offset_ = 0;
};

}  // namespace csm::net
