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
// append_frame is the one frame encoder: it appends header and node id to a
// byte buffer, lets the caller write the payload straight after them, then
// patches the payload length and appends the CRC — so FleetServer encodes a
// reply in place in its connection buffer, and encode_frame and
// FrameWriter::write are thin calls into it. FrameReader incrementally
// reassembles frames from arbitrary read boundaries — a transport may
// deliver half a header, three frames at once, or one byte at a time, and
// the reader produces the identical frame sequence regardless. A transport
// reads straight into the reader's buffer (read_buffer + commit), and
// next_view() yields a FrameView whose node id and payload point into that
// buffer, so the daemon dispatches a frame without copying it; next() is
// the owning copy of the same frame. Every frame's CRC goes through
// core::codec::crc32 (a carry-less-multiply kernel where the CPU has one,
// the same bytes either way). Corrupt input (bad magic/version/type, an id
// or payload length beyond its cap, a CRC mismatch) throws FrameError
// naming the offending field and the absolute stream offset; after a
// FrameError the byte stream is desynchronised and the connection must be
// dropped. All length arithmetic is 64-bit, so an
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
#include <string_view>
#include <utility>
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

/// A frame that borrows its bytes from the FrameReader that produced it:
/// valid until that reader's next feed(), read_buffer() or next*() call.
struct FrameView {
  FrameType type = FrameType::kOk;
  std::string_view node;
  std::span<const std::uint8_t> payload;
};

/// Framing/corruption error: the message names the offending field and the
/// absolute stream offset of the defect.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
/// append_frame's two halves: begin_frame validates type and id, appends
/// the header (payload length still 0) and the id, and returns the frame's
/// offset in `out`; end_frame patches the payload length and appends the
/// CRC, throwing std::invalid_argument when the payload exceeds its cap.
std::size_t begin_frame(std::vector<std::uint8_t>& out, FrameType type,
                        std::string_view node);
void end_frame(std::vector<std::uint8_t>& out, std::size_t start);
}  // namespace detail

/// Appends one frame (header, id, payload, trailing CRC) to `out`, the
/// payload being whatever `write_payload(out)` appends. Throws
/// std::invalid_argument when the type is unknown or the node id or
/// payload exceeds its cap — writers validate at the edge so a reader
/// never sees our own oversized frames. On any throw, the payload writer's
/// included, `out` is cut back to its size before the call.
template <typename WritePayload>
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::string_view node, WritePayload&& write_payload) {
  const std::size_t start = detail::begin_frame(out, type, node);
  try {
    std::forward<WritePayload>(write_payload)(out);
    detail::end_frame(out, start);
  } catch (...) {
    out.resize(start);
    throw;
  }
}

/// Encodes one frame into a fresh buffer (append_frame).
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Accumulates encoded frames into one contiguous buffer, so a transport
/// write can flush several messages per syscall.
class FrameWriter {
 public:
  /// Appends `frame` to the buffer (append_frame).
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

  /// Appends a copy of raw bytes from the transport.
  void feed(std::span<const std::uint8_t> bytes);

  /// The zero-copy feed: a writable span of at least `min_bytes` at the end
  /// of the reader's buffer for a transport to read into, then commit(n)
  /// to append its first n bytes. The consumed prefix is compacted away
  /// first, so the buffer holds at most one partial frame plus the read.
  std::span<std::uint8_t> read_buffer(std::size_t min_bytes);
  void commit(std::size_t n) noexcept { end_ += n; }

  /// Extracts the next complete frame as a view into the reader's buffer,
  /// or std::nullopt when more bytes are needed. Throws FrameError on
  /// corrupt input; the reader (and the stream it was fed from) is
  /// unusable afterwards.
  std::optional<FrameView> next_view();

  /// next_view(), copied out into an owning Frame.
  std::optional<Frame> next();

  /// Bytes fed but not yet consumed as complete frames.
  std::size_t buffered() const noexcept { return end_ - head_; }

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
  /// Bytes [head_, end_) are fed but unconsumed; [end_, size()) is spare
  /// room for the next read_buffer().
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  ///< Consumed prefix of buf_ (compacted lazily).
  std::size_t end_ = 0;
  std::uint64_t stream_offset_ = 0;
};

}  // namespace csm::net
