// CSMR sensor recordings: capture a live ingest run, replay it bit-exactly.
//
// A recording is the ingest-side twin of core::ModelPack's model store: one
// file holding every sample batch a StreamEngine (or any other sample
// source) consumed, in per-node order, so the run can be re-driven through
// `csmcli replay` and produce byte-identical signatures. The layout follows
// the house conventions (LE integers, 64-bit length math, header CRC for
// O(1) open, trailing CRC over the payload):
//
//   offset  field
//   0       "CSMR" magic (4 bytes)
//   4       u8 version (= 1), then 3 reserved zero bytes
//   8       u64 node_count
//   16      u64 batch_count
//   24      u64 table_offset            (batches start at 40)
//   32      u32 header CRC32 over bytes [0, 32)
//   36      u32 reserved (zero)
//   40      batch stream: batch_count x
//             { u64 body_len | u32 node_index | u64 timestamp | u32 n_cols
//               | f64 x (n_sensors * n_cols), column-major }
//             with body_len == 16 + 8 * n_sensors * n_cols
//   table_offset
//           node table: node_count x { u16 id_len | id bytes | u32 n_sensors }
//   EOF-4   u32 trailing CRC32 over bytes [40, EOF-4)
//
// The node table sits at the END so the Recorder can admit nodes while the
// stream is live (csmd --record) and still write batches straight through;
// finish() patches the header and appends the table + trailing CRC. The
// ReplayReader mmaps the file, validates the header and node table in O(1)
// (+ O(nodes)), and iterates batches incrementally — the trailing CRC is
// folded in batch by batch and verified when the last batch is consumed,
// so a multi-gigabyte recording never needs a separate verification pass.
// Timestamps are per-node cumulative sample offsets by default, which is
// what makes replays deterministic without a wall clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/matrix_view.hpp"
#include "core/stream_engine.hpp"

namespace csm::replay {

/// Malformed or corrupt CSMR input. Everything the ReplayReader rejects
/// throws this (the fuzz harness pins decode-or-RecordingError).
class RecordingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint8_t kRecordingMagic[4] = {'C', 'S', 'M', 'R'};
inline constexpr std::uint8_t kRecordingVersion = 1;
inline constexpr std::size_t kRecordingHeaderSize = 40;
/// Per-batch fixed prefix after the u64 body length: u32 node_index |
/// u64 timestamp | u32 n_cols.
inline constexpr std::size_t kBatchBodyPrefix = 16;
/// Node ids share the CSMF frame-id cap: ids are labels, not bulk data.
inline constexpr std::size_t kMaxNodeIdBytes = 1024;

/// One node declared in a recording.
struct RecordedNode {
  std::string id;
  std::uint32_t n_sensors = 0;
};

/// One replayed sample batch: `columns` is n_sensors x n_cols, exactly the
/// samples the original ingest call carried, in the file's column-major
/// layout (decoded by one copy, no transpose), so a scenario mutates it in
/// place and StreamEngine::ingest takes it as a column segment.
struct RecordedBatch {
  std::uint32_t node = 0;       ///< Index into the node table.
  std::uint64_t timestamp = 0;  ///< Node-cumulative sample offset (default).
  common::ColumnBatch columns;
};

/// Streaming CSMR writer. File-backed (the normal capture path) or
/// in-memory (fuzz round-trips, tests). An engine is captured by installing
/// tap() as its ingest tap. Thread-safe: record() may be called
/// concurrently for different nodes — StreamEngine's ingest tap does exactly
/// that under parallel ingest — and batches are serialised through an
/// internal mutex in arrival order (per-node order is what replay needs, and
/// the tap guarantees it by calling under the node mutex).
class Recorder {
 public:
  /// File-backed recorder; truncates `file`. Throws RecordingError when the
  /// file cannot be opened.
  explicit Recorder(std::filesystem::path file);

  /// In-memory recorder: bytes() returns the finished recording.
  Recorder();

  /// Declares a node and returns its table index. Nodes may be added at any
  /// point before finish() — also between batches, matching live fleets.
  /// Throws RecordingError on an empty/oversized id.
  std::uint32_t add_node(std::string_view id, std::uint32_t n_sensors);

  /// Appends one batch for `node` with the node's cumulative sample offset
  /// as the timestamp. Empty batches (0 columns) are dropped — a tombstone
  /// slot in ingest_batch contributes nothing to a recording. Throws
  /// RecordingError on an unknown node or a sensor-count mismatch. A
  /// column-major batch is written one bulk copy per segment.
  void record(std::uint32_t node, const common::MatrixView& columns);

  /// Same, with an explicit timestamp (the cumulative offset still
  /// advances, so later default-timestamp batches stay consistent).
  void record(std::uint32_t node, const common::MatrixView& columns,
              std::uint64_t timestamp);

  /// The ingest tap that captures a StreamEngine into this recording:
  /// node_added declares each node the engine adds, batch records each
  /// batch it ingests. A node's engine index must equal the node table's
  /// size when it is announced (RecordingError otherwise, and the engine
  /// does not add the node), which holds when the tap goes on an engine
  /// with no nodes and a recorder with none declared: table index = engine
  /// index. The recorder must outlive the installation; clear the engine's
  /// tap before finish().
  core::StreamEngine::IngestTap tap();

  /// Writes the node table and trailing CRC and patches the header. No
  /// further record()/add_node() calls are allowed. Throws RecordingError
  /// on write failure or a second call.
  void finish();

  std::size_t n_nodes() const;
  std::size_t batch_count() const;

  /// The finished recording (in-memory mode only, after finish()).
  std::vector<std::uint8_t> bytes() const;

 private:
  void write(std::span<const std::uint8_t> data);
  /// Caller holds mutex_.
  std::uint32_t add_node_locked(std::string_view id, std::size_t n_sensors);
  /// Caller holds mutex_ and has validated the node index.
  void record_locked(std::uint32_t node, const common::MatrixView& columns,
                     std::uint64_t timestamp);

  mutable std::mutex mutex_;
  std::filesystem::path file_;        ///< Empty in in-memory mode.
  std::ofstream out_;                 ///< File-backed sink.
  std::ostringstream buffer_;         ///< In-memory sink.
  std::vector<RecordedNode> nodes_;
  std::vector<std::uint64_t> next_timestamp_;  ///< Per-node sample cursor.
  std::uint64_t batch_count_ = 0;
  std::uint64_t payload_size_ = 0;    ///< Bytes written after the header.
  std::uint32_t payload_crc_ = 0;     ///< Running CRC over bytes [40, ...).
  bool finished_ = false;
};

/// mmap-backed CSMR reader with O(1) open and incremental iteration.
class ReplayReader {
 public:
  /// Maps `file`, validates the header CRC and the node table. Batch
  /// geometry and the trailing payload CRC are validated lazily as next()
  /// walks the batch stream. Throws RecordingError on any defect.
  static ReplayReader open(const std::filesystem::path& file);

  /// In-memory variant over an owned byte buffer (fuzzing, tests); same
  /// validation. `name` labels error messages.
  static ReplayReader open_bytes(std::vector<std::uint8_t> bytes,
                                 std::filesystem::path name = "<bytes>");

  std::size_t n_nodes() const noexcept;
  const RecordedNode& node(std::size_t i) const;
  std::uint64_t batch_count() const noexcept;
  const std::filesystem::path& path() const noexcept;

  /// Next batch in file order, or std::nullopt after the last one. The
  /// trailing CRC is verified when the final batch is consumed; a geometry
  /// defect or CRC mismatch throws RecordingError. Not thread-safe (the
  /// cursor advances).
  std::optional<RecordedBatch> next();

  /// Resets the iteration cursor to the first batch.
  void rewind() noexcept;

  /// Convenience full-file check: rewinds, consumes every batch (which
  /// verifies geometry and the trailing CRC), rewinds again.
  void verify();

 private:
  struct Mapping;
  explicit ReplayReader(std::shared_ptr<Mapping> mapping);

  std::shared_ptr<Mapping> mapping_;
  std::uint64_t cursor_ = 0;        ///< Byte offset of the next batch.
  std::uint64_t batches_read_ = 0;
  std::uint32_t running_crc_ = 0;   ///< CRC over consumed payload bytes.
};

}  // namespace csm::replay
