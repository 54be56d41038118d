#include "replay/recording.hpp"

#include <cstring>
#include <limits>
#include <utility>

#include "common/mapped_file.hpp"
#include "core/model_codec.hpp"

namespace csm::replay {
namespace {

using core::codec::append_u16;
using core::codec::append_u32;
using core::codec::append_u64;
using core::codec::crc32;
using core::codec::load_u16;
using core::codec::load_u32;
using core::codec::load_u64;

constexpr std::size_t kHeaderCrcOffset = 32;

[[noreturn]] void fail(const std::string& what) {
  throw RecordingError("Recording: " + what);
}

std::vector<std::uint8_t> header_bytes(std::uint64_t node_count,
                                       std::uint64_t batch_count,
                                       std::uint64_t table_offset) {
  std::vector<std::uint8_t> h;
  h.reserve(kRecordingHeaderSize);
  h.insert(h.end(), std::begin(kRecordingMagic), std::end(kRecordingMagic));
  h.push_back(kRecordingVersion);
  h.insert(h.end(), 3, 0);  // Reserved.
  append_u64(h, node_count);
  append_u64(h, batch_count);
  append_u64(h, table_offset);
  append_u32(h, crc32({h.data(), kHeaderCrcOffset}));
  append_u32(h, 0);  // Reserved.
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

Recorder::Recorder(std::filesystem::path file)
    : file_(std::move(file)),
      out_(file_, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    fail("cannot open " + file_.string() + " for writing");
  }
  // Placeholder header; finish() rewrites it with the real geometry.
  const std::vector<std::uint8_t> header = header_bytes(0, 0, 0);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
}

Recorder::Recorder() {
  const std::vector<std::uint8_t> header = header_bytes(0, 0, 0);
  buffer_.write(reinterpret_cast<const char*>(header.data()),
                static_cast<std::streamsize>(header.size()));
}

void Recorder::write(std::span<const std::uint8_t> data) {
  if (!file_.empty()) {
    out_.write(reinterpret_cast<const char*>(data.data()),
               static_cast<std::streamsize>(data.size()));
    if (!out_) fail("write failed for " + file_.string());
  } else {
    buffer_.write(reinterpret_cast<const char*>(data.data()),
                  static_cast<std::streamsize>(data.size()));
  }
}

std::uint32_t Recorder::add_node(std::string_view id,
                                 std::uint32_t n_sensors) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return add_node_locked(id, n_sensors);
}

std::uint32_t Recorder::add_node_locked(std::string_view id,
                                        std::size_t n_sensors) {
  if (finished_) fail("add_node() after finish()");
  if (id.empty() || id.size() > kMaxNodeIdBytes) {
    fail("node id must be 1.." + std::to_string(kMaxNodeIdBytes) +
         " bytes (got " + std::to_string(id.size()) + ")");
  }
  if (n_sensors == 0 ||
      n_sensors > std::numeric_limits<std::uint32_t>::max()) {
    fail("node \"" + std::string(id) + "\" has " +
         std::to_string(n_sensors) + " sensors");
  }
  if (nodes_.size() >= std::numeric_limits<std::uint32_t>::max()) {
    fail("node table is full");
  }
  nodes_.push_back(
      RecordedNode{std::string(id), static_cast<std::uint32_t>(n_sensors)});
  next_timestamp_.push_back(0);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

core::StreamEngine::IngestTap Recorder::tap() {
  core::StreamEngine::IngestTap tap;
  tap.node_added = [this](std::size_t node, std::string_view id,
                          std::size_t n_sensors) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (node != nodes_.size()) {
      fail("engine node " + std::to_string(node) + " (\"" +
           std::string(id) + "\") announced to a node table of " +
           std::to_string(nodes_.size()) +
           " (install the tap before the engine's first node)");
    }
    add_node_locked(id, n_sensors);
  };
  // Table index = engine index, which node_added checked for every node.
  tap.batch = [this](std::size_t node, const common::MatrixView& columns) {
    record(static_cast<std::uint32_t>(node), columns);
  };
  return tap;
}

void Recorder::record(std::uint32_t node, const common::MatrixView& columns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (node >= nodes_.size()) {
    fail("batch names unknown node index " + std::to_string(node));
  }
  record_locked(node, columns, next_timestamp_[node]);
}

void Recorder::record(std::uint32_t node, const common::MatrixView& columns,
                      std::uint64_t timestamp) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (node >= nodes_.size()) {
    fail("batch names unknown node index " + std::to_string(node));
  }
  record_locked(node, columns, timestamp);
}

void Recorder::record_locked(std::uint32_t node,
                             const common::MatrixView& columns,
                             std::uint64_t timestamp) {
  if (finished_) fail("record() after finish()");
  if (columns.cols() == 0) return;  // Tombstone slots record nothing.
  if (columns.rows() != nodes_[node].n_sensors) {
    fail("batch for node \"" + nodes_[node].id + "\" has " +
         std::to_string(columns.rows()) + " sensors, expected " +
         std::to_string(nodes_[node].n_sensors));
  }
  if (columns.cols() > std::numeric_limits<std::uint32_t>::max()) {
    fail("batch column count exceeds u32");
  }
  std::vector<std::uint8_t> bytes;
  const std::uint64_t body_len =
      kBatchBodyPrefix + 8ull * columns.rows() * columns.cols();
  bytes.reserve(8 + static_cast<std::size_t>(body_len));
  append_u64(bytes, body_len);
  append_u32(bytes, node);
  append_u64(bytes, timestamp);
  append_u32(bytes, static_cast<std::uint32_t>(columns.cols()));
  // Column-major: one monitoring time-stamp after another, matching both
  // the ingestion order and the kSampleBatch wire layout.
  core::codec::append_f64_columns(bytes, columns);
  write(bytes);
  payload_crc_ = crc32(bytes, payload_crc_);
  payload_size_ += bytes.size();
  next_timestamp_[node] = timestamp + columns.cols();
  ++batch_count_;
}

void Recorder::finish() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) fail("finish() called twice");
  finished_ = true;

  std::vector<std::uint8_t> table;
  for (const RecordedNode& n : nodes_) {
    append_u16(table, static_cast<std::uint16_t>(n.id.size()));
    table.insert(table.end(), n.id.begin(), n.id.end());
    append_u32(table, n.n_sensors);
  }
  write(table);
  payload_crc_ = crc32(table, payload_crc_);
  std::vector<std::uint8_t> trailer;
  append_u32(trailer, payload_crc_);
  write(trailer);

  const std::uint64_t table_offset = kRecordingHeaderSize + payload_size_;
  const std::vector<std::uint8_t> header =
      header_bytes(nodes_.size(), batch_count_, table_offset);
  if (!file_.empty()) {
    out_.seekp(0);
    out_.write(reinterpret_cast<const char*>(header.data()),
               static_cast<std::streamsize>(header.size()));
    out_.flush();
    if (!out_) fail("write failed for " + file_.string());
    out_.close();
  } else {
    buffer_.seekp(0);
    buffer_.write(reinterpret_cast<const char*>(header.data()),
                  static_cast<std::streamsize>(header.size()));
  }
}

std::size_t Recorder::n_nodes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return nodes_.size();
}

std::size_t Recorder::batch_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(batch_count_);
}

std::vector<std::uint8_t> Recorder::bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!file_.empty()) {
    throw std::logic_error("Recorder::bytes: recorder is file-backed");
  }
  if (!finished_) {
    throw std::logic_error("Recorder::bytes: finish() the recording first");
  }
  const std::string s = buffer_.str();
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// ReplayReader
// ---------------------------------------------------------------------------

/// Mapped (or in-memory) recording bytes plus the decoded header geometry
/// and node table.
struct ReplayReader::Mapping {
  /// Validates the header and node table; errors name `file`.
  Mapping(std::filesystem::path file, common::MappedFile bytes);

  std::filesystem::path file;
  common::MappedFile bytes;
  const std::uint8_t* data = nullptr;  ///< bytes.data().
  std::size_t size = 0;

  std::uint64_t batch_count = 0;
  std::uint64_t table_offset = 0;
  std::uint32_t trailing_crc = 0;
  std::vector<RecordedNode> nodes;
};

ReplayReader::Mapping::Mapping(std::filesystem::path file_in,
                               common::MappedFile bytes_in)
    : file(std::move(file_in)),
      bytes(std::move(bytes_in)),
      data(bytes.data()),
      size(bytes.size()) {
  if (size < kRecordingHeaderSize + 4 ||
      std::memcmp(data, kRecordingMagic, sizeof(kRecordingMagic)) != 0) {
    fail(file.string() + " is not a CSMR recording (bad magic)");
  }
  const std::uint8_t version = data[4];
  if (version != kRecordingVersion) {
    fail("unsupported recording version " + std::to_string(version) +
         " (expected " + std::to_string(kRecordingVersion) + ")");
  }
  // Reserved bytes must be zero: the strict form keeps every accepted file
  // canonical (the fuzz harness pins re-encode identity on it).
  if (data[5] != 0 || data[6] != 0 || data[7] != 0 ||
      load_u32(data + kHeaderCrcOffset + 4) != 0) {
    fail("nonzero reserved header bytes in " + file.string());
  }
  const std::uint32_t stored_crc = load_u32(data + kHeaderCrcOffset);
  const std::uint32_t computed_crc = crc32({data, kHeaderCrcOffset});
  if (stored_crc != computed_crc) {
    fail("header CRC mismatch in " + file.string());
  }
  const std::uint64_t node_count = load_u64(data + 8);
  batch_count = load_u64(data + 16);
  table_offset = load_u64(data + 24);
  if (table_offset < kRecordingHeaderSize || table_offset > size - 4) {
    fail("node table range is outside the recording");
  }
  if (batch_count == 0 && table_offset != kRecordingHeaderSize) {
    fail("empty batch stream leaves slack before the node table");
  }
  // Each table entry costs at least 2 (id_len) + 1 (id byte) + 4
  // (n_sensors) = 7 bytes, so the count is bounded by the bytes present
  // before anything is allocated.
  const std::uint64_t table_len = (size - 4) - table_offset;
  if (node_count > table_len / 7) {
    fail("node count " + std::to_string(node_count) +
         " is impossible for a " + std::to_string(table_len) +
         "-byte node table");
  }
  std::uint64_t cursor = table_offset;
  nodes.reserve(static_cast<std::size_t>(node_count));
  for (std::uint64_t i = 0; i < node_count; ++i) {
    if (cursor + 2 > size - 4) {
      fail("truncated node table entry " + std::to_string(i));
    }
    const std::uint16_t id_len = load_u16(data + cursor);
    cursor += 2;
    if (id_len == 0 || id_len > kMaxNodeIdBytes) {
      fail("node " + std::to_string(i) + " has a bad id length " +
           std::to_string(id_len));
    }
    if (cursor + id_len + 4 > size - 4) {
      fail("truncated node table entry " + std::to_string(i));
    }
    RecordedNode node;
    node.id.assign(reinterpret_cast<const char*>(data + cursor), id_len);
    cursor += id_len;
    node.n_sensors = load_u32(data + cursor);
    cursor += 4;
    if (node.n_sensors == 0) {
      fail("node \"" + node.id + "\" declares 0 sensors");
    }
    nodes.push_back(std::move(node));
  }
  if (cursor != size - 4) {
    fail("trailing bytes after the node table");
  }
  trailing_crc = load_u32(data + size - 4);
  if (batch_count == 0) {
    // No batch iteration will ever reach the "last batch" CRC check, so an
    // empty recording's payload (just the table) is verified here — still
    // O(table), not O(file).
    const std::uint32_t payload = crc32(
        {data + kRecordingHeaderSize, (size - 4) - kRecordingHeaderSize});
    if (payload != trailing_crc) {
      fail("payload CRC mismatch in " + file.string());
    }
  }
}

ReplayReader ReplayReader::open(const std::filesystem::path& file) {
  common::MappedFile bytes;
  try {
    bytes = common::MappedFile::open(file);
  } catch (const std::runtime_error& e) {
    fail(e.what());
  }
  return ReplayReader(std::make_shared<Mapping>(file, std::move(bytes)));
}

ReplayReader ReplayReader::open_bytes(std::vector<std::uint8_t> bytes,
                                      std::filesystem::path name) {
  return ReplayReader(std::make_shared<Mapping>(
      std::move(name), common::MappedFile(std::move(bytes))));
}

ReplayReader::ReplayReader(std::shared_ptr<Mapping> mapping)
    : mapping_(std::move(mapping)), cursor_(kRecordingHeaderSize) {}

std::size_t ReplayReader::n_nodes() const noexcept {
  return mapping_->nodes.size();
}

const RecordedNode& ReplayReader::node(std::size_t i) const {
  if (i >= mapping_->nodes.size()) {
    throw std::out_of_range("ReplayReader: node index " + std::to_string(i) +
                            " out of range");
  }
  return mapping_->nodes[i];
}

std::uint64_t ReplayReader::batch_count() const noexcept {
  return mapping_->batch_count;
}

const std::filesystem::path& ReplayReader::path() const noexcept {
  return mapping_->file;
}

void ReplayReader::rewind() noexcept {
  cursor_ = kRecordingHeaderSize;
  batches_read_ = 0;
  running_crc_ = 0;
}

std::optional<RecordedBatch> ReplayReader::next() {
  const Mapping& m = *mapping_;
  if (batches_read_ >= m.batch_count) return std::nullopt;
  const std::string where = " (batch " + std::to_string(batches_read_) +
                            " at offset " + std::to_string(cursor_) + ")";
  if (cursor_ + 8 > m.table_offset) {
    fail("truncated batch stream" + where);
  }
  const std::uint64_t body_len = load_u64(m.data + cursor_);
  if (body_len < kBatchBodyPrefix ||
      body_len > m.table_offset - cursor_ - 8) {
    fail("bad batch body length " + std::to_string(body_len) + where);
  }
  const std::uint8_t* body = m.data + cursor_ + 8;
  const std::uint32_t node = load_u32(body);
  const std::uint64_t timestamp = load_u64(body + 4);
  const std::uint32_t n_cols = load_u32(body + 12);
  if (node >= m.nodes.size()) {
    fail("batch names unknown node index " + std::to_string(node) + where);
  }
  if (n_cols == 0) {
    fail("empty batch" + where);  // The Recorder never writes one.
  }
  const std::uint64_t data_len = body_len - kBatchBodyPrefix;
  const std::uint64_t n_values = data_len / 8;
  // Division-form geometry check: immune to n_sensors * n_cols overflowing
  // u64 on a hostile header.
  if (data_len % 8 != 0 || n_values % n_cols != 0 ||
      n_values / n_cols != m.nodes[node].n_sensors) {
    fail("batch geometry does not match node \"" + m.nodes[node].id +
         "\" (" + std::to_string(m.nodes[node].n_sensors) + " sensors)" +
         where);
  }
  RecordedBatch batch;
  batch.node = node;
  batch.timestamp = timestamp;
  batch.columns.resize(m.nodes[node].n_sensors, n_cols);
  core::codec::load_f64s(body + kBatchBodyPrefix, batch.columns.values());
  running_crc_ = crc32({m.data + cursor_, 8 + static_cast<std::size_t>(
                                                  body_len)},
                       running_crc_);
  cursor_ += 8 + body_len;
  ++batches_read_;
  if (batches_read_ == m.batch_count) {
    if (cursor_ != m.table_offset) {
      fail("batch stream leaves slack before the node table");
    }
    // Fold the node table in and verify the trailing CRC — the whole
    // payload has now been checksummed exactly once, incrementally.
    running_crc_ = crc32({m.data + m.table_offset,
                          (m.size - 4) - static_cast<std::size_t>(
                                             m.table_offset)},
                         running_crc_);
    if (running_crc_ != m.trailing_crc) {
      fail("payload CRC mismatch in " + m.file.string());
    }
  }
  return batch;
}

void ReplayReader::verify() {
  rewind();
  while (next()) {
  }
  rewind();
}

}  // namespace csm::replay
