#include "core/model_pack.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/mapped_file.hpp"
#include "core/method_registry.hpp"
#include "core/model_codec.hpp"

namespace csm::core {
namespace {

using codec::append_u32;
using codec::append_u64;
using codec::load_u32;
using codec::load_u64;

constexpr std::size_t kIndexEntrySize = 24;
constexpr std::size_t kHeaderCrcOffset = 40;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("ModelPack: " + what);
}

std::vector<std::uint8_t> pack_header(std::uint64_t count,
                                      std::uint64_t index_off,
                                      std::uint64_t names_off,
                                      std::uint64_t names_len) {
  std::vector<std::uint8_t> header;
  header.reserve(kPackHeaderSize);
  header.insert(header.end(), std::begin(kPackMagic), std::end(kPackMagic));
  header.push_back(kPackVersion);
  append_u64(header, count);
  append_u64(header, index_off);
  append_u64(header, names_off);
  append_u64(header, names_len);
  append_u32(header, codec::crc32({header.data(), kHeaderCrcOffset}));
  append_u32(header, 0);  // Reserved.
  return header;
}

}  // namespace

bool is_safe_pack_id(std::string_view id) noexcept {
  if (id.empty() || id == "." || id == "..") {
    return false;
  }
  for (const char c : id) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '/' || c == '\\' || byte < 0x20 || byte == 0x7F) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

ModelPackWriter::ModelPackWriter(std::filesystem::path file)
    : file_(std::move(file)),
      out_(file_, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    fail("cannot open " + file_.string() + " for writing");
  }
  // Placeholder header; finish() rewrites it with the real geometry.
  const std::vector<std::uint8_t> header = pack_header(0, 0, 0, 0);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
}

void ModelPackWriter::add(std::string_view id, const SignatureMethod& method) {
  add_record(id, codec::encode_binary(method));
}

void ModelPackWriter::add_record(std::string_view id,
                                 std::span<const std::uint8_t> record) {
  if (finished_) {
    throw std::logic_error("ModelPackWriter: add_record() after finish()");
  }
  if (id.size() > std::numeric_limits<std::uint32_t>::max()) {
    fail("invalid node id length " + std::to_string(id.size()));
  }
  if (!is_safe_pack_id(id)) {
    fail("unsafe node id \"" + std::string(id) +
         "\" (ids must be usable as file names: no separators, control "
         "bytes, \".\" or \"..\")");
  }
  (void)codec::parse_record(record);  // Reject malformed records up front.
  out_.write(reinterpret_cast<const char*>(record.data()),
             static_cast<std::streamsize>(record.size()));
  if (!out_) {
    fail("write failed for " + file_.string());
  }
  entries_.push_back(PendingEntry{std::string(id), cursor_, record.size()});
  cursor_ += record.size();
}

void ModelPackWriter::finish() {
  if (finished_) {
    throw std::logic_error("ModelPackWriter: finish() called twice");
  }
  finished_ = true;
  std::sort(entries_.begin(), entries_.end(),
            [](const PendingEntry& a, const PendingEntry& b) {
              return a.id < b.id;
            });
  const auto dup = std::adjacent_find(
      entries_.begin(), entries_.end(),
      [](const PendingEntry& a, const PendingEntry& b) { return a.id == b.id; });
  if (dup != entries_.end()) {
    fail("duplicate node id \"" + dup->id + "\"");
  }

  std::string names;
  std::vector<std::uint8_t> index;
  index.reserve(entries_.size() * kIndexEntrySize);
  for (const PendingEntry& e : entries_) {
    if (names.size() > std::numeric_limits<std::uint32_t>::max() - e.id.size()) {
      fail("names blob exceeds 4 GiB");
    }
    append_u32(index, static_cast<std::uint32_t>(names.size()));
    append_u32(index, static_cast<std::uint32_t>(e.id.size()));
    append_u64(index, e.offset);
    append_u64(index, e.length);
    names += e.id;
  }

  const std::uint64_t names_off = cursor_;
  const std::uint64_t index_off = names_off + names.size();
  out_.write(names.data(), static_cast<std::streamsize>(names.size()));
  out_.write(reinterpret_cast<const char*>(index.data()),
             static_cast<std::streamsize>(index.size()));
  const std::vector<std::uint8_t> header =
      pack_header(entries_.size(), index_off, names_off, names.size());
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  out_.flush();
  if (!out_) {
    fail("write failed for " + file_.string());
  }
  out_.close();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Holds the mapped (or in-memory) pack bytes plus the decoded header
/// geometry.
struct ModelPack::Mapping {
  /// Validates the header and index geometry; errors name `file`.
  Mapping(std::filesystem::path file, common::MappedFile bytes);

  std::filesystem::path file;
  common::MappedFile bytes;
  const std::uint8_t* data = nullptr;  ///< bytes.data().
  std::size_t size = 0;

  std::uint64_t count = 0;
  const std::uint8_t* index = nullptr;  ///< count x 24-byte entries.
  const char* names = nullptr;
  std::uint64_t names_len = 0;

  struct IndexEntry {
    std::string_view name;
    std::uint64_t record_off = 0;
    std::uint64_t record_len = 0;
  };

  IndexEntry entry(std::size_t i) const {
    const std::uint8_t* p = index + i * kIndexEntrySize;
    const std::uint32_t name_off = load_u32(p);
    const std::uint32_t name_len = load_u32(p + 4);
    IndexEntry e;
    e.record_off = load_u64(p + 8);
    e.record_len = load_u64(p + 16);
    if (name_off > names_len || name_len > names_len - name_off) {
      fail("index entry " + std::to_string(i) +
           " names a range outside the names blob");
    }
    if (e.record_off > size || e.record_len > size - e.record_off) {
      fail("index entry " + std::to_string(i) +
           " points outside the pack file");
    }
    e.name = std::string_view(names + name_off, name_len);
    // A hostile pack must not be able to smuggle a traversal id ("../x",
    // absolute paths) to consumers that join ids onto output paths.
    if (!is_safe_pack_id(e.name)) {
      fail("index entry " + std::to_string(i) + " has an unsafe node id");
    }
    return e;
  }

  /// Binary search over the sorted index; returns the position or count.
  std::size_t lower_bound_id(std::string_view id) const {
    std::size_t lo = 0;
    std::size_t hi = static_cast<std::size_t>(count);
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entry(mid).name < id) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
};

ModelPack ModelPack::open(const std::filesystem::path& file) {
  common::MappedFile bytes;
  try {
    bytes = common::MappedFile::open(file);
  } catch (const std::runtime_error& e) {
    fail(e.what());
  }
  return ModelPack(std::make_shared<const Mapping>(file, std::move(bytes)));
}

ModelPack ModelPack::open_bytes(std::vector<std::uint8_t> bytes,
                                std::filesystem::path name) {
  return ModelPack(std::make_shared<const Mapping>(
      std::move(name), common::MappedFile(std::move(bytes))));
}

ModelPack::Mapping::Mapping(std::filesystem::path file_in,
                            common::MappedFile bytes_in)
    : file(std::move(file_in)),
      bytes(std::move(bytes_in)),
      data(bytes.data()),
      size(bytes.size()) {
  if (size < kPackHeaderSize ||
      std::memcmp(data, kPackMagic, sizeof(kPackMagic)) != 0) {
    fail(file.string() + " is not a model pack (bad magic)");
  }
  const std::uint8_t version = data[7];
  if (version != kPackVersion) {
    fail("unsupported model pack version " + std::to_string(version) +
         " (expected " + std::to_string(kPackVersion) + ")");
  }
  const std::uint32_t stored_crc = load_u32(data + kHeaderCrcOffset);
  const std::uint32_t computed_crc = codec::crc32({data, kHeaderCrcOffset});
  if (stored_crc != computed_crc) {
    fail("header CRC mismatch in " + file.string());
  }
  count = load_u64(data + 8);
  const std::uint64_t index_off = load_u64(data + 16);
  const std::uint64_t names_off = load_u64(data + 24);
  names_len = load_u64(data + 32);
  if (count > size / kIndexEntrySize) {
    fail("record count " + std::to_string(count) + " is impossible for a " +
         std::to_string(size) + "-byte pack");
  }
  const std::uint64_t index_len = count * kIndexEntrySize;
  if (index_off > size || index_len > size - index_off) {
    fail("index range is outside the pack file");
  }
  if (names_off > size || names_len > size - names_off) {
    fail("names blob range is outside the pack file");
  }
  index = data + index_off;
  names = reinterpret_cast<const char*>(data + names_off);
}

std::size_t ModelPack::size() const noexcept {
  return static_cast<std::size_t>(mapping_->count);
}

const std::filesystem::path& ModelPack::path() const noexcept {
  return mapping_->file;
}

std::string_view ModelPack::id(std::size_t i) const {
  if (i >= size()) {
    throw std::out_of_range("ModelPack: index " + std::to_string(i) +
                            " out of range");
  }
  return mapping_->entry(i).name;
}

std::span<const std::uint8_t> ModelPack::record(std::size_t i) const {
  if (i >= size()) {
    throw std::out_of_range("ModelPack: index " + std::to_string(i) +
                            " out of range");
  }
  const Mapping::IndexEntry e = mapping_->entry(i);
  return {mapping_->data + e.record_off,
          static_cast<std::size_t>(e.record_len)};
}

bool ModelPack::contains(std::string_view id) const {
  const std::size_t pos = mapping_->lower_bound_id(id);
  return pos < size() && mapping_->entry(pos).name == id;
}

std::span<const std::uint8_t> ModelPack::record(std::string_view id) const {
  const std::size_t pos = mapping_->lower_bound_id(id);
  if (pos >= size() || mapping_->entry(pos).name != id) {
    fail("node id \"" + std::string(id) + "\" is not in " +
         mapping_->file.string());
  }
  return record(pos);
}

std::unique_ptr<SignatureMethod> ModelPack::load(
    std::string_view id, const MethodRegistry& registry) const {
  return registry.decode(record(id));
}

}  // namespace csm::core
