// Fleet model store: one mmap-able file of binary model records.
//
// A model pack concatenates the codec's "CSMB" binary records (one trained
// model per fleet node) behind a versioned header and a sorted
// node-id -> offset index, so a consumer can stand up a 10^5-node
// StreamEngine without opening 10^5 model files: the file is mapped once,
// lookups binary-search the index, and each record is CRC-checked and
// decoded only when its node is actually loaded.
//
// Layout (all integers little-endian):
//
//   offset 0   "CSMPACK" + version byte        (8 bytes)
//          8   u64 record count
//         16   u64 index offset
//         24   u64 names-blob offset
//         32   u64 names-blob length
//         40   u32 CRC32 of bytes [0, 40)
//         44   u32 reserved (zero)
//         48   record 0, record 1, ...          (each a framed CSMB record)
//              names blob (concatenated ids)
//              index: count x 24-byte entries
//                {u32 name offset (into blob), u32 name length,
//                 u64 record offset, u64 record length}
//              sorted lexicographically by name.
//
// Records keep their own per-record CRC from the codec framing; the pack
// header CRC only guards the header/index geometry, so opening is O(1) and
// integrity is still verified lazily per loaded node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace csm::core {

class MethodRegistry;
class SignatureMethod;

/// Pack framing constants ("CSMPACK" + version).
inline constexpr std::uint8_t kPackMagic[7] = {'C', 'S', 'M', 'P', 'A', 'C',
                                               'K'};
inline constexpr std::uint8_t kPackVersion = 1;
inline constexpr std::size_t kPackHeaderSize = 48;

/// True when `id` is usable verbatim as a single path component: rejects
/// empty ids, "." and "..", '/' and '\\' separators, and control bytes.
/// ModelPackWriter enforces this on add_record() and ModelPack enforces it
/// on every index access, so consumers that join a pack id onto an output
/// path (`csmcli unpack`, `stream --dump-models`) cannot be steered outside
/// their target directory by a hostile pack.
bool is_safe_pack_id(std::string_view id) noexcept;

/// Streams records into a new pack file. add() in any id order; finish()
/// sorts the index, rejects duplicate ids and patches the header. The
/// writer is single-use: further calls after finish() throw.
class ModelPackWriter {
 public:
  /// Opens (truncates) `file`. Throws std::runtime_error on I/O failure.
  explicit ModelPackWriter(std::filesystem::path file);

  /// Serialises `method` (codec::encode_binary) under node id `id`.
  void add(std::string_view id, const SignatureMethod& method);

  /// Appends one pre-framed binary record (must pass codec::parse_record)
  /// under node id `id`. Throws std::runtime_error on an unsafe id (see
  /// is_safe_pack_id) or a malformed record, std::logic_error after
  /// finish().
  void add_record(std::string_view id, std::span<const std::uint8_t> record);

  /// Records added so far.
  std::size_t size() const noexcept { return entries_.size(); }

  /// Writes names + index and patches the header. Throws std::runtime_error
  /// on duplicate ids or I/O failure; std::logic_error if called twice.
  void finish();

 private:
  struct PendingEntry {
    std::string id;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };

  std::filesystem::path file_;
  std::ofstream out_;
  std::vector<PendingEntry> entries_;
  std::uint64_t cursor_ = kPackHeaderSize;
  bool finished_ = false;
};

/// Read-side: maps a pack file and resolves node ids to record bytes.
/// Copyable (copies share the underlying mapping); records stay valid for
/// the mapping's lifetime.
class ModelPack {
 public:
  /// Maps `file` and validates the header, the header CRC and the index
  /// geometry (not the per-record CRCs — those are checked by load()).
  /// Index entries are validated lazily on access: an out-of-range name or
  /// record span, or an id that fails is_safe_pack_id, throws from the
  /// accessor that touches it. Throws std::runtime_error naming the defect.
  static ModelPack open(const std::filesystem::path& file);

  /// Same validation over an in-memory pack image (e.g. received over a
  /// transport instead of read from disk); the pack takes ownership of
  /// `bytes` and `name` stands in for the file path in error messages.
  static ModelPack open_bytes(std::vector<std::uint8_t> bytes,
                              std::filesystem::path name = "<memory>");

  std::size_t size() const noexcept;
  const std::filesystem::path& path() const noexcept;

  bool contains(std::string_view id) const;
  /// Node id of the i-th index entry (ids are sorted). Throws
  /// std::out_of_range.
  std::string_view id(std::size_t i) const;
  /// Raw record bytes by position / by node id. The id overload throws
  /// std::runtime_error when the id is absent.
  std::span<const std::uint8_t> record(std::size_t i) const;
  std::span<const std::uint8_t> record(std::string_view id) const;

  /// Deserialises one node's model through `registry` (CRC checked here).
  std::unique_ptr<SignatureMethod> load(std::string_view id,
                                        const MethodRegistry& registry) const;

 private:
  struct Mapping;

  explicit ModelPack(std::shared_ptr<const Mapping> mapping)
      : mapping_(std::move(mapping)) {}

  std::shared_ptr<const Mapping> mapping_;
};

}  // namespace csm::core
