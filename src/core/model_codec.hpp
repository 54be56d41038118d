// Model codec: one write path per method, one stored format.
//
// SignatureMethod::save(Sink&) describes a trained model as a sequence of
// named, typed fields. BinarySink lays them out as the body of a CSMB
// record: "CSMB" magic, a format version byte, the method key, a
// length-prefixed little-endian field body and a trailing CRC32 over the
// whole record. Model files, core::ModelPack (which concatenates records
// so a fleet engine can mmap hundreds of thousands of per-node models and
// decode them lazily) and the CSMF kNodeAdd frame all carry this record.
// TextSink renders the same fields as readable lines for inspection
// (`csmcli info`); nothing parses that listing back.
//
// Source, the one reader, is strict: fields are read back in writing
// order, and a name or type mismatch, a truncated payload, an absurd
// element count, a CRC mismatch or trailing data all throw
// std::runtime_error naming the offending field and its byte offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace csm::common {
class MatrixView;
}

namespace csm::core {
class SignatureMethod;
}

namespace csm::core::codec {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental form: extends a prior crc32() result with further bytes, so
/// crc32(b, crc32(a)) == crc32(a ++ b). A prior of 0 (== crc32({})) starts a
/// fresh checksum; streaming writers (replay::Recorder) fold each chunk in
/// as it is written instead of buffering the whole stream.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t prior);

/// Little-endian wire primitives, shared by the binary model codec, the
/// model pack and the src/net frame codec: append_* pushes the value onto a
/// byte buffer, load_* reads one from `p` (the caller guarantees the bytes
/// are in range). Little-endian hosts read in place; others assemble.
void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint16_t load_u16(const std::uint8_t* p);
std::uint32_t load_u32(const std::uint8_t* p);
std::uint64_t load_u64(const std::uint8_t* p);
/// Bulk f64 forms for sample blocks and signatures: one memcpy on
/// little-endian hosts, a per-value store or load elsewhere. `p` need not
/// be aligned for double: the values are copied out, never read in place.
void append_f64s(std::vector<std::uint8_t>& out,
                 std::span<const double> values);
void load_f64s(const std::uint8_t* p, std::span<double> out);
/// Appends every value of `columns`, column after column: the sample-block
/// layout of CSMF batches and CSMR recordings. A column-major view costs
/// one append_f64s per segment, a row-major one a gather per column.
void append_f64_columns(std::vector<std::uint8_t>& out,
                        const common::MatrixView& columns);

/// Binary record framing constants.
inline constexpr std::uint8_t kBinaryMagic[4] = {'C', 'S', 'M', 'B'};
inline constexpr std::uint8_t kBinaryVersion = 1;
/// Cap on array element counts: a corrupt count must fail loudly before it
/// turns into a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxFieldElements = 1ull << 26;

// ---------------------------------------------------------------------------
// Field-level surface: the sink methods write to, the reader they read from
// ---------------------------------------------------------------------------

/// Abstract typed field sink. Methods write their trained state through
/// this interface exactly once; the back-end decides the rendering.
class Sink {
 public:
  virtual ~Sink() = default;

  virtual void u64(std::string_view name, std::uint64_t value) = 0;
  virtual void f64(std::string_view name, double value) = 0;
  virtual void u64_array(std::string_view name,
                         std::span<const std::uint64_t> values) = 0;
  virtual void f64_array(std::string_view name,
                         std::span<const double> values) = 0;

  // Convenience spellings over the virtual core.
  void size(std::string_view name, std::size_t value) { u64(name, value); }
  void flag(std::string_view name, bool value) { u64(name, value ? 1 : 0); }
  /// Writes a std::size_t array as u64s (the two types differ on LLP64/
  /// LP64 platforms even when both are 64 bits wide).
  void sizes(std::string_view name, std::span<const std::size_t> values);
};

/// Strict typed field reader over a record body (see BinarySink): fields
/// are consumed in the order they were written. Every mismatch throws
/// std::runtime_error naming the field and its record offset.
class Source {
 public:
  /// `base_offset` is the body's offset inside the enclosing record, used
  /// to report absolute record offsets in error messages.
  explicit Source(std::span<const std::uint8_t> body,
                  std::size_t base_offset = 0)
      : body_(body), base_offset_(base_offset) {}

  std::uint64_t u64(std::string_view name);
  double f64(std::string_view name);
  std::vector<std::uint64_t> u64_array(std::string_view name);
  std::vector<double> f64_array(std::string_view name);
  /// Throws std::runtime_error if unread bytes remain.
  void finish();

  /// u64 checked to fit std::size_t.
  std::size_t size(std::string_view name);
  /// u64 checked to be exactly 0 or 1.
  bool flag(std::string_view name);
  /// u64_array checked element-wise to fit std::size_t.
  std::vector<std::size_t> sizes(std::string_view name);

 private:
  /// Reads and validates one field header; returns the element count.
  std::uint64_t field_header(std::uint8_t type, std::string_view name);
  std::size_t offset() const noexcept { return base_offset_ + cursor_; }

  std::span<const std::uint8_t> body_;
  std::size_t base_offset_ = 0;
  std::size_t cursor_ = 0;
};

/// Binary back-end: the field body of a CSMB record.
class BinarySink final : public Sink {
 public:
  void u64(std::string_view name, std::uint64_t value) override;
  void f64(std::string_view name, double value) override;
  void u64_array(std::string_view name,
                 std::span<const std::uint64_t> values) override;
  void f64_array(std::string_view name,
                 std::span<const double> values) override;

  /// The accumulated field body (without record framing).
  const std::vector<std::uint8_t>& body() const noexcept { return body_; }

 private:
  void field_header(std::uint8_t type, std::string_view name,
                    std::uint64_t count);

  std::vector<std::uint8_t> body_;
};

/// Print-only listing: one line per field, `name value` for scalars and
/// `name count values...` for arrays, doubles printed with %.17g.
class TextSink final : public Sink {
 public:
  void u64(std::string_view name, std::uint64_t value) override;
  void f64(std::string_view name, double value) override;
  void u64_array(std::string_view name,
                 std::span<const std::uint64_t> values) override;
  void f64_array(std::string_view name,
                 std::span<const double> values) override;

  /// The accumulated field lines.
  const std::string& body() const noexcept { return body_; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// Parsed view into a validated binary record.
struct RecordView {
  std::uint8_t version = 0;
  std::string key;                      ///< Registry key, e.g. "cs".
  std::span<const std::uint8_t> body;   ///< Field body (Source input).
  std::size_t body_offset = 0;          ///< Body offset inside the record.
};

/// Frames `body` as one record: magic, version byte, key, length-prefixed
/// body, trailing CRC32 over everything before it.
std::vector<std::uint8_t> frame_record(std::string_view key,
                                       std::span<const std::uint8_t> body);

/// Validates the framing and CRC of `record` (which must be exactly one
/// record, no trailing bytes) and returns a view into it. Throws
/// std::runtime_error naming the defect and offset.
RecordView parse_record(std::span<const std::uint8_t> record);

// ---------------------------------------------------------------------------
// Whole-method encoder (decoding needs a registry: MethodRegistry::decode)
// ---------------------------------------------------------------------------

/// The CSMB record of method.save()'s fields. Throws std::logic_error when
/// the method is untrained or has no codec key.
std::vector<std::uint8_t> encode_binary(const SignatureMethod& method);

}  // namespace csm::core::codec
