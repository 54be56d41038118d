#include "core/model_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#if !(defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L)
// newlocale/uselocale are POSIX, declared in <locale.h> (not <clocale>);
// macOS additionally keeps them in <xlocale.h>.
#include <locale.h>  // NOLINT(modernize-deprecated-headers)
#if defined(__APPLE__)
#include <xlocale.h>
#endif
#endif

#include "common/matrix_view.hpp"
#include "core/crc32_kernels.hpp"
#include "core/signature_method.hpp"

#if CSM_CRC32_PCLMUL
#include <immintrin.h>
#endif

namespace csm::core::codec {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("ModelCodec: " + what);
}

std::string quoted(std::string_view name) {
  // Built incrementally: GCC 12 raises a bogus -Wrestrict on the chained
  // operator+ spelling.
  std::string out;
  out.reserve(name.size() + 2);
  out += '"';
  out += name;
  out += '"';
  return out;
}

}  // namespace

// --- little-endian primitives (shared with the src/net frame codec) ---------

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint16_t load_u16(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(p[0]) |
        (static_cast<std::uint16_t>(p[1]) << 8));
  }
}

std::uint32_t load_u32(const std::uint8_t* p) {
  // Little-endian hosts read the wire format in place; others assemble it.
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    }
    return v;
  }
}

std::uint64_t load_u64(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
  }
}

void append_f64s(std::vector<std::uint8_t>& out,
                 std::span<const double> values) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
    out.insert(out.end(), bytes, bytes + values.size_bytes());
  } else {
    for (const double v : values) {
      append_u64(out, std::bit_cast<std::uint64_t>(v));
    }
  }
}

void append_f64_columns(std::vector<std::uint8_t>& out,
                        const common::MatrixView& columns) {
  out.reserve(out.size() + columns.size() * sizeof(double));
  for (std::size_t k = 0; k < columns.n_col_segments(); ++k) {
    const common::MatrixView::ColSegment seg = columns.col_segment(k);
    append_f64s(out, {seg.data, seg.n_cols * columns.rows()});
  }
  if (columns.contiguous_cols()) return;
  std::vector<double> col(columns.rows());
  for (std::size_t c = 0; c < columns.cols(); ++c) {
    columns.copy_col(c, col);
    append_f64s(out, col);
  }
}

void load_f64s(const std::uint8_t* p, std::span<double> out) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) std::memcpy(out.data(), p, out.size_bytes());
  } else {
    for (double& v : out) {
      v = std::bit_cast<double>(load_u64(p));
      p += sizeof(double);
    }
  }
}

namespace {

// --- binary field type tags -------------------------------------------------

constexpr std::uint8_t kTypeU64 = 1;
constexpr std::uint8_t kTypeF64 = 2;
constexpr std::uint8_t kTypeU64Array = 3;
constexpr std::uint8_t kTypeF64Array = 4;

const char* type_name(std::uint8_t type) {
  switch (type) {
    case kTypeU64:
      return "u64";
    case kTypeF64:
      return "f64";
    case kTypeU64Array:
      return "u64[]";
    case kTypeF64Array:
      return "f64[]";
    default:
      return "unknown";
  }
}

// --- text helpers -----------------------------------------------------------

// The text form is a transport format, so it must not bend with the host
// locale: an embedding application that called setlocale() into a
// comma-decimal locale would otherwise write non-portable models and fail
// to parse portable ones. <charconv> is locale-blind by specification, and
// std::to_chars with an explicit precision is defined to produce exactly
// printf "%.17g" in the "C" locale; toolchains without the floating-point
// overloads (AppleClang's libc++) fall back to the C library pinned to a
// per-thread "C" locale via uselocale().
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
#define CSM_CODEC_FP_CHARCONV 1
#else
#define CSM_CODEC_FP_CHARCONV 0
#endif

#if !CSM_CODEC_FP_CHARCONV
locale_t c_numeric_locale() {
  static const locale_t loc =
      ::newlocale(LC_ALL_MASK, "C", static_cast<locale_t>(nullptr));
  return loc;
}
#endif

std::string format_f64(double v) {
  std::array<char, 40> buf{};
#if CSM_CODEC_FP_CHARCONV
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                       std::chars_format::general, 17);
  if (ec != std::errc()) {
    throw std::logic_error("ModelCodec: cannot format double");
  }
  return std::string(buf.data(), ptr);
#else
  const locale_t prev = ::uselocale(c_numeric_locale());
  const int n = std::snprintf(buf.data(), buf.size(), "%.17g", v);
  ::uselocale(prev);
  return std::string(buf.data(), static_cast<std::size_t>(n));
#endif
}

// A declared element count is untrusted until the elements actually parse:
// reserving it verbatim lets a ~20-byte hostile body demand a 512 MB
// allocation (kMaxFieldElements * 8) before the first missing element fails
// the parse (fuzz regression fuzz/regressions/model-text/count-amplification).
// Geometric push_back growth costs little for honest large arrays.
constexpr std::uint64_t kMaxUpFrontReserve = 4096;

std::size_t clamped_reserve(std::uint64_t count) {
  return static_cast<std::size_t>(std::min(count, kMaxUpFrontReserve));
}

}  // namespace

// --- CRC-32 -----------------------------------------------------------------

namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables: table 0 is the classic byte-at-a-time table; table k
// advances a byte through k further zero bytes, so eight lookups fold eight
// input bytes at once.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// Advances the raw (un-finalised) CRC register over `n` bytes.
std::uint32_t crc32_sliced(const std::uint8_t* p, std::size_t n,
                           std::uint32_t crc) noexcept {
  const Crc32Tables& t = kCrc32Tables;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint32_t lo = crc ^ load_u32(p + i);
    const std::uint32_t hi = load_u32(p + i + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < n; ++i) crc = t[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#if CSM_CRC32_PCLMUL
// Folding constants for the reflected IEEE polynomial, as in Intel's "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ" (and Linux's
// crc32-pclmul): each is x^k mod P(x), bit-reflected and shifted left by 1.
constexpr long long kFold512Lo = 0x154442bd4;  // x^(4*128+32) mod P
constexpr long long kFold512Hi = 0x1c6e41596;  // x^(4*128-32) mod P
constexpr long long kFold128Lo = 0x1751997d0;  // x^(128+32) mod P
constexpr long long kFold128Hi = 0x0ccaa009e;  // x^(128-32) mod P
constexpr long long kFold64 = 0x163cd6124;     // x^64 mod P
constexpr long long kPoly = 0x1db710641;       // P(x), reflected
constexpr long long kBarrettMu = 0x1f7011641;  // x^64 / P(x), reflected

// x * k: the low lane times k's low half, the high lane times k's high
// half, both folded onto `next`.
__attribute__((target("pclmul"))) inline __m128i fold_lane(__m128i x,
                                                           __m128i k,
                                                           __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

__attribute__((target("pclmul"))) inline __m128i load_lane(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances the raw CRC register over `n` bytes, n >= 64 and a multiple of
// 16: four lanes fold 64 bytes per step, then fold into one lane, which
// Barrett reduction turns back into a 32-bit remainder.
__attribute__((target("pclmul"))) std::uint32_t crc32_folded(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) noexcept {
  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  const __m128i k64 = _mm_set_epi64x(0, kFold64);
  const __m128i barrett = _mm_set_epi64x(kBarrettMu, kPoly);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 = _mm_xor_si128(load_lane(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load_lane(p + 16);
  __m128i x2 = load_lane(p + 32);
  __m128i x3 = load_lane(p + 48);
  std::size_t i = 64;
  for (; i + 64 <= n; i += 64) {
    x0 = fold_lane(x0, k512, load_lane(p + i));
    x1 = fold_lane(x1, k512, load_lane(p + i + 16));
    x2 = fold_lane(x2, k512, load_lane(p + i + 32));
    x3 = fold_lane(x3, k512, load_lane(p + i + 48));
  }
  x0 = fold_lane(x0, k128, x1);
  x0 = fold_lane(x0, k128, x2);
  x0 = fold_lane(x0, k128, x3);
  for (; i < n; i += 16) x0 = fold_lane(x0, k128, load_lane(p + i));

  // 128 -> 64 bits, then 64 -> 32 (which appends the 32 zero bits the
  // remainder needs), then the Barrett reduction modulo P.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k128, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64, 0));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(q, x0), 4)));
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32_slicing8(std::span<const std::uint8_t> data,
                             std::uint32_t prior) noexcept {
  // A prior of 0 yields the classic ~0 initial state; any other prior is
  // un-finalised so the next chunk continues the same checksum.
  return crc32_sliced(data.data(), data.size(), prior ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

#if CSM_CRC32_PCLMUL
bool has_pclmul() noexcept { return __builtin_cpu_supports("pclmul"); }

std::uint32_t crc32_pclmul(std::span<const std::uint8_t> data,
                           std::uint32_t prior) noexcept {
  std::uint32_t crc = prior ^ 0xFFFFFFFFu;
  const std::size_t folded =
      data.size() < 64 ? 0 : data.size() & ~std::size_t{15};
  if (folded != 0) crc = crc32_folded(data.data(), folded, crc);
  return crc32_sliced(data.data() + folded, data.size() - folded, crc) ^
         0xFFFFFFFFu;
}
#endif

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32(data, 0);
}

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t prior) {
#if CSM_CRC32_PCLMUL
  static const bool pclmul = detail::has_pclmul();
  if (pclmul) return detail::crc32_pclmul(data, prior);
#endif
  return detail::crc32_slicing8(data, prior);
}

// ---------------------------------------------------------------------------
// Shared helper checks
// ---------------------------------------------------------------------------

void Sink::sizes(std::string_view name, std::span<const std::size_t> values) {
  std::vector<std::uint64_t> wide(values.begin(), values.end());
  u64_array(name, wide);
}

std::size_t Source::size(std::string_view name) {
  const std::uint64_t v = u64(name);
  if (v > std::numeric_limits<std::size_t>::max()) {
    fail("field " + quoted(name) + " value does not fit std::size_t");
  }
  return static_cast<std::size_t>(v);
}

bool Source::flag(std::string_view name) {
  const std::uint64_t v = u64(name);
  if (v > 1) {
    fail("field " + quoted(name) + " is not a boolean flag (got " +
         std::to_string(v) + ")");
  }
  return v == 1;
}

std::vector<std::size_t> Source::sizes(std::string_view name) {
  const std::vector<std::uint64_t> wide = u64_array(name);
  std::vector<std::size_t> out;
  out.reserve(wide.size());
  for (const std::uint64_t v : wide) {
    if (v > std::numeric_limits<std::size_t>::max()) {
      fail("field " + quoted(name) + " element does not fit std::size_t");
    }
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Text back-end
// ---------------------------------------------------------------------------

void TextSink::u64(std::string_view name, std::uint64_t value) {
  body_ += name;
  body_ += ' ';
  body_ += std::to_string(value);
  body_ += '\n';
}

void TextSink::f64(std::string_view name, double value) {
  body_ += name;
  body_ += ' ';
  body_ += format_f64(value);
  body_ += '\n';
}

void TextSink::u64_array(std::string_view name,
                         std::span<const std::uint64_t> values) {
  body_ += name;
  body_ += ' ';
  body_ += std::to_string(values.size());
  for (const std::uint64_t v : values) {
    body_ += ' ';
    body_ += std::to_string(v);
  }
  body_ += '\n';
}

void TextSink::f64_array(std::string_view name,
                         std::span<const double> values) {
  body_ += name;
  body_ += ' ';
  body_ += std::to_string(values.size());
  for (const double v : values) {
    body_ += ' ';
    body_ += format_f64(v);
  }
  body_ += '\n';
}

void TextSource::expect_name(std::string_view name) {
  std::string token;
  if (!(in_ >> token)) {
    fail("missing field " + quoted(name));
  }
  if (token != name) {
    fail("expected field " + quoted(name) + ", found " + quoted(token));
  }
}

std::uint64_t TextSource::parse_u64(std::string_view name) {
  std::string token;
  if (!(in_ >> token)) {
    fail("truncated field " + quoted(name));
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    fail("field " + quoted(name) + " is not an unsigned integer (got " +
         quoted(token) + ")");
  }
  return value;
}

double TextSource::parse_f64(std::string_view name) {
  std::string token;
  if (!(in_ >> token)) {
    fail("truncated field " + quoted(name));
  }
  double value = 0.0;
  bool parsed = false;
#if CSM_CODEC_FP_CHARCONV
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  parsed = ec == std::errc() && ptr == token.data() + token.size();
#else
  const char* begin = token.c_str();
  char* end = nullptr;
  const locale_t prev = ::uselocale(c_numeric_locale());
  value = std::strtod(begin, &end);
  ::uselocale(prev);
  parsed = end == begin + token.size();
#endif
  if (!parsed) {
    fail("field " + quoted(name) + " is not a number (got " + quoted(token) +
         ")");
  }
  return value;
}

std::uint64_t TextSource::u64(std::string_view name) {
  expect_name(name);
  return parse_u64(name);
}

double TextSource::f64(std::string_view name) {
  expect_name(name);
  return parse_f64(name);
}

std::vector<std::uint64_t> TextSource::u64_array(std::string_view name) {
  expect_name(name);
  const std::uint64_t count = parse_u64(name);
  if (count > kMaxFieldElements) {
    fail("field " + quoted(name) + " count " + std::to_string(count) +
         " exceeds the element cap");
  }
  std::vector<std::uint64_t> values;
  values.reserve(clamped_reserve(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(parse_u64(name));
  }
  return values;
}

std::vector<double> TextSource::f64_array(std::string_view name) {
  expect_name(name);
  const std::uint64_t count = parse_u64(name);
  if (count > kMaxFieldElements) {
    fail("field " + quoted(name) + " count " + std::to_string(count) +
         " exceeds the element cap");
  }
  std::vector<double> values;
  values.reserve(clamped_reserve(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(parse_f64(name));
  }
  return values;
}

void TextSource::finish() {
  std::string token;
  if (in_ >> token) {
    fail("trailing data after last field (starts with " + quoted(token) + ")");
  }
}

// ---------------------------------------------------------------------------
// Binary back-end
// ---------------------------------------------------------------------------

void BinarySink::field_header(std::uint8_t type, std::string_view name,
                              std::uint64_t count) {
  if (name.empty() || name.size() > 255) {
    throw std::logic_error("ModelCodec: field name must be 1..255 bytes");
  }
  if (count > kMaxFieldElements) {
    throw std::logic_error("ModelCodec: field " + quoted(name) +
                           " exceeds the element cap");
  }
  body_.push_back(type);
  body_.push_back(static_cast<std::uint8_t>(name.size()));
  body_.insert(body_.end(), name.begin(), name.end());
  append_u32(body_, static_cast<std::uint32_t>(count));
}

void BinarySink::u64(std::string_view name, std::uint64_t value) {
  field_header(kTypeU64, name, 1);
  append_u64(body_, value);
}

void BinarySink::f64(std::string_view name, double value) {
  field_header(kTypeF64, name, 1);
  append_u64(body_, std::bit_cast<std::uint64_t>(value));
}

void BinarySink::u64_array(std::string_view name,
                           std::span<const std::uint64_t> values) {
  field_header(kTypeU64Array, name, values.size());
  for (const std::uint64_t v : values) {
    append_u64(body_, v);
  }
}

void BinarySink::f64_array(std::string_view name,
                           std::span<const double> values) {
  field_header(kTypeF64Array, name, values.size());
  for (const double v : values) {
    append_u64(body_, std::bit_cast<std::uint64_t>(v));
  }
}

std::uint64_t BinarySource::field_header(std::uint8_t type,
                                         std::string_view name) {
  const std::size_t field_offset = offset();
  if (body_.size() - cursor_ < 2) {
    fail("truncated field header for " + quoted(name) + " at offset " +
         std::to_string(field_offset));
  }
  const std::uint8_t found_type = body_[cursor_];
  const std::size_t name_len = body_[cursor_ + 1];
  cursor_ += 2;
  if (body_.size() - cursor_ < name_len + 4) {
    fail("truncated field header for " + quoted(name) + " at offset " +
         std::to_string(field_offset));
  }
  const std::string_view found_name(
      reinterpret_cast<const char*>(body_.data() + cursor_), name_len);
  if (found_name != name) {
    fail("expected field " + quoted(name) + ", found " + quoted(found_name) +
         " at offset " + std::to_string(field_offset));
  }
  if (found_type != type) {
    fail("field " + quoted(name) + " has type " + type_name(found_type) +
         ", expected " + type_name(type) + " at offset " +
         std::to_string(field_offset));
  }
  cursor_ += name_len;
  const std::uint32_t count = load_u32(body_.data() + cursor_);
  cursor_ += 4;
  if (count > kMaxFieldElements) {
    fail("field " + quoted(name) + " count " + std::to_string(count) +
         " exceeds the element cap at offset " + std::to_string(field_offset));
  }
  if ((type == kTypeU64 || type == kTypeF64) && count != 1) {
    fail("scalar field " + quoted(name) + " has count " +
         std::to_string(count) + " at offset " + std::to_string(field_offset));
  }
  if (body_.size() - cursor_ < static_cast<std::size_t>(count) * 8) {
    fail("truncated field " + quoted(name) + " payload at offset " +
         std::to_string(offset()));
  }
  return count;
}

std::uint64_t BinarySource::u64(std::string_view name) {
  field_header(kTypeU64, name);
  const std::uint64_t v = load_u64(body_.data() + cursor_);
  cursor_ += 8;
  return v;
}

double BinarySource::f64(std::string_view name) {
  field_header(kTypeF64, name);
  const std::uint64_t bits = load_u64(body_.data() + cursor_);
  cursor_ += 8;
  return std::bit_cast<double>(bits);
}

std::vector<std::uint64_t> BinarySource::u64_array(std::string_view name) {
  const std::uint64_t count = field_header(kTypeU64Array, name);
  std::vector<std::uint64_t> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(load_u64(body_.data() + cursor_));
    cursor_ += 8;
  }
  return values;
}

std::vector<double> BinarySource::f64_array(std::string_view name) {
  const std::uint64_t count = field_header(kTypeF64Array, name);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(std::bit_cast<double>(load_u64(body_.data() + cursor_)));
    cursor_ += 8;
  }
  return values;
}

void BinarySource::finish() {
  if (cursor_ != body_.size()) {
    fail(std::to_string(body_.size() - cursor_) +
         " trailing bytes after last field at offset " +
         std::to_string(offset()));
  }
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

bool is_binary_record(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= 4 && bytes[0] == kBinaryMagic[0] &&
         bytes[1] == kBinaryMagic[1] && bytes[2] == kBinaryMagic[2] &&
         bytes[3] == kBinaryMagic[3];
}

std::vector<std::uint8_t> frame_record(std::string_view key,
                                       std::span<const std::uint8_t> body) {
  if (key.empty() || key.size() > 255) {
    throw std::logic_error("ModelCodec: record key must be 1..255 bytes");
  }
  if (body.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::logic_error("ModelCodec: record body exceeds 4 GiB");
  }
  std::vector<std::uint8_t> record;
  record.reserve(4 + 1 + 1 + key.size() + 4 + body.size() + 4);
  record.insert(record.end(), std::begin(kBinaryMagic), std::end(kBinaryMagic));
  record.push_back(kBinaryVersion);
  record.push_back(static_cast<std::uint8_t>(key.size()));
  record.insert(record.end(), key.begin(), key.end());
  append_u32(record, static_cast<std::uint32_t>(body.size()));
  record.insert(record.end(), body.begin(), body.end());
  append_u32(record, crc32(record));
  return record;
}

RecordView parse_record(std::span<const std::uint8_t> record) {
  if (!is_binary_record(record)) {
    fail("not a binary model record (bad magic)");
  }
  if (record.size() < 6) {
    fail("truncated record header (" + std::to_string(record.size()) +
         " bytes)");
  }
  RecordView view;
  view.version = record[4];
  if (view.version != kBinaryVersion) {
    fail("unsupported binary model version " + std::to_string(view.version) +
         " (expected " + std::to_string(kBinaryVersion) + ")");
  }
  const std::size_t key_len = record[5];
  std::size_t cursor = 6;
  if (key_len == 0) {
    fail("empty record key at offset 5");
  }
  if (record.size() - cursor < key_len + 4) {
    fail("truncated record key at offset " + std::to_string(cursor));
  }
  view.key.assign(reinterpret_cast<const char*>(record.data() + cursor),
                  key_len);
  cursor += key_len;
  const std::uint32_t body_len = load_u32(record.data() + cursor);
  cursor += 4;
  // Compare in 64 bits: body_len is untrusted and `body_len + 4` wraps a
  // 32-bit size_t, which would let a truncated record pass this check and
  // run subspan() out of bounds.
  const std::uint64_t remaining = record.size() - cursor;
  const std::uint64_t body_and_crc = std::uint64_t{body_len} + 4;
  if (remaining < body_and_crc) {
    fail("truncated record body at offset " + std::to_string(cursor) +
         " (declared " + std::to_string(body_len) + " bytes)");
  }
  if (remaining != body_and_crc) {
    fail(std::to_string(remaining - body_and_crc) +
         " trailing bytes after record CRC");
  }
  view.body = record.subspan(cursor, body_len);
  view.body_offset = cursor;
  cursor += body_len;
  const std::uint32_t stored = load_u32(record.data() + cursor);
  const std::uint32_t computed = crc32(record.first(cursor));
  if (stored != computed) {
    fail("CRC mismatch at offset " + std::to_string(cursor) + " (stored " +
         std::to_string(stored) + ", computed " + std::to_string(computed) +
         ")");
  }
  return view;
}

// ---------------------------------------------------------------------------
// Whole-method encoders
// ---------------------------------------------------------------------------

namespace {

std::string checked_key(const SignatureMethod& method) {
  const std::string key = method.codec_key();
  if (key.empty()) {
    throw std::logic_error(method.name() +
                           ": method does not support the model codec");
  }
  if (!method.trained()) {
    throw std::logic_error(method.name() +
                           ": cannot serialize an untrained method");
  }
  return key;
}

}  // namespace

std::string encode_text(const SignatureMethod& method) {
  const std::string key = checked_key(method);
  TextSink sink;
  method.save(sink);
  return text_header(key) + sink.body();
}

std::vector<std::uint8_t> encode_binary(const SignatureMethod& method) {
  const std::string key = checked_key(method);
  BinarySink sink;
  method.save(sink);
  return frame_record(key, sink.body());
}

}  // namespace csm::core::codec
