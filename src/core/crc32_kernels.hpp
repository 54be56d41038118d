// The CRC-32 kernels behind core::codec::crc32, one function per compiled
// path, so the property test can check each against a bitwise reference.
// Library code calls codec::crc32, which picks a kernel once per process by
// CPU detection; there is no option or environment variable to choose one.
//
// Every kernel computes the same IEEE 802.3 CRC (reflected polynomial
// 0xEDB88320) with codec::crc32's incremental contract: `prior` is an
// earlier result (0 starts afresh) and crc(b, crc(a)) == crc(a ++ b). So
// the kernels are interchangeable byte for byte, and mixing them across
// the chunks of one stream gives the same checksum.
#pragma once

#include <cstdint>
#include <span>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CSM_CRC32_PCLMUL 1
#else
#define CSM_CRC32_PCLMUL 0
#endif

namespace csm::core::codec::detail {

/// Portable slicing-by-8: the fallback, the arm64 path and the test oracle.
std::uint32_t crc32_slicing8(std::span<const std::uint8_t> data,
                             std::uint32_t prior) noexcept;

#if CSM_CRC32_PCLMUL
/// True when this CPU has the carry-less multiply crc32_pclmul needs.
bool has_pclmul() noexcept;

/// Carry-less-multiply folding (x86-64 PCLMULQDQ) over inputs of 64 bytes
/// or more, four 16-byte lanes at a time; the tail of fewer than 16 bytes,
/// and every shorter input, goes through the slicing-by-8 table. Only call
/// it when has_pclmul() is true.
std::uint32_t crc32_pclmul(std::span<const std::uint8_t> data,
                           std::uint32_t prior) noexcept;
#endif

}  // namespace csm::core::codec::detail
