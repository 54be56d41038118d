#include "core/model_codec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/crc32_kernels.hpp"
#include "core/pipeline.hpp"
#include "core/training.hpp"

namespace csm::core::codec {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

// A representative field sequence exercising all four field types.
void write_sample(Sink& sink) {
  sink.u64("count", 42);
  sink.f64("scale", 0.1);
  sink.u64_array("perm", std::vector<std::uint64_t>{3, 1, 4, 1, 5});
  sink.f64_array("bounds",
                 std::vector<double>{-1.5, 0.0, 2.5e-308, 1.7e308});
}

void read_sample(Source& in) {
  EXPECT_EQ(in.u64("count"), 42u);
  EXPECT_EQ(in.f64("scale"), 0.1);
  EXPECT_EQ(in.u64_array("perm"),
            (std::vector<std::uint64_t>{3, 1, 4, 1, 5}));
  EXPECT_EQ(in.f64_array("bounds"),
            (std::vector<double>{-1.5, 0.0, 2.5e-308, 1.7e308}));
  in.finish();
}

TEST(Crc32, MatchesKnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  // The sliced implementation must agree with the plain bitwise definition
  // on every length around the 8-byte fold boundary.
  const std::string base = "0123456789abcdefghij";
  for (std::size_t len = 0; len <= base.size(); ++len) {
    std::uint32_t bitwise = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
      bitwise ^= static_cast<std::uint8_t>(base[i]);
      for (int k = 0; k < 8; ++k) {
        bitwise = (bitwise & 1) ? 0xEDB88320u ^ (bitwise >> 1)
                                : (bitwise >> 1);
      }
    }
    bitwise ^= 0xFFFFFFFFu;
    EXPECT_EQ(crc32(bytes_of(base.substr(0, len))), bitwise)
        << "length " << len;
  }
}

// One CRC kernel under test: its name and the function.
struct CrcKernel {
  const char* name;
  std::uint32_t (*fn)(std::span<const std::uint8_t>, std::uint32_t) noexcept;
};

// Every kernel this build compiled that this CPU can run.
std::vector<CrcKernel> crc_kernels() {
  std::vector<CrcKernel> kernels = {{"slicing8", &detail::crc32_slicing8}};
#if CSM_CRC32_PCLMUL
  if (detail::has_pclmul()) {
    kernels.push_back({"pclmul", &detail::crc32_pclmul});
  }
#endif
  return kernels;
}

// The bitwise definition: advances the raw (un-finalised) register by one
// byte.
std::uint32_t crc_bitwise_step(std::uint32_t crc, std::uint8_t byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k) {
    crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
  }
  return crc;
}

TEST(Crc32, EveryKernelMatchesTheBitwiseReference) {
  common::Rng rng(0xc4c32);
  std::vector<std::uint8_t> buf(4096 + 16);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  for (const CrcKernel& kernel : crc_kernels()) {
    SCOPED_TRACE(kernel.name);
    // Every start offset mod 16, every length 0..4096, from a zero prior
    // and a random one. The reference extends one byte per length, so it
    // stays linear in the buffer size.
    for (std::size_t offset = 0; offset < 16; ++offset) {
      const std::uint32_t priors[] = {
          0u, static_cast<std::uint32_t>(rng.next())};
      for (const std::uint32_t prior : priors) {
        std::uint32_t raw = prior ^ 0xFFFFFFFFu;
        std::size_t mismatches = 0;
        for (std::size_t len = 0; len <= 4096; ++len) {
          if (len > 0) raw = crc_bitwise_step(raw, buf[offset + len - 1]);
          const std::uint32_t got =
              kernel.fn({buf.data() + offset, len}, prior);
          if (got != (raw ^ 0xFFFFFFFFu) && mismatches++ < 5) {
            ADD_FAILURE() << "offset " << offset << ", length " << len
                          << ", prior " << prior;
          }
        }
        EXPECT_EQ(mismatches, 0u) << "offset " << offset;
      }
    }
  }
}

TEST(Crc32, ChunkedEqualsWholeAtEverySplit) {
  common::Rng rng(300);
  std::vector<std::uint8_t> buf(300);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  const std::span<const std::uint8_t> all(buf);
  const std::uint32_t whole = crc32(all);
  for (const CrcKernel& kernel : crc_kernels()) {
    EXPECT_EQ(kernel.fn(all, 0), whole) << kernel.name;
  }
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    EXPECT_EQ(crc32(all.subspan(split), crc32(all.first(split))), whole)
        << "split " << split;
    for (const CrcKernel& kernel : crc_kernels()) {
      EXPECT_EQ(kernel.fn(all.subspan(split), kernel.fn(all.first(split), 0)),
                whole)
          << kernel.name << ", split " << split;
    }
  }
}

TEST(TextCodec, RoundTripsAllFieldTypes) {
  TextSink sink;
  write_sample(sink);
  TextSource in(sink.body());
  read_sample(in);
}

TEST(TextCodec, DoublesRoundTripExactly) {
  // %.17g must reproduce every finite double bit-exactly, including
  // negative zero and subnormals.
  const std::vector<double> values = {
      0.1, -0.0, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::max()};
  TextSink sink;
  sink.f64_array("v", values);
  TextSource in(sink.body());
  const std::vector<double> back = in.f64_array("v");
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]));
  }
}

TEST(TextCodec, RoundTripIsLocaleIndependent) {
  // The text form is a transport format: an embedding application that
  // setlocale()s into a comma-decimal locale must still write '.'-radix
  // models and parse models written elsewhere. Skipped when no
  // comma-decimal locale is installed on the host or could be compiled into
  // the build tree.
  struct ScopedNumericLocale {
    std::string saved = std::setlocale(LC_NUMERIC, nullptr);
    ~ScopedNumericLocale() { std::setlocale(LC_NUMERIC, saved.c_str()); }
  } guard;
  const char* comma = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (comma == nullptr) comma = std::setlocale(LC_NUMERIC, "de_DE.utf8");
  if (comma == nullptr) comma = std::setlocale(LC_NUMERIC, "fr_FR.UTF-8");
#ifdef CSM_TEST_LOCALE_DIR
  if (comma == nullptr) {
    // The de_DE.UTF-8 that tests/CMakeLists.txt compiled into the build
    // tree. glibc reads LOCPATH on every setlocale call.
    const char* env = std::getenv("LOCPATH");
    const std::optional<std::string> locpath =
        env ? std::optional<std::string>(env) : std::nullopt;
    ::setenv("LOCPATH", CSM_TEST_LOCALE_DIR, 1);
    comma = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
    if (locpath) {
      ::setenv("LOCPATH", locpath->c_str(), 1);
    } else {
      ::unsetenv("LOCPATH");
    }
  }
#endif
  if (comma == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  std::array<char, 8> probe{};
  std::snprintf(probe.data(), probe.size(), "%.1f", 0.5);
  if (probe[1] != ',') {
    GTEST_SKIP() << "locale " << comma << " does not use a comma radix";
  }

  TextSink sink;
  write_sample(sink);
  const std::string body = sink.body();
  EXPECT_EQ(body.find(','), std::string::npos);
  EXPECT_NE(body.find("0.1"), std::string::npos);
  TextSource in(body);
  read_sample(in);
}

TEST(TextCodec, SourceNamesTheOffendingField) {
  {
    TextSource in("");
    EXPECT_THROW((void)in.u64("count"), std::runtime_error);
  }
  {
    TextSource in("wrong 1\n");
    try {
      (void)in.u64("count");
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("\"count\""), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("\"wrong\""), std::string::npos);
    }
  }
  {
    TextSource in("count x\n");
    EXPECT_THROW((void)in.u64("count"), std::runtime_error);
  }
  {
    TextSource in("scale nope\n");
    EXPECT_THROW((void)in.f64("scale"), std::runtime_error);
  }
  {
    // Truncated array payload: count says 3, two values follow.
    TextSource in("perm 3 1 2\n");
    EXPECT_THROW((void)in.u64_array("perm"), std::runtime_error);
  }
  {
    TextSource in("count 1\nextra 2\n");
    EXPECT_EQ(in.u64("count"), 1u);
    EXPECT_THROW(in.finish(), std::runtime_error);
  }
}

TEST(TextCodec, RejectsAbsurdElementCounts) {
  TextSource in("perm 999999999999 1\n");
  try {
    (void)in.u64_array("perm");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the element cap"),
              std::string::npos);
  }
}

TEST(BinaryCodec, RoundTripsAllFieldTypes) {
  BinarySink sink;
  write_sample(sink);
  BinarySource in(sink.body());
  read_sample(in);
}

TEST(BinaryCodec, PreservesEveryDoubleBitPattern) {
  const std::vector<double> values = {
      -0.0, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min()};
  BinarySink sink;
  sink.f64_array("v", values);
  BinarySource in(sink.body());
  const std::vector<double> back = in.f64_array("v");
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]));
  }
}

TEST(BinaryCodec, FlagAndSizeHelpers) {
  BinarySink sink;
  sink.flag("on", true);
  sink.flag("off", false);
  sink.size("n", 7);
  sink.sizes("dims", std::vector<std::size_t>{2, 3});
  BinarySource in(sink.body());
  EXPECT_TRUE(in.flag("on"));
  EXPECT_FALSE(in.flag("off"));
  EXPECT_EQ(in.size("n"), 7u);
  EXPECT_EQ(in.sizes("dims"), (std::vector<std::size_t>{2, 3}));
  in.finish();
}

TEST(BinaryCodec, FlagRejectsNonBoolean) {
  BinarySink sink;
  sink.u64("maybe", 2);
  BinarySource in(sink.body());
  EXPECT_THROW((void)in.flag("maybe"), std::runtime_error);
}

TEST(BinaryCodec, NameAndTypeMismatchesCarryOffsets) {
  BinarySink sink;
  sink.u64("count", 1);
  {
    BinarySource in(sink.body());
    try {
      (void)in.u64("other");
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("\"other\""), std::string::npos);
      EXPECT_NE(what.find("\"count\""), std::string::npos);
      EXPECT_NE(what.find("offset 0"), std::string::npos);
    }
  }
  {
    // Same name, wrong type: a u64 field read as f64.
    BinarySource in(sink.body());
    try {
      (void)in.f64("count");
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("has type u64"), std::string::npos);
      EXPECT_NE(what.find("expected f64"), std::string::npos);
    }
  }
}

TEST(BinaryCodec, TruncationAtEveryBodyPrefixThrows) {
  BinarySink sink;
  write_sample(sink);
  const std::vector<std::uint8_t>& body = sink.body();
  for (std::size_t len = 0; len < body.size(); ++len) {
    BinarySource in({body.data(), len});
    EXPECT_THROW(
        {
          (void)in.u64("count");
          (void)in.f64("scale");
          (void)in.u64_array("perm");
          (void)in.f64_array("bounds");
          in.finish();
        },
        std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(BinaryCodec, RejectsAbsurdElementCounts) {
  // Hand-build a u64[] field header whose count exceeds kMaxFieldElements.
  std::vector<std::uint8_t> body = {3, 4, 'p', 'e', 'r', 'm'};
  const std::uint32_t count = 0x7FFFFFFFu;
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<std::uint8_t>(count >> (8 * i)));
  }
  BinarySource in(body);
  try {
    (void)in.u64_array("perm");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the element cap"),
              std::string::npos);
  }
}

TEST(BinaryCodec, RejectsScalarWithArrayCount) {
  // A scalar u64 field whose count field says 0.
  std::vector<std::uint8_t> body = {1, 1, 'n', 0, 0, 0, 0};
  BinarySource in(body);
  try {
    (void)in.u64("n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scalar field"), std::string::npos);
  }
}

TEST(BinaryCodec, FinishRejectsTrailingBytes) {
  BinarySink sink;
  sink.u64("n", 1);
  std::vector<std::uint8_t> body = sink.body();
  body.push_back(0);
  BinarySource in(body);
  EXPECT_EQ(in.u64("n"), 1u);
  EXPECT_THROW(in.finish(), std::runtime_error);
}

TEST(RecordFraming, RoundTripsAndSniffs) {
  BinarySink sink;
  write_sample(sink);
  const std::vector<std::uint8_t> record = frame_record("cs", sink.body());
  EXPECT_TRUE(is_binary_record(record));
  EXPECT_FALSE(is_binary_record(bytes_of("csmethod v2 cs\n")));
  EXPECT_FALSE(is_binary_record({}));

  const RecordView view = parse_record(record);
  EXPECT_EQ(view.version, kBinaryVersion);
  EXPECT_EQ(view.key, "cs");
  BinarySource in(view.body, view.body_offset);
  read_sample(in);
}

TEST(RecordFraming, TruncationAtEveryPrefixThrows) {
  BinarySink sink;
  write_sample(sink);
  const std::vector<std::uint8_t> record = frame_record("cs", sink.body());
  for (std::size_t len = 0; len < record.size(); ++len) {
    EXPECT_THROW((void)parse_record({record.data(), len}), std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(RecordFraming, EveryCorruptByteFailsTheCrc) {
  BinarySink sink;
  sink.u64("n", 5);
  std::vector<std::uint8_t> record = frame_record("cs", sink.body());
  // Flipping any single bit anywhere in the record must be detected —
  // either by a framing check or, at the latest, by the CRC.
  for (std::size_t i = 0; i < record.size(); ++i) {
    std::vector<std::uint8_t> corrupt = record;
    corrupt[i] ^= 0x01;
    EXPECT_THROW((void)parse_record(corrupt), std::runtime_error)
        << "byte " << i;
  }
}

TEST(RecordFraming, RejectsWrongVersionByte) {
  BinarySink sink;
  sink.u64("n", 5);
  std::vector<std::uint8_t> record = frame_record("cs", sink.body());
  record[4] = 9;
  try {
    (void)parse_record(record);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what())
                  .find("unsupported binary model version 9"),
              std::string::npos);
  }
}

TEST(RecordFraming, RejectsTrailingBytesAfterCrc) {
  BinarySink sink;
  sink.u64("n", 5);
  std::vector<std::uint8_t> record = frame_record("cs", sink.body());
  record.push_back(0);
  try {
    (void)parse_record(record);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes after record CRC"),
              std::string::npos);
  }
}

TEST(RecordFraming, HugeDeclaredBodyLenIsTruncationNotWrap) {
  // body_len is an untrusted u32, so `body_len + 4` must be computed in 64
  // bits: on a 32-bit size_t, a declared 0xFFFFFFFF wraps to 3, and a
  // record with exactly 3 bytes left would pass both length checks and run
  // the body subspan out of bounds.
  std::vector<std::uint8_t> record = {'C', 'S', 'M', 'B', kBinaryVersion,
                                      1,   'k', 0xFF, 0xFF, 0xFF, 0xFF};
  record.resize(record.size() + 3, 0);  // remaining == wrapped body_len + 4.
  try {
    (void)parse_record(record);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated record body"),
              std::string::npos);
  }
}

TEST(RecordFraming, RejectsBadMagicAndKeys) {
  EXPECT_THROW((void)parse_record(bytes_of("nope")), std::runtime_error);
  EXPECT_THROW((void)frame_record("", {}), std::logic_error);
  EXPECT_THROW((void)frame_record(std::string(300, 'k'), {}),
               std::logic_error);
}

common::Matrix wave_matrix(std::size_t n, std::size_t t) {
  common::Rng rng(7);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.04 * static_cast<double>(c) +
                         0.5 * static_cast<double>(r)) +
                0.1 * rng.gaussian();
    }
  }
  return s;
}

TEST(TextCodec, HostileArrayCountFailsWithoutAmplification) {
  // fuzz/regressions/model-text/count-amplification.csmt: a ~20-byte body
  // declaring 2^26 - 1 array elements used to reserve count * 8 bytes
  // (512 MB) before the first element parsed. The up-front reserve is now
  // clamped and the parse still fails on the missing elements.
  TextSource f64s("means 67108863 0.5\n");
  EXPECT_THROW((void)f64s.f64_array("means"), std::runtime_error);
  TextSource u64s("perm 67108863 1\n");
  EXPECT_THROW((void)u64s.u64_array("perm"), std::runtime_error);
}

TEST(TextCodec, CountsAboveTheReserveClampStillParse) {
  // The clamp only bounds the speculative reserve — real arrays larger than
  // it must still decode completely.
  std::string body = "vals 8192";
  for (int i = 0; i < 8192; ++i) body += " 1.5";
  body += "\n";
  TextSource in(body);
  const std::vector<double> vals = in.f64_array("vals");
  ASSERT_EQ(vals.size(), 8192u);
  EXPECT_EQ(vals.front(), 1.5);
  EXPECT_EQ(vals.back(), 1.5);
}

TEST(Encoders, TextAndBinaryCarryTheSameFields) {
  const auto pipeline = std::make_shared<const CsPipeline>(
      train(wave_matrix(6, 120)), CsOptions{});
  const CsSignatureMethod method(pipeline);
  const std::string text = encode_text(method);
  EXPECT_EQ(text.rfind(text_header("cs"), 0), 0u);

  const std::vector<std::uint8_t> record = encode_binary(method);
  const RecordView view = parse_record(record);
  EXPECT_EQ(view.key, "cs");

  // The two back-ends must describe identical fields: re-encoding the
  // binary body through a TextSink is exactly the text body.
  BinarySource in(view.body, view.body_offset);
  TextSink re;
  re.size("blocks", in.size("blocks"));
  re.flag("real-only", in.flag("real-only"));
  re.sizes("perm", in.sizes("perm"));
  re.f64_array("lo", in.f64_array("lo"));
  re.f64_array("hi", in.f64_array("hi"));
  in.finish();
  EXPECT_EQ(text_header("cs") + re.body(), text);
}

TEST(Encoders, RejectUntrainedMethods) {
  const CsSignatureMethod untrained{CsOptions{}};
  EXPECT_THROW((void)encode_text(untrained), std::logic_error);
  EXPECT_THROW((void)encode_binary(untrained), std::logic_error);
}

}  // namespace
}  // namespace csm::core::codec
