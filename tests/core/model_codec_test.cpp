#include "core/model_codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

TEST(TextSink, ListsOneLinePerField) {
  TextSink sink;
  sink.u64("count", 42);
  sink.f64("scale", 0.5);
  sink.u64_array("perm", std::vector<std::uint64_t>{3, 1, 4});
  sink.f64_array("bounds", std::vector<double>{-1.5, 0.0, 2.0});
  sink.f64_array("empty", {});
  EXPECT_EQ(sink.body(),
            "count 42\nscale 0.5\nperm 3 3 1 4\nbounds 3 -1.5 0 2\n"
            "empty 0\n");
}

TEST(TextSink, PrintsEveryDoubleExactly) {
  // %.17g reproduces every finite double, so the listing shows the model
  // as stored, not a rounding of it.
  TextSink sink;
  sink.f64("third", 1.0 / 3.0);
  sink.f64("tiny", std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(sink.body(),
            "third 0.33333333333333331\ntiny 4.9406564584124654e-324\n");
}

TEST(BinaryCodec, RoundTripsAllFieldTypes) {
  BinarySink sink;
  write_sample(sink);
  Source in(sink.body());
  read_sample(in);
}

TEST(BinaryCodec, PreservesEveryDoubleBitPattern) {
  const std::vector<double> values = {
      -0.0, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min()};
  BinarySink sink;
  sink.f64_array("v", values);
  Source in(sink.body());
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
  Source in(sink.body());
  EXPECT_TRUE(in.flag("on"));
  EXPECT_FALSE(in.flag("off"));
  EXPECT_EQ(in.size("n"), 7u);
  EXPECT_EQ(in.sizes("dims"), (std::vector<std::size_t>{2, 3}));
  in.finish();
}

TEST(BinaryCodec, FlagRejectsNonBoolean) {
  BinarySink sink;
  sink.u64("maybe", 2);
  Source in(sink.body());
  EXPECT_THROW((void)in.flag("maybe"), std::runtime_error);
}

TEST(BinaryCodec, NameAndTypeMismatchesCarryOffsets) {
  BinarySink sink;
  sink.u64("count", 1);
  {
    Source in(sink.body());
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
    Source in(sink.body());
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
    Source in({body.data(), len});
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
  Source in(body);
  try {
    (void)in.u64_array("perm");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the element cap"),
              std::string::npos);
  }
}

TEST(BinaryCodec, HostileArrayCountFailsWithoutAmplification) {
  // A ~20-byte body declaring 2^26 - 1 elements, just under the cap, must
  // fail on the missing payload before anything reserves count * 8 bytes
  // (512 MB).
  for (const std::uint8_t type : {std::uint8_t{3}, std::uint8_t{4}}) {
    std::vector<std::uint8_t> body = {type, 5, 'm', 'e', 'a', 'n', 's'};
    const std::uint32_t count = (1u << 26) - 1;
    for (int i = 0; i < 4; ++i) {
      body.push_back(static_cast<std::uint8_t>(count >> (8 * i)));
    }
    body.insert(body.end(), 8, 0);  // One element of the 2^26 - 1.
    Source in(body);
    try {
      if (type == 3) {
        (void)in.u64_array("means");
      } else {
        (void)in.f64_array("means");
      }
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated field \"means\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BinaryCodec, LargeArraysDecodeCompletely) {
  // The count-vs-bytes check must pass an array that exactly fills the
  // rest of the body, and fail it once a byte is missing.
  std::vector<double> values(8192);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.5 * static_cast<double>(i);
  }
  BinarySink sink;
  sink.f64_array("vals", values);
  Source in(sink.body());
  EXPECT_EQ(in.f64_array("vals"), values);
  in.finish();

  Source cut({sink.body().data(), sink.body().size() - 1});
  EXPECT_THROW((void)cut.f64_array("vals"), std::runtime_error);
}

TEST(BinaryCodec, RejectsScalarWithArrayCount) {
  // A scalar u64 field whose count field says 0.
  std::vector<std::uint8_t> body = {1, 1, 'n', 0, 0, 0, 0};
  Source in(body);
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
  Source in(body);
  EXPECT_EQ(in.u64("n"), 1u);
  EXPECT_THROW(in.finish(), std::runtime_error);
}

TEST(RecordFraming, RoundTrips) {
  BinarySink sink;
  write_sample(sink);
  const std::vector<std::uint8_t> record = frame_record("cs", sink.body());
  const RecordView view = parse_record(record);
  EXPECT_EQ(view.version, kBinaryVersion);
  EXPECT_EQ(view.key, "cs");
  Source in(view.body, view.body_offset);
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
  // Text models of earlier releases, short and empty inputs: bad magic.
  for (const std::string_view bytes :
       {std::string_view("csmethod v2 cs\nblocks 0\n"),
        std::string_view("nope"), std::string_view("CSM"),
        std::string_view()}) {
    try {
      (void)parse_record(bytes_of(bytes));
      FAIL() << "accepted \"" << bytes << "\"";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
          << e.what();
    }
  }
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

TEST(Encoders, RecordCarriesTheSavedFields) {
  const auto pipeline = std::make_shared<const CsPipeline>(
      train(wave_matrix(6, 120)), CsOptions{});
  const CsSignatureMethod method(pipeline);
  const std::vector<std::uint8_t> record = encode_binary(method);
  const RecordView view = parse_record(record);
  EXPECT_EQ(view.key, "cs");

  // The record body is exactly what save() wrote, and the listing shows
  // the same fields in the same order.
  BinarySink saved;
  method.save(saved);
  EXPECT_EQ(record, frame_record("cs", saved.body()));
  Source in(view.body, view.body_offset);
  TextSink relisted;
  relisted.size("blocks", in.size("blocks"));
  relisted.flag("real-only", in.flag("real-only"));
  relisted.sizes("perm", in.sizes("perm"));
  relisted.f64_array("lo", in.f64_array("lo"));
  relisted.f64_array("hi", in.f64_array("hi"));
  in.finish();
  TextSink listed;
  method.save(listed);
  EXPECT_EQ(relisted.body(), listed.body());
}

TEST(Encoders, RejectUntrainedMethods) {
  const CsSignatureMethod untrained{CsOptions{}};
  EXPECT_THROW((void)encode_binary(untrained), std::logic_error);
}

}  // namespace
}  // namespace csm::core::codec
