#include "core/method_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/model_codec.hpp"
#include "core/pipeline.hpp"

namespace csm::core {
namespace {

common::Matrix wave_matrix(std::size_t n, std::size_t t) {
  common::Rng rng(99);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.05 * static_cast<double>(c) +
                         0.7 * static_cast<double>(r)) +
                0.1 * rng.gaussian();
    }
  }
  return s;
}

MethodRegistry cs_registry() {
  MethodRegistry r;
  register_cs_method(r);
  return r;
}

TEST(MethodSpec, ParsesBareName) {
  const MethodSpec spec = MethodSpec::parse("tuncer");
  EXPECT_EQ(spec.name, "tuncer");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_EQ(spec.to_string(), "tuncer");
}

TEST(MethodSpec, ParsesParamsAndFlags) {
  const MethodSpec spec = MethodSpec::parse("cs:blocks=20,real-only");
  EXPECT_EQ(spec.name, "cs");
  EXPECT_EQ(spec.get_size_t("blocks", 0), 20u);
  EXPECT_TRUE(spec.get_flag("real-only"));
  EXPECT_FALSE(spec.get_flag("absent"));
  EXPECT_EQ(spec.to_string(), "cs:blocks=20,real-only");
}

TEST(MethodSpec, NormalisesCaseAndWhitespace) {
  const MethodSpec spec = MethodSpec::parse("  CS : Blocks = 20 ");
  EXPECT_EQ(spec.name, "cs");
  EXPECT_EQ(spec.get("blocks"), "20");
}

TEST(MethodSpec, ExplicitBooleanValues) {
  EXPECT_FALSE(MethodSpec::parse("cs:real-only=0").get_flag("real-only"));
  EXPECT_TRUE(MethodSpec::parse("cs:real-only=true").get_flag("real-only"));
  EXPECT_THROW(MethodSpec::parse("cs:real-only=maybe").get_flag("real-only"),
               std::invalid_argument);
}

TEST(MethodSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(MethodSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse(":blocks=2"), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse("cs!"), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse("cs:,"), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse("cs:=5"), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse("cs:blocks=1,blocks=2"),
               std::invalid_argument);
}

TEST(MethodSpec, RejectsNonNumericValues) {
  const MethodSpec spec = MethodSpec::parse("cs:blocks=many");
  EXPECT_THROW(spec.get_size_t("blocks", 0), std::invalid_argument);
}

TEST(MethodSpec, ExpectOnlyNamesTheOffendingKey) {
  const MethodSpec spec = MethodSpec::parse("cs:blocs=20");
  try {
    spec.expect_only({"blocks", "real-only"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("blocs"), std::string::npos);
  }
}

TEST(MethodRegistry, RejectsDuplicateAndUnknownKeys) {
  MethodRegistry registry = cs_registry();
  EXPECT_TRUE(registry.contains("cs"));
  EXPECT_THROW(register_cs_method(registry), std::invalid_argument);
  try {
    (void)registry.create("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    EXPECT_NE(what.find("cs"), std::string::npos);  // Lists known keys.
  }
}

TEST(MethodRegistry, CreateRejectsUnknownParameters) {
  const MethodRegistry registry = cs_registry();
  EXPECT_THROW((void)registry.create("cs:bogus=1"), std::invalid_argument);
}

TEST(MethodRegistry, CsPrototypeLifecycle) {
  const MethodRegistry registry = cs_registry();
  const auto prototype = registry.create("cs:blocks=6,real-only");
  EXPECT_EQ(prototype->name(), "CS-6-R");
  EXPECT_FALSE(prototype->trained());
  EXPECT_EQ(prototype->n_sensors(), 0u);
  EXPECT_EQ(prototype->signature_length(12), 6u);  // Real-only: l, not 2l.
  const common::Matrix window = wave_matrix(8, 30);
  EXPECT_THROW((void)prototype->compute(window), std::logic_error);
  EXPECT_THROW((void)codec::encode_binary(*prototype), std::logic_error);

  const auto trained = prototype->fit(wave_matrix(8, 200));
  EXPECT_TRUE(trained->trained());
  EXPECT_EQ(trained->n_sensors(), 8u);
  EXPECT_EQ(trained->compute(window).size(), 6u);
}

TEST(MethodRegistry, CsRecordRoundTripsExactly) {
  const MethodRegistry registry = cs_registry();
  const common::Matrix history = wave_matrix(7, 150);
  const auto trained = registry.create("cs:blocks=3")->fit(history);
  const std::vector<std::uint8_t> record = codec::encode_binary(*trained);
  const auto revived = registry.decode(record);
  EXPECT_EQ(revived->name(), trained->name());
  EXPECT_EQ(codec::encode_binary(*revived), record);
  const common::Matrix window = wave_matrix(7, 25);
  EXPECT_EQ(revived->compute(window), trained->compute(window));
}

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

// Expects `record` to be refused with a std::runtime_error whose message
// contains `needle`, so each case pins the check that fires.
void expect_rejected(const MethodRegistry& registry,
                     std::span<const std::uint8_t> record,
                     const std::string& needle) {
  try {
    (void)registry.decode(record);
    FAIL() << "accepted a " << record.size() << "-byte record";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" does not contain " << needle;
  }
}

TEST(MethodRegistry, DecodeRejectsMalformedRecords) {
  const MethodRegistry registry = cs_registry();
  expect_rejected(registry, bytes_of("garbage"), "bad magic");
  // Text models of earlier releases are no model format.
  expect_rejected(registry, bytes_of("csmethod v2 cs\nblocks 3\n"),
                  "bad magic");
  expect_rejected(registry, codec::frame_record("cs", {}),
                  "truncated field header for \"blocks\"");
  expect_rejected(registry, codec::frame_record("unknown", {}),
                  "unknown method tag");
  // Well-formed record, malformed CS body. The CsModel checks behind the
  // codec (permutation, finite bounds, trailing data, element cap) are
  // pinned by CsModel.DecodeRejectsStructurallyInvalidBodies.
  codec::BinarySink wrong_type;
  wrong_type.f64("blocks", 3.0);
  expect_rejected(registry, codec::frame_record("cs", wrong_type.body()),
                  "has type f64, expected u64");
}

TEST(MethodRegistry, FileRoundTripsThroughSaveAndLoad) {
  const MethodRegistry registry = cs_registry();
  const auto trained = registry.create("cs:blocks=3")->fit(wave_matrix(5, 90));
  const common::Matrix window = wave_matrix(5, 25);
  const auto file = std::filesystem::path(testing::TempDir()) /
                    "csm_method_registry_test.csmb";
  save_method(*trained, file);
  const auto back = registry.load(file);
  EXPECT_EQ(codec::encode_binary(*back), codec::encode_binary(*trained));
  EXPECT_EQ(back->compute(window), trained->compute(window));
  std::filesystem::remove(file);
}

// A file that does not decode is named in the error, whatever the defect:
// `csmcli pack` over a directory of models reports which one is bad.
TEST(MethodRegistry, LoadNamesTheFileInEveryError) {
  const MethodRegistry registry = cs_registry();
  const std::vector<std::uint8_t> record = codec::encode_binary(
      *registry.create("cs:blocks=2")->fit(wave_matrix(4, 60)));
  const auto dir = std::filesystem::path(testing::TempDir());
  struct Case {
    std::string name;
    std::vector<std::uint8_t> bytes;
    std::string needle;
  };
  const Case cases[] = {
      {"truncated.csmb", {record.begin(), record.begin() + 3}, "bad magic"},
      {"cut.csmb", {record.begin(), record.end() - 5}, "truncated"},
      {"text.csm",
       bytes_of("csmethod v2 cs\nblocks 2\nreal-only 0\nperm 1 0\n"),
       "bad magic"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto file = dir / ("csm_method_registry_test_" + c.name);
    std::ofstream(file, std::ios::binary)
        .write(reinterpret_cast<const char*>(c.bytes.data()),
               static_cast<std::streamsize>(c.bytes.size()));
    try {
      (void)registry.load(file);
      FAIL() << "loaded " << file;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(file.string()), std::string::npos) << what;
      EXPECT_NE(what.find(c.needle), std::string::npos) << what;
    }
    std::filesystem::remove(file);
  }
}

TEST(MethodRegistry, LoadMissingFileThrows) {
  const MethodRegistry registry = cs_registry();
  EXPECT_THROW((void)registry.load("/nonexistent/method.csmb"),
               std::runtime_error);
}

}  // namespace
}  // namespace csm::core
