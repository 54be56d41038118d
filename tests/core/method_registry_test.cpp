#include "core/method_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "common/rng.hpp"
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
  EXPECT_THROW((void)prototype->serialize(), std::logic_error);

  const auto trained = prototype->fit(wave_matrix(8, 200));
  EXPECT_TRUE(trained->trained());
  EXPECT_EQ(trained->n_sensors(), 8u);
  EXPECT_EQ(trained->compute(window).size(), 6u);
}

TEST(MethodRegistry, CsSerializeRoundTripsExactly) {
  const MethodRegistry registry = cs_registry();
  const common::Matrix history = wave_matrix(7, 150);
  const auto trained = registry.create("cs:blocks=3")->fit(history);
  const auto revived = registry.deserialize(trained->serialize());
  EXPECT_EQ(revived->name(), trained->name());
  const common::Matrix window = wave_matrix(7, 25);
  EXPECT_EQ(revived->compute(window), trained->compute(window));
}

// Expects `text` to be refused with a std::runtime_error whose message
// contains `needle`, so each case pins the check that fires.
void expect_rejected(const MethodRegistry& registry, const std::string& text,
                     const std::string& needle) {
  try {
    (void)registry.deserialize(text);
    FAIL() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" does not contain " << needle;
  }
}

TEST(MethodRegistry, DeserializeRejectsMalformedText) {
  const MethodRegistry registry = cs_registry();
  expect_rejected(registry, "garbage", "bad header");
  expect_rejected(registry, "csmethod v2 cs\n", "missing field");
  expect_rejected(registry, "csmethod v2 unknown\nbody", "unknown method tag");
  // Only v2 text is a model format.
  expect_rejected(registry,
                  "csmethod v1 cs\nblocks 3\nreal-only 0\ncsmodel v1\n1\n"
                  "0 0 1\n",
                  "bad header");
  // Well-formed header, malformed CS body. The CsModel checks behind the
  // codec (permutation, finite bounds, trailing data, element cap) are
  // pinned by CsModel.DeserializeRejectsStructurallyInvalidBodies.
  expect_rejected(registry, "csmethod v2 cs\nblocks x\n",
                  "not an unsigned integer");
}

TEST(MethodRegistry, FileRoundTripsInBothFormats) {
  const MethodRegistry registry = cs_registry();
  const auto trained = registry.create("cs:blocks=3")->fit(wave_matrix(5, 90));
  const common::Matrix window = wave_matrix(5, 25);
  for (const codec::ModelFormat format :
       {codec::ModelFormat::kText, codec::ModelFormat::kBinary}) {
    const auto file = std::filesystem::path(testing::TempDir()) /
                      "csm_method_registry_test.model";
    save_method(*trained, file, format);
    const auto back = registry.load(file);
    EXPECT_EQ(back->serialize(), trained->serialize());
    EXPECT_EQ(back->compute(window), trained->compute(window));
    std::filesystem::remove(file);
  }
}

TEST(MethodRegistry, LoadMissingFileThrows) {
  const MethodRegistry registry = cs_registry();
  EXPECT_THROW((void)registry.load("/nonexistent/method.csm"),
               std::runtime_error);
}

}  // namespace
}  // namespace csm::core
