#include "baselines/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "baselines/pca.hpp"
#include "common/rng.hpp"
#include "core/method_stream.hpp"

namespace csm::baselines {
namespace {

using core::MethodRegistry;
using core::SignatureMethod;

common::Matrix wave_matrix(std::size_t n, std::size_t t, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.04 * static_cast<double>(c) +
                         0.9 * static_cast<double>(r)) +
                0.07 * rng.gaussian();
    }
  }
  return s;
}

// One representative spec per registered method, exercising parameters.
const std::map<std::string, std::string>& example_specs() {
  static const std::map<std::string, std::string> specs = {
      {"cs", "cs:blocks=4,real-only"}, {"tuncer", "tuncer"},
      {"bodik", "bodik"},              {"lan", "lan:wr=6"},
      {"pca", "pca:components=3"},
  };
  return specs;
}

TEST(DefaultRegistry, ContainsTheFullLineUp) {
  const MethodRegistry& registry = default_registry();
  EXPECT_EQ(registry.size(), 5u);
  for (const char* key : {"cs", "tuncer", "bodik", "lan", "pca"}) {
    EXPECT_TRUE(registry.contains(key)) << key;
  }
  // Every registered method has an example spec in this test.
  for (const std::string& key : registry.keys()) {
    EXPECT_TRUE(example_specs().count(key))
        << "add an example spec for new method \"" << key << "\"";
  }
}

TEST(DefaultRegistry, EverySpecRoundTripsParseFitSerializeDeserialize) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(7, 180, 10);
  const common::Matrix window = wave_matrix(7, 30, 11);

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    const core::MethodSpec spec = core::MethodSpec::parse(spec_text);
    EXPECT_EQ(spec.name, key);

    const auto trained = registry.create(spec)->fit(history);
    ASSERT_TRUE(trained->trained());
    const std::vector<double> reference = trained->compute(window);
    EXPECT_EQ(reference.size(), trained->signature_length(window.rows()));

    const auto revived = registry.deserialize(trained->serialize());
    ASSERT_TRUE(revived->trained());
    EXPECT_EQ(revived->name(), trained->name());
    EXPECT_EQ(revived->compute(window), reference);
  }
}

TEST(DefaultRegistry, EverySpecRoundTripsThroughTheBinaryCodec) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(7, 180, 20);
  const common::Matrix window = wave_matrix(7, 30, 21);

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    const auto trained = registry.create(spec_text)->fit(history);
    const std::vector<double> reference = trained->compute(window);

    const std::vector<std::uint8_t> record = core::codec::encode_binary(*trained);
    ASSERT_TRUE(core::codec::is_binary_record(record));
    EXPECT_EQ(core::codec::parse_record(record).key, key);
    const auto revived = registry.decode(record);
    ASSERT_TRUE(revived->trained());
    EXPECT_EQ(revived->name(), trained->name());
    EXPECT_EQ(revived->compute(window), reference);

    // Re-encoding the revived method must reproduce the record bytes — the
    // binary form is canonical.
    EXPECT_EQ(core::codec::encode_binary(*revived), record);
  }
}

TEST(DefaultRegistry, TextAndBinaryFormsAreInterchangeable) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(7, 180, 22);
  const common::Matrix window = wave_matrix(7, 30, 23);

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    const auto trained = registry.create(spec_text)->fit(history);
    const std::vector<double> reference = trained->compute(window);

    // text -> method -> binary -> method: signatures and text form survive
    // the full cross-format cycle bit-exactly.
    const auto via_text = registry.deserialize(trained->serialize());
    const auto via_both = registry.decode(core::codec::encode_binary(*via_text));
    EXPECT_EQ(via_both->compute(window), reference);
    EXPECT_EQ(via_both->serialize(), trained->serialize());
  }
}

TEST(DefaultRegistry, DecodeRejectsUnknownKeys) {
  const MethodRegistry& registry = default_registry();
  const std::vector<std::uint8_t> record =
      core::codec::frame_record("mystery", {});
  try {
    (void)registry.decode(record);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mystery"), std::string::npos);
  }
}

TEST(DefaultRegistry, EveryMethodStreamsOverTheRingBuffer) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(6, 150, 12);
  const common::Matrix live = wave_matrix(6, 80, 13);
  core::StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 10;

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    std::shared_ptr<const SignatureMethod> method =
        registry.create(spec_text)->fit(history);
    core::MethodStream stream(method, opts, live.rows());
    const auto emitted = stream.push_all(live);
    ASSERT_EQ(emitted.size(), 7u);  // Windows complete at 20, 30, ..., 80.
    for (const auto& features : emitted) {
      EXPECT_EQ(features.size(), method->signature_length(live.rows()));
    }
  }
}

TEST(DefaultRegistry, PrototypeNamesReflectParameters) {
  const MethodRegistry& registry = default_registry();
  EXPECT_EQ(registry.create("cs:blocks=20")->name(), "CS-20");
  EXPECT_EQ(registry.create("cs")->name(), "CS-All");
  EXPECT_EQ(registry.create("cs:blocks=5,real-only")->name(), "CS-5-R");
  EXPECT_EQ(registry.create("tuncer")->name(), "Tuncer");
  EXPECT_EQ(registry.create("pca:components=8")->name(), "PCA-8");
}

TEST(DefaultRegistry, RejectsUnknownParameters) {
  const MethodRegistry& registry = default_registry();
  EXPECT_THROW((void)registry.create("tuncer:wr=3"), std::invalid_argument);
  EXPECT_THROW((void)registry.create("pca:blocks=3"), std::invalid_argument);
  EXPECT_THROW((void)registry.create("lan:wr=0"), std::invalid_argument);
}

// Expects `text` to be refused with a std::runtime_error whose message
// contains `needle`, so each case pins the check that fires.
void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    (void)default_registry().deserialize(text);
    FAIL() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" does not contain " << needle;
  }
}

TEST(DefaultRegistry, StatelessBodiesMustBeEmpty) {
  expect_rejected("csmethod v2 tuncer\nsurprise", "trailing data");
  expect_rejected("csmethod v2 lan\nwr 0\n", "wr must be positive");
  expect_rejected("csmethod v2 lan\nwr 10\ngarbage", "trailing data");
}

TEST(DefaultRegistry, RefusesVersion1TextForEveryMethod) {
  // "csmethod v1" text was written by earlier releases; only v2 is read,
  // even for stateless methods whose v1 body was empty.
  for (const std::string& key : default_registry().keys()) {
    SCOPED_TRACE(key);
    expect_rejected("csmethod v1 " + key + "\n", "bad header");
  }
}

TEST(PcaSerialization, RejectsMalformedBodies) {
  // Truncated body.
  expect_rejected("csmethod v2 pca\nsensors 3\ncomponents 2\nmeans 3 0 1\n",
                  "truncated");
  // k > n, with every array sized consistently for it.
  expect_rejected(
      "csmethod v2 pca\nsensors 1\ncomponents 2\nmeans 1 0\ninv-std 1 1\n"
      "explained 2 1 1\nbasis 2 1 1\n",
      "inconsistent part shapes");
  // NaN coefficients.
  expect_rejected(
      "csmethod v2 pca\nsensors 1\ncomponents 1\nmeans 1 nan\n"
      "inv-std 1 1\nexplained 1 1\nbasis 1 1\n",
      "non-finite means");
}

TEST(PcaSerialization, ModelRoundTripsThroughText) {
  const common::Matrix history = wave_matrix(5, 120, 14);
  const PcaModel model = PcaModel::fit(history, 3);
  const auto revived =
      default_registry().deserialize(PcaMethod(model).serialize());
  const PcaModel& back = dynamic_cast<const PcaMethod&>(*revived).model();
  EXPECT_EQ(back.n_sensors(), model.n_sensors());
  EXPECT_EQ(back.n_components(), model.n_components());
  EXPECT_EQ(back.means(), model.means());
  EXPECT_EQ(back.inv_std(), model.inv_std());
  EXPECT_EQ(back.components(), model.components());
}

}  // namespace
}  // namespace csm::baselines
