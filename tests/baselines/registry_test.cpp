#include "baselines/registry.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/bodik.hpp"
#include "baselines/pca.hpp"
#include "baselines/tuncer.hpp"
#include "common/rng.hpp"
#include "core/method_stream.hpp"
#include "core/model_codec.hpp"

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

TEST(DefaultRegistry, EverySpecRoundTripsThroughTheBinaryCodec) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(7, 180, 20);
  const common::Matrix window = wave_matrix(7, 30, 21);

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    const core::MethodSpec spec = core::MethodSpec::parse(spec_text);
    EXPECT_EQ(spec.name, key);

    const auto trained = registry.create(spec)->fit(history);
    ASSERT_TRUE(trained->trained());
    const std::vector<double> reference = trained->compute(window);
    EXPECT_EQ(reference.size(), trained->signature_length(window.rows()));

    const std::vector<std::uint8_t> record =
        core::codec::encode_binary(*trained);
    EXPECT_EQ(core::codec::parse_record(record).key, key);
    const auto revived = registry.decode(record);
    ASSERT_TRUE(revived->trained());
    EXPECT_EQ(revived->name(), trained->name());
    EXPECT_EQ(revived->compute(window), reference);

    // Re-encoding the revived method must reproduce the record bytes — the
    // record is canonical.
    EXPECT_EQ(core::codec::encode_binary(*revived), record);
  }
}

// save_method writes exactly the method's record, and load reads it back,
// for every registered method (models travel between hosts as files).
TEST(DefaultRegistry, EverySpecRoundTripsThroughAModelFile) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(7, 180, 24);
  const common::Matrix window = wave_matrix(7, 30, 25);

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    const auto trained = registry.create(spec_text)->fit(history);
    const auto file = std::filesystem::path(testing::TempDir()) /
                      ("csm_registry_test_" + key + ".csmb");
    core::save_method(*trained, file);

    {
      std::ifstream in(file, std::ios::binary);
      const std::vector<std::uint8_t> on_disk(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
      EXPECT_EQ(on_disk, core::codec::encode_binary(*trained));
    }

    const auto revived = registry.load(file);
    ASSERT_TRUE(revived->trained());
    EXPECT_EQ(revived->name(), trained->name());
    EXPECT_EQ(revived->compute(window), trained->compute(window));
    std::filesystem::remove(file);
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

// One NaN sample poisons features and never perturbs them: for every
// method, a window with a NaN in row r emits each feature either
// bit-identical to the clean window's or NaN, with at least one NaN. The
// per-sensor indicator baselines poison exactly row r's indicators. (CS
// poisons the blocks holding row r, as OneOrderProperty pins; PCA projects
// every sensor into every component, so its whole vector turns NaN.)
TEST(DefaultRegistry, OneNanSamplePoisonsFeaturesAndPerturbsNone) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(7, 180, 26);
  const common::Matrix clean = wave_matrix(7, 30, 27);
  const std::map<std::string, std::size_t> per_sensor = {
      {"tuncer", TuncerMethod::kFeaturesPerSensor},
      {"bodik", BodikMethod::kFeaturesPerSensor},
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    const auto method = registry.create(spec_text)->fit(history);
    const std::vector<double> reference = method->compute(clean);
    for (double v : reference) ASSERT_FALSE(std::isnan(v));
    const auto indicators = per_sensor.find(key);
    for (std::size_t r = 0; r < clean.rows(); ++r) {
      for (const std::size_t c : {std::size_t{0}, clean.cols() / 2,
                                  clean.cols() - 1}) {
        common::Matrix window = clean;
        window(r, c) = std::numeric_limits<double>::quiet_NaN();
        const std::vector<double> got = method->compute(window);
        ASSERT_EQ(got.size(), reference.size());
        std::size_t nans = 0;
        for (std::size_t i = 0; i < got.size(); ++i) {
          const bool row_r = indicators != per_sensor.end() &&
                             i / indicators->second == r;
          if (std::isnan(got[i])) {
            ++nans;
          } else {
            EXPECT_EQ(bits(got[i]), bits(reference[i]))
                << "row " << r << " column " << c << " feature " << i;
          }
          if (indicators != per_sensor.end()) {
            EXPECT_EQ(std::isnan(got[i]), row_r)
                << "row " << r << " column " << c << " feature " << i;
          }
        }
        EXPECT_GT(nans, 0u) << "row " << r << " column " << c;
      }
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

// Expects `record` to be refused with a std::runtime_error whose message
// contains `needle`, so each case pins the check that fires.
void expect_rejected(std::span<const std::uint8_t> record,
                     const std::string& needle) {
  try {
    (void)default_registry().decode(record);
    FAIL() << "accepted a " << record.size() << "-byte record";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" does not contain " << needle;
  }
}

void expect_rejected(std::string_view key, const core::codec::BinarySink& body,
                     const std::string& needle) {
  expect_rejected(core::codec::frame_record(key, body.body()), needle);
}

TEST(DefaultRegistry, StatelessBodiesMustBeEmpty) {
  core::codec::BinarySink surprise;
  surprise.u64("surprise", 1);
  expect_rejected("tuncer", surprise, "trailing bytes");
  core::codec::BinarySink zero_wr;
  zero_wr.size("wr", 0);
  expect_rejected("lan", zero_wr, "wr must be positive");
  core::codec::BinarySink extra;
  extra.size("wr", 10);
  extra.u64("garbage", 1);
  expect_rejected("lan", extra, "trailing bytes");
}

TEST(DefaultRegistry, RefusesTextModelsForEveryMethod) {
  // "csmethod v1" and "csmethod v2" text was written by earlier releases;
  // only CSMB records are read now, even for stateless methods whose text
  // body was empty.
  for (const std::string& key : default_registry().keys()) {
    SCOPED_TRACE(key);
    for (const char* version : {"v1", "v2"}) {
      const std::string text =
          std::string("csmethod ") + version + " " + key + "\n";
      expect_rejected(std::vector<std::uint8_t>(text.begin(), text.end()),
                      "bad magic");
    }
  }
}

// The PCA fields with the given shapes and values, in save() order.
core::codec::BinarySink pca_fields(std::size_t sensors, std::size_t components,
                                   const std::vector<double>& means,
                                   const std::vector<double>& inv_std,
                                   const std::vector<double>& explained,
                                   const std::vector<double>& basis) {
  core::codec::BinarySink sink;
  sink.size("sensors", sensors);
  sink.size("components", components);
  sink.f64_array("means", means);
  sink.f64_array("inv-std", inv_std);
  sink.f64_array("explained", explained);
  sink.f64_array("basis", basis);
  return sink;
}

TEST(PcaSerialization, RejectsMalformedBodies) {
  // Truncated body: the fields stop after the means.
  core::codec::BinarySink truncated;
  truncated.size("sensors", 3);
  truncated.size("components", 2);
  truncated.f64_array("means", std::vector<double>{0, 1, 2});
  expect_rejected("pca", truncated, "truncated");
  // k > n, with every array sized consistently for it.
  expect_rejected("pca", pca_fields(1, 2, {0}, {1}, {1, 1}, {1, 1}),
                  "inconsistent part shapes");
  // NaN coefficients.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_rejected("pca", pca_fields(1, 1, {nan}, {1}, {1}, {1}),
                  "non-finite means");
}

TEST(PcaSerialization, ModelRoundTripsThroughRecord) {
  const common::Matrix history = wave_matrix(5, 120, 14);
  const PcaModel model = PcaModel::fit(history, 3);
  const auto revived = default_registry().decode(
      core::codec::encode_binary(PcaMethod(model)));
  const PcaModel& back = dynamic_cast<const PcaMethod&>(*revived).model();
  EXPECT_EQ(back.n_sensors(), model.n_sensors());
  EXPECT_EQ(back.n_components(), model.n_components());
  EXPECT_EQ(back.means(), model.means());
  EXPECT_EQ(back.inv_std(), model.inv_std());
  EXPECT_EQ(back.components(), model.components());
}

}  // namespace
}  // namespace csm::baselines
