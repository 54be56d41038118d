#include "core/cs_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/method_registry.hpp"
#include "core/model_codec.hpp"
#include "core/pipeline.hpp"
#include "core/training.hpp"

namespace csm::core {
namespace {

CsModel simple_model() {
  return CsModel({2, 0, 1},
                 {{0.0, 1.0}, {10.0, 20.0}, {-1.0, 1.0}});
}

// A CsModel is persisted as part of the CS method's CSMB record; these
// helpers wrap it in a CS-All method and unwrap it again.
std::vector<std::uint8_t> to_record(const CsModel& model) {
  return codec::encode_binary(CsSignatureMethod(
      std::make_shared<const CsPipeline>(model, CsOptions{0, false})));
}

std::unique_ptr<SignatureMethod> revive(std::span<const std::uint8_t> record) {
  MethodRegistry registry;
  register_cs_method(registry);
  return registry.decode(record);
}

CsModel from_record(std::span<const std::uint8_t> record) {
  const auto method = revive(record);
  return dynamic_cast<const CsSignatureMethod&>(*method).pipeline()->model();
}

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

// The fields of a CS-All model with the given permutation and bounds.
codec::BinarySink cs_fields(const std::vector<std::uint64_t>& perm,
                            const std::vector<double>& lo,
                            const std::vector<double>& hi) {
  codec::BinarySink sink;
  sink.size("blocks", 0);
  sink.flag("real-only", false);
  sink.u64_array("perm", perm);
  sink.f64_array("lo", lo);
  sink.f64_array("hi", hi);
  return sink;
}

// Expects `record` to be refused with a std::runtime_error whose message
// contains `needle`, so each case pins the check that fires.
void expect_rejected(std::span<const std::uint8_t> record,
                     const std::string& needle) {
  try {
    (void)revive(record);
    FAIL() << "accepted a " << record.size() << "-byte record";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" does not contain " << needle;
  }
}

void expect_body_rejected(const codec::BinarySink& fields,
                          const std::string& needle) {
  expect_rejected(codec::frame_record("cs", fields.body()), needle);
}

TEST(CsModel, ConstructorValidatesPermutation) {
  EXPECT_THROW(CsModel({0, 0}, {{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(CsModel({0, 5}, {{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(CsModel({0, 1}, {{0, 1}}), std::invalid_argument);
}

TEST(CsModel, SortNormalizesThenPermutes) {
  const CsModel model({1, 0}, {{0.0, 10.0}, {0.0, 2.0}});
  common::Matrix s{{5.0, 10.0}, {1.0, 0.0}};
  const common::Matrix sorted = model.sort(s);
  // Row 0 of output is original row 1 normalised by its bounds [0, 2].
  EXPECT_DOUBLE_EQ(sorted(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(sorted(0, 1), 0.0);
  // Row 1 of output is original row 0 normalised by [0, 10].
  EXPECT_DOUBLE_EQ(sorted(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(sorted(1, 1), 1.0);
}

TEST(CsModel, SortRejectsWrongSensorCount) {
  const CsModel model = simple_model();
  common::Matrix wrong(2, 4);
  EXPECT_THROW(model.sort(wrong), std::invalid_argument);
}

TEST(CsModel, SortClampsOutOfTrainingRange) {
  const CsModel model({0}, {{0.0, 1.0}});
  common::Matrix s{{-5.0, 0.5, 9.0}};
  const common::Matrix sorted = model.sort(s);
  EXPECT_DOUBLE_EQ(sorted(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(sorted(0, 2), 1.0);
}

TEST(CsModel, RecordRoundTrip) {
  const CsModel model = simple_model();
  EXPECT_EQ(from_record(to_record(model)), model);
}

TEST(CsModel, DecodeRejectsGarbage) {
  expect_rejected(bytes_of("not a model"), "bad magic");
  // The bare "csmodel v1" body and the "csmethod v2" text of earlier
  // releases are no model format.
  expect_rejected(bytes_of("csmodel v1\n1\n0 0 1\n"), "bad magic");
  expect_rejected(bytes_of("csmethod v2 cs\nblocks 0\nreal-only 0\n"),
                  "bad magic");
  // Truncated record, and a whole record around a truncated body.
  const std::vector<std::uint8_t> record = to_record(simple_model());
  expect_rejected(std::span(record).first(record.size() - 9), "truncated");
  const codec::BinarySink fields = cs_fields({0, 1}, {0, 0}, {1, 1});
  expect_rejected(codec::frame_record(
                      "cs", std::span(fields.body()).first(
                                fields.body().size() - 3)),
                  "truncated");
}

TEST(CsModel, DecodeRejectsStructurallyInvalidBodies) {
  // Non-permutation p: duplicate index.
  expect_body_rejected(cs_fields({0, 0}, {0, 0}, {1, 1}),
                       "not a valid permutation");
  // Non-permutation p: out-of-range index.
  expect_body_rejected(cs_fields({0, 5}, {0, 0}, {1, 1}),
                       "not a valid permutation");
  // NaN bounds must throw, never propagate into sort().
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_body_rejected(cs_fields({0}, {nan}, {1}),
                       "non-finite normalisation bounds");
  expect_body_rejected(cs_fields({0}, {0}, {inf}),
                       "non-finite normalisation bounds");
  // Trailing field after a complete body.
  codec::BinarySink extra = cs_fields({0}, {0}, {1});
  extra.u64("extra", 1);
  expect_body_rejected(extra, "trailing bytes");
  // Absurd sensor count must not allocate first: a hand-built u64[] "perm"
  // header declaring 2^32 - 1 elements.
  codec::BinarySink head;
  head.size("blocks", 0);
  head.flag("real-only", false);
  std::vector<std::uint8_t> body = head.body();
  body.insert(body.end(), {3, 4, 'p', 'e', 'r', 'm'});
  body.insert(body.end(), 4, 0xFF);
  expect_rejected(codec::frame_record("cs", body), "exceeds the element cap");
}

TEST(CsModel, ConstructorRejectsNonFiniteBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CsModel({0}, {{nan, 1.0}}), std::invalid_argument);
  EXPECT_THROW(CsModel({0}, {{0.0, std::numeric_limits<double>::infinity()}}),
               std::invalid_argument);
}

TEST(CsModel, TrainingSkipsNaNsButRejectsAnAllNaNSensor) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  common::Matrix s{{nan, 2, 3, 4}, {4, 3, 2, 1}, {2, 2, 8, 1}};
  EXPECT_EQ(train(s).bounds()[0], (stats::MinMaxBounds{2.0, 4.0}));
  for (std::size_t c = 0; c < s.cols(); ++c) s(1, c) = nan;
  try {
    (void)train(s);
    FAIL() << "an all-NaN sensor trained";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite normalisation bounds"),
              std::string::npos)
        << e.what();
  }
}

TEST(CsModel, TrainedModelRoundTripsThroughRecord) {
  common::Matrix s{{1, 2, 3, 4}, {4, 3, 2, 1}, {2, 2, 8, 1}};
  const CsModel model = train(s);
  const CsModel back = from_record(to_record(model));
  EXPECT_EQ(back.permutation(), model.permutation());
  // The sort outputs must match exactly.
  EXPECT_EQ(back.sort(s), model.sort(s));
}

}  // namespace
}  // namespace csm::core
