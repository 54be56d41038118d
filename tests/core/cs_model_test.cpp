#include "core/cs_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "core/method_registry.hpp"
#include "core/pipeline.hpp"
#include "core/training.hpp"

namespace csm::core {
namespace {

CsModel simple_model() {
  return CsModel({2, 0, 1},
                 {{0.0, 1.0}, {10.0, 20.0}, {-1.0, 1.0}});
}

// A CsModel is persisted as part of the CS method's "csmethod v2" text;
// these helpers wrap it in a CS-All method and unwrap it again.
std::string to_text(const CsModel& model) {
  return CsSignatureMethod(
             std::make_shared<const CsPipeline>(model, CsOptions{0, false}))
      .serialize();
}

std::unique_ptr<SignatureMethod> revive(const std::string& text) {
  MethodRegistry registry;
  register_cs_method(registry);
  return registry.deserialize(text);
}

CsModel from_text(const std::string& text) {
  const auto method = revive(text);
  return dynamic_cast<const CsSignatureMethod&>(*method).pipeline()->model();
}

// Expects `text` to be refused with a std::runtime_error whose message
// contains `needle`, so each case pins the check that fires.
void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    (void)revive(text);
    FAIL() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" does not contain " << needle;
  }
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

TEST(CsModel, SerializeRoundTrip) {
  const CsModel model = simple_model();
  EXPECT_EQ(from_text(to_text(model)), model);
}

TEST(CsModel, DeserializeRejectsGarbage) {
  expect_rejected("not a model", "bad header");
  // The bare "csmodel v1" body of earlier releases is no model format.
  expect_rejected("csmodel v1\n1\n0 0 1\n", "bad header");
  // Truncated body.
  expect_rejected("csmethod v2 cs\nblocks 0\nreal-only 0\nperm 3 0 1\n",
                  "truncated");
}

TEST(CsModel, DeserializeRejectsStructurallyInvalidBodies) {
  const std::string head = "csmethod v2 cs\nblocks 0\nreal-only 0\n";
  // Non-permutation p: duplicate index.
  expect_rejected(head + "perm 2 0 0\nlo 2 0 0\nhi 2 1 1\n",
                  "not a valid permutation");
  // Non-permutation p: out-of-range index.
  expect_rejected(head + "perm 2 0 5\nlo 2 0 0\nhi 2 1 1\n",
                  "not a valid permutation");
  // NaN bounds must throw, never propagate into sort().
  expect_rejected(head + "perm 1 0\nlo 1 nan\nhi 1 1\n",
                  "non-finite normalisation bounds");
  expect_rejected(head + "perm 1 0\nlo 1 0\nhi 1 inf\n",
                  "non-finite normalisation bounds");
  // Trailing garbage after a complete body.
  expect_rejected(head + "perm 1 0\nlo 1 0\nhi 1 1\nextra", "trailing data");
  // Absurd sensor count must not allocate first.
  expect_rejected(head + "perm 999999999999\n", "exceeds the element cap");
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

TEST(CsModel, TrainedModelRoundTripsThroughText) {
  common::Matrix s{{1, 2, 3, 4}, {4, 3, 2, 1}, {2, 2, 8, 1}};
  const CsModel model = train(s);
  const CsModel back = from_text(to_text(model));
  EXPECT_EQ(back.permutation(), model.permutation());
  // The sort outputs must match exactly.
  EXPECT_EQ(back.sort(s), model.sort(s));
}

}  // namespace
}  // namespace csm::core
