#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/method_stream.hpp"
#include "core/pipeline.hpp"
#include "core/training.hpp"

namespace csm::core {
namespace {

common::Matrix wave_matrix(std::size_t n, std::size_t t, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.08 * static_cast<double>(c) +
                         0.5 * static_cast<double>(r)) +
                0.05 * rng.gaussian();
    }
  }
  return s;
}

StreamOptions small_options() {
  StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 10;
  return opts;
}

// CS-4 emitting both channels, fitted on `s`.
std::shared_ptr<const SignatureMethod> fit_cs(const common::Matrix& s) {
  return CsSignatureMethod(CsOptions{4, false}).fit(s);
}

// The CS model the stream currently serves (follows retrains).
const CsModel& live_model(const MethodStream& stream) {
  const auto& cs = dynamic_cast<const CsSignatureMethod&>(stream.method());
  return cs.pipeline()->model();
}

// Asserts that validate() throws std::invalid_argument whose message names
// the offending field, so operators can fix the right knob.
void expect_rejected(const StreamOptions& opts, const std::string& field) {
  try {
    opts.validate();
    FAIL() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message \"" << e.what() << "\" does not name " << field;
  }
}

TEST(StreamOptions, RejectsZeroWindowLengthNamingField) {
  StreamOptions opts = small_options();
  opts.window_length = 0;
  expect_rejected(opts, "window_length");
}

TEST(StreamOptions, RejectsZeroWindowStepNamingField) {
  StreamOptions opts = small_options();
  opts.window_step = 0;
  expect_rejected(opts, "window_step");
}

TEST(StreamOptions, RejectsHistoryTooSmallForSeededWindowNamingField) {
  StreamOptions opts = small_options();
  opts.history_length = opts.window_length;  // Too small for the seed.
  expect_rejected(opts, "history_length");
}

TEST(StreamOptions, RejectsZeroHistoryNamingField) {
  StreamOptions opts = small_options();
  opts.history_length = 0;
  expect_rejected(opts, "history_length");
}

TEST(StreamOptions, HistoryCheckSurvivesWindowLengthOverflow) {
  // window_length + 1 would overflow to 0 and wave the check through; the
  // <= comparison must still reject this contradictory configuration.
  StreamOptions opts = small_options();
  opts.window_length = std::numeric_limits<std::size_t>::max();
  opts.history_length = std::numeric_limits<std::size_t>::max();
  expect_rejected(opts, "history_length");
}

TEST(StreamOptions, AcceptsMinimalLegalHistory) {
  StreamOptions opts = small_options();
  opts.history_length = opts.window_length + 1;
  EXPECT_NO_THROW(opts.validate());
}

TEST(CsMethodStream, EmitsAtWindowBoundaries) {
  const common::Matrix s = wave_matrix(6, 100, 1);
  MethodStream stream(fit_cs(s), small_options());
  std::size_t emitted = 0;
  for (std::size_t c = 0; c < 100; ++c) {
    std::vector<double> column(6);
    for (std::size_t r = 0; r < 6; ++r) column[r] = s(r, c);
    const auto sig = stream.push(column);
    if (sig) {
      ++emitted;
      EXPECT_EQ(sig->size(), 8u);  // 4 blocks x (real + derivative).
    }
    // First emission exactly when wl samples have arrived.
    if (c + 1 < 20) {
      EXPECT_FALSE(sig.has_value());
    }
    if (c + 1 == 20) {
      EXPECT_TRUE(sig.has_value());
    }
  }
  // Windows at samples 20, 30, ..., 100 -> 9 signatures.
  EXPECT_EQ(emitted, 9u);
  EXPECT_EQ(stream.samples_seen(), 100u);
}

TEST(CsMethodStream, PushAllMatchesPushLoop) {
  const common::Matrix s = wave_matrix(5, 80, 2);
  const auto method = fit_cs(s);
  MethodStream a(method, small_options());
  MethodStream b(method, small_options());
  const auto batch = a.push_all(s);
  std::vector<std::vector<double>> loop;
  std::vector<double> column(5);
  for (std::size_t c = 0; c < 80; ++c) {
    for (std::size_t r = 0; r < 5; ++r) column[r] = s(r, c);
    if (auto sig = b.push(column)) loop.push_back(std::move(*sig));
  }
  EXPECT_EQ(batch, loop);
}

TEST(CsMethodStream, MatchesOfflinePipeline) {
  // Streaming signatures must match the offline pipeline's output exactly:
  // same sorting, same seeded derivatives.
  const common::Matrix s = wave_matrix(6, 90, 3);
  const CsModel model = train(s);
  const auto pipeline =
      std::make_shared<const CsPipeline>(model, CsOptions{4, false});
  const StreamOptions opts = small_options();
  MethodStream stream(std::make_shared<const CsSignatureMethod>(pipeline),
                      opts);
  const auto streamed = stream.push_all(s);

  const auto offline = pipeline->transform(
      s, data::WindowSpec{opts.window_length, opts.window_step});
  ASSERT_EQ(streamed.size(), offline.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    const std::vector<double> expected = offline[i].flatten();
    ASSERT_EQ(streamed[i].size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_NEAR(streamed[i][k], expected[k], 1e-12)
          << "signature " << i << " feature " << k;
    }
  }
}

TEST(CsMethodStream, BoundedHistory) {
  const common::Matrix s = wave_matrix(4, 500, 4);
  StreamOptions opts = small_options();
  opts.history_length = 25;  // Barely above wl + seed.
  MethodStream stream(fit_cs(s), opts);
  const auto sigs = stream.push_all(s);
  EXPECT_GT(sigs.size(), 40u);  // Still emits throughout the stream.
}

TEST(CsMethodStream, RetrainsOnSchedule) {
  const common::Matrix s = wave_matrix(4, 200, 5);
  StreamOptions opts = small_options();
  opts.retrain_interval = 50;
  opts.history_length = 64;
  MethodStream stream(fit_cs(s.sub_cols(0, 30)), opts);
  (void)stream.push_all(s);
  EXPECT_EQ(stream.retrain_count(), 4u);  // At samples 50/100/150/200.
}

TEST(CsMethodStream, NoRetrainByDefault) {
  const common::Matrix s = wave_matrix(4, 200, 6);
  MethodStream stream(fit_cs(s), small_options());
  (void)stream.push_all(s);
  EXPECT_EQ(stream.retrain_count(), 0u);
}

TEST(CsMethodStream, RetrainedModelDiffersWhenDataShifts) {
  // Feed a stream whose correlation structure changes halfway; with
  // retraining enabled the model must adapt (different permutation).
  common::Rng rng(7);
  const std::size_t n = 6;
  common::Matrix s(n, 300);
  for (std::size_t c = 0; c < 300; ++c) {
    const double f = std::sin(0.1 * static_cast<double>(c));
    for (std::size_t r = 0; r < n; ++r) {
      // First half: rows 0-2 follow f; second half: rows 3-5 follow f.
      const bool active = c < 150 ? r < 3 : r >= 3;
      s(r, c) = (active ? f : 0.0) + 0.05 * rng.gaussian();
    }
  }
  StreamOptions opts = small_options();
  opts.retrain_interval = 100;
  opts.history_length = 120;
  MethodStream stream(fit_cs(s.sub_cols(0, 100)), opts);
  const std::vector<std::size_t> before = live_model(stream).permutation();
  (void)stream.push_all(s);
  EXPECT_GT(stream.retrain_count(), 0u);
  EXPECT_NE(live_model(stream).permutation(), before);
}

TEST(CsMethodStream, InputValidation) {
  // The stream takes its sensor count from the trained model.
  const common::Matrix s = wave_matrix(4, 60, 8);
  MethodStream stream(fit_cs(s), small_options());
  const std::vector<double> wrong(3, 0.0);
  EXPECT_THROW((void)stream.push(wrong), std::invalid_argument);
  EXPECT_THROW((void)stream.push_all(common::Matrix(5, 10)),
               std::invalid_argument);
}

}  // namespace
}  // namespace csm::core
