#include "core/method_stream.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "baselines/bodik.hpp"
#include "baselines/pca.hpp"
#include "baselines/tuncer.hpp"
#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "core/streaming.hpp"
#include "core/training.hpp"

namespace csm::core {
namespace {

common::Matrix wave_matrix(std::size_t n, std::size_t t, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.06 * static_cast<double>(c) +
                         0.5 * static_cast<double>(r)) +
                0.08 * rng.gaussian();
    }
  }
  return s;
}

StreamOptions stream_options() {
  StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 10;
  return opts;
}

TEST(MethodStream, TuncerStreamingMatchesOffline) {
  // Streaming-vs-offline equivalence for a non-CS method: every emitted
  // feature vector equals a plain compute() over the same window.
  const common::Matrix s = wave_matrix(5, 110, 2);
  const StreamOptions opts = stream_options();
  MethodStream stream(std::make_shared<const baselines::TuncerMethod>(), opts,
                      s.rows());
  const auto got = stream.push_all(s);
  const baselines::TuncerMethod offline;
  ASSERT_EQ(got.size(), 10u);  // Windows complete at 20, 30, ..., 110.
  for (std::size_t w = 0; w < got.size(); ++w) {
    EXPECT_EQ(got[w], offline.compute(s.sub_cols(w * opts.window_step,
                                                 opts.window_length)))
        << "window " << w;
  }
}

TEST(MethodStream, PcaStreamingMatchesOffline) {
  const common::Matrix history = wave_matrix(6, 200, 3);
  const common::Matrix live = wave_matrix(6, 90, 4);
  const StreamOptions opts = stream_options();
  const auto trained = baselines::PcaMethod(4).fit(history);
  const auto* offline = static_cast<const baselines::PcaMethod*>(
      trained.get());

  MethodStream stream(
      std::shared_ptr<const SignatureMethod>(trained->fit(history)), opts);
  const auto got = stream.push_all(live);
  ASSERT_EQ(got.size(), 8u);
  for (std::size_t w = 0; w < got.size(); ++w) {
    const common::Matrix window = live.sub_cols(w * opts.window_step,
                                                opts.window_length);
    EXPECT_EQ(got[w], offline->compute(window)) << "window " << w;
  }
}

TEST(MethodStream, PushMatchesPushAll) {
  const common::Matrix s = wave_matrix(4, 70, 5);
  const StreamOptions opts = stream_options();
  MethodStream a(std::make_shared<const baselines::BodikMethod>(), opts, 4);
  MethodStream b(std::make_shared<const baselines::BodikMethod>(), opts, 4);

  const auto bulk = a.push_all(s);
  std::vector<std::vector<double>> single;
  for (std::size_t c = 0; c < s.cols(); ++c) {
    if (auto f = b.push(s.col(c))) single.push_back(std::move(*f));
  }
  EXPECT_EQ(bulk, single);
}

TEST(MethodStream, GenericRetrainViaFit) {
  StreamOptions opts = stream_options();
  opts.retrain_interval = 40;
  opts.history_length = 64;
  const common::Matrix s = wave_matrix(5, 160, 6);
  const auto trained = baselines::PcaMethod(3).fit(s.sub_cols(0, 50));
  MethodStream stream(std::shared_ptr<const SignatureMethod>(
                          trained->fit(s.sub_cols(0, 50))),
                      opts);
  (void)stream.push_all(s);
  EXPECT_EQ(stream.retrain_count(), 4u);  // Samples 40/80/120/160.
  // The live method is still a fitted PCA bound to 5 sensors.
  EXPECT_EQ(stream.method().n_sensors(), 5u);
  EXPECT_TRUE(stream.method().trained());
}

TEST(MethodStream, ConstructorValidation) {
  const StreamOptions opts = stream_options();
  // Null method.
  EXPECT_THROW(MethodStream(nullptr, opts, 4), std::invalid_argument);
  // Untrained prototype.
  EXPECT_THROW(MethodStream(std::make_shared<const baselines::PcaMethod>(3),
                            opts, 4),
               std::invalid_argument);
  // Sensor-agnostic method without an explicit sensor count.
  EXPECT_THROW(MethodStream(std::make_shared<const baselines::TuncerMethod>(),
                            opts),
               std::invalid_argument);
  // Contradictory sensor count for a bound method.
  const common::Matrix history = wave_matrix(6, 100, 7);
  const auto pca = std::shared_ptr<const SignatureMethod>(
      baselines::PcaMethod(2).fit(history));
  EXPECT_THROW(MethodStream(pca, opts, 7), std::invalid_argument);
  MethodStream ok(pca, opts, 6);  // Matching explicit count is fine.
  EXPECT_EQ(ok.n_sensors(), 6u);
}

TEST(MethodStream, WrongColumnLengthThrows) {
  MethodStream stream(std::make_shared<const baselines::TuncerMethod>(),
                      stream_options(), 4);
  const std::vector<double> wrong(5, 0.0);
  EXPECT_THROW((void)stream.push(wrong), std::invalid_argument);
  EXPECT_THROW((void)stream.push_all(common::Matrix(3, 10)),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Retrain policies. GenerationMethod makes model swaps observable: each
// fit() bumps a generation counter that compute() emits, so a signature
// names the model generation that produced it. Fits can be made to block
// (released from the test) and to throw, driving the shadow-fit state
// machine through its deterministic corners.
// --------------------------------------------------------------------------

struct FitProbe {
  std::mutex mu;
  std::condition_variable cv;
  bool block = false;     ///< Fits wait for release (or cancellation).
  bool released = false;
  bool fail = false;      ///< Fits throw std::runtime_error.
  int started = 0;
  int finished = 0;
  int cancelled = 0;

  void release() {
    const std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
  // Awaits a counter reaching `goal` (e.g. wait_for(&FitProbe::started, 1)).
  void await(int FitProbe::* counter, int goal) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return this->*counter >= goal; });
  }
};

class GenerationMethod : public SignatureMethod {
 public:
  GenerationMethod(std::size_t n_sensors, std::shared_ptr<FitProbe> probe,
                   int generation = 0)
      : n_sensors_(n_sensors), probe_(std::move(probe)),
        generation_(generation) {}

  std::string name() const override { return "generation"; }
  std::size_t signature_length(std::size_t) const override { return 1; }
  std::size_t n_sensors() const override { return n_sensors_; }
  std::vector<double> compute(const common::MatrixView&) const override {
    return {static_cast<double>(generation_)};
  }
  std::unique_ptr<SignatureMethod> fit(
      const common::MatrixView&) const override {
    return std::make_unique<GenerationMethod>(n_sensors_, probe_,
                                              generation_ + 1);
  }
  std::unique_ptr<SignatureMethod> fit(const common::MatrixView& train,
                                       TrainContext& ctx) const override {
    {
      std::unique_lock<std::mutex> lock(probe_->mu);
      ++probe_->started;
      probe_->cv.notify_all();
      while (probe_->block && !probe_->released &&
             !ctx.cancel.cancelled()) {
        probe_->cv.wait_for(lock, std::chrono::milliseconds(1));
      }
      if (ctx.cancel.cancelled()) {
        ++probe_->cancelled;
        probe_->cv.notify_all();
        throw common::OperationCancelled("generation: fit cancelled");
      }
      if (probe_->fail) {
        probe_->cv.notify_all();
        throw std::runtime_error("generation: fit failed");
      }
    }
    auto fitted = fit(train);
    const std::lock_guard<std::mutex> lock(probe_->mu);
    ++probe_->finished;
    probe_->cv.notify_all();
    return fitted;
  }

 private:
  std::size_t n_sensors_;
  std::shared_ptr<FitProbe> probe_;
  int generation_;
};

StreamOptions retrain_options(RetrainPolicy policy) {
  StreamOptions opts = stream_options();
  opts.retrain_interval = 40;
  opts.history_length = 64;
  opts.retrain_policy = policy;
  return opts;
}

void push_columns(MethodStream& stream, std::size_t count,
                  std::vector<std::vector<double>>* out = nullptr) {
  const std::vector<double> column(stream.n_sensors(), 1.0);
  for (std::size_t i = 0; i < count; ++i) {
    if (auto sig = stream.push(column)) {
      if (out != nullptr) out->push_back(std::move(*sig));
    }
  }
}

TEST(MethodStreamRetrain, SyncSwapsInlineAndRecordsLatency) {
  const auto probe = std::make_shared<FitProbe>();
  MethodStream stream(std::make_shared<const GenerationMethod>(4, probe),
                      retrain_options(RetrainPolicy::kSync));
  std::vector<std::vector<double>> sigs;
  push_columns(stream, 80, &sigs);
  // Inline retrains at samples 40 and 80. A retrain precedes the
  // same-sample emit, so the emits at 20..80 see generations
  // 0, 0, 1, 1, 1, 1, 2.
  EXPECT_EQ(stream.retrain_count(), 2u);
  EXPECT_EQ(stream.retrain_aborts(), 0u);
  EXPECT_EQ(probe->started, 2);
  EXPECT_EQ(probe->finished, 2);
  EXPECT_EQ(stream.retrain_latency_us().total(), 2u);
  ASSERT_EQ(sigs.size(), 7u);  // Emits at 20, 30, ..., 80.
  EXPECT_EQ(sigs.front(), std::vector<double>{0.0});
  EXPECT_EQ(sigs.back(), std::vector<double>{2.0});
}

TEST(MethodStreamRetrain, AsyncSwapLandsAtEmitBoundary) {
  const auto probe = std::make_shared<FitProbe>();
  // Hold the fit open: a fast worker could otherwise finish it between the
  // sample-40 launch and that same push's emit, legally swapping already at
  // sample 40 — blocking pins the "old model serves mid-fit" window.
  probe->block = true;
  MethodStream stream(std::make_shared<const GenerationMethod>(4, probe),
                      retrain_options(RetrainPolicy::kAsync));
  std::vector<std::vector<double>> sigs;
  push_columns(stream, 40, &sigs);
  probe->await(&FitProbe::started, 1);
  // One more emit (sample 50) with the fit still in flight: every
  // signature so far is from the base model and nothing has swapped.
  push_columns(stream, 10, &sigs);
  EXPECT_EQ(stream.retrain_count(), 0u);
  for (const auto& sig : sigs) EXPECT_EQ(sig, std::vector<double>{0.0});

  probe->release();
  probe->await(&FitProbe::finished, 1);
  // The worker flips `done` moments after bumping `finished`; keep pushing
  // through emit boundaries (staying below sample 80, the next retrain
  // trigger) until the swap lands.
  for (int i = 0; i < 25 && stream.retrain_count() == 0; ++i) {
    push_columns(stream, 1, &sigs);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(stream.retrain_count(), 1u);
  EXPECT_EQ(stream.retrain_aborts(), 0u);
  EXPECT_EQ(stream.retrain_latency_us().total(), 1u);
  EXPECT_EQ(sigs.back(), std::vector<double>{1.0});
}

TEST(MethodStreamRetrain, SkipIfBusyLeavesInFlightFitAlone) {
  const auto probe = std::make_shared<FitProbe>();
  probe->block = true;
  MethodStream stream(std::make_shared<const GenerationMethod>(4, probe),
                      retrain_options(RetrainPolicy::kSkipIfBusy));
  push_columns(stream, 40);
  probe->await(&FitProbe::started, 1);
  // The sample-80 retrain finds the fit still running: skipped, counted.
  push_columns(stream, 40);
  EXPECT_EQ(stream.retrain_aborts(), 1u);
  EXPECT_EQ(probe->started, 1);
  EXPECT_EQ(stream.retrain_count(), 0u);

  probe->release();
  probe->await(&FitProbe::finished, 1);
  std::vector<std::vector<double>> sigs;
  for (int i = 0; i < 30 && stream.retrain_count() == 0; ++i) {
    push_columns(stream, 1, &sigs);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(stream.retrain_count(), 1u);
  EXPECT_EQ(stream.retrain_aborts(), 1u);
  ASSERT_FALSE(sigs.empty());
  EXPECT_EQ(sigs.back(), std::vector<double>{1.0});
}

TEST(MethodStreamRetrain, AsyncSupersedeCancelsInFlightFit) {
  const auto probe = std::make_shared<FitProbe>();
  probe->block = true;
  MethodStream stream(std::make_shared<const GenerationMethod>(4, probe),
                      retrain_options(RetrainPolicy::kAsync));
  push_columns(stream, 40);
  probe->await(&FitProbe::started, 1);
  // The sample-80 retrain supersedes: the first fit's token fires (it
  // unwinds via OperationCancelled) and a second fit launches.
  push_columns(stream, 40);
  EXPECT_EQ(stream.retrain_aborts(), 1u);
  probe->await(&FitProbe::cancelled, 1);
  probe->await(&FitProbe::started, 2);

  probe->release();
  probe->await(&FitProbe::finished, 1);
  std::vector<std::vector<double>> sigs;
  for (int i = 0; i < 30 && stream.retrain_count() == 0; ++i) {
    push_columns(stream, 1, &sigs);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Exactly one model generation made it in: the superseding fit (refit
  // from the base model, so generation 1).
  EXPECT_EQ(stream.retrain_count(), 1u);
  ASSERT_FALSE(sigs.empty());
  EXPECT_EQ(sigs.back(), std::vector<double>{1.0});
}

TEST(MethodStreamRetrain, AsyncFitErrorSurfacesOnIngestThread) {
  const auto probe = std::make_shared<FitProbe>();
  probe->fail = true;
  MethodStream stream(std::make_shared<const GenerationMethod>(4, probe),
                      retrain_options(RetrainPolicy::kAsync));
  // The failed fit's error is rethrown on the ingest thread at the next
  // boundary that inspects the shadow state (emit or retrain launch) —
  // possibly already the emit of the triggering push itself, when the
  // worker fails fast enough, so the trigger sits inside the try too.
  bool threw = false;
  try {
    push_columns(stream, 40);
    probe->await(&FitProbe::started, 1);
    for (int i = 0; i < 200; ++i) {
      push_columns(stream, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "generation: fit failed");
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(stream.retrain_count(), 0u);
}

TEST(MethodStreamRetrain, DestructorCancelsInFlightFit) {
  const auto probe = std::make_shared<FitProbe>();
  probe->block = true;
  {
    MethodStream stream(std::make_shared<const GenerationMethod>(4, probe),
                        retrain_options(RetrainPolicy::kAsync));
    push_columns(stream, 40);
    probe->await(&FitProbe::started, 1);
    // Stream destroyed with the fit still blocked: the destructor fires the
    // token and the worker unwinds without touching the dead stream.
  }
  probe->await(&FitProbe::cancelled, 1);
  EXPECT_EQ(probe->finished, 0);
}

// --------------------------------------------------------------------------
// kOnDrift: drift-triggered adaptive retraining. GenerationMethod again
// makes the swap observable — a signature names the model generation that
// produced it — while the drift detector scores the real window data.
// --------------------------------------------------------------------------

// Two-factor stream that switches regime at `shift_at`: sensor levels jump,
// the factor loadings remix, and the factor gain grows — a compound drift
// the detector scores far above anything a stationary window produces.
// Window-stationary on both sides of the switch. At wl=20 the clean score
// tops out near 0.5 while every post-shift window scores above 1.1, so the
// 0.8 threshold below separates the regimes with margin on both sides.
common::Matrix regime_matrix(std::size_t n, std::size_t t,
                             std::size_t shift_at, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t c = 0; c < t; ++c) {
    const double z1 = rng.gaussian();
    const double z2 = rng.gaussian();
    const bool shifted = c >= shift_at;
    for (std::size_t r = 0; r < n; ++r) {
      const double x = static_cast<double>(r);
      const double a = shifted ? std::cos(0.4 * x + 1.3) : std::cos(0.4 * x);
      const double b = shifted ? std::sin(2.99 * x) : std::sin(0.4 * x);
      const double gain = shifted ? 1.6 : 1.0;
      const double level = 0.5 * x + (shifted ? 2.0 : 0.0);
      s(r, c) = level + gain * (a * z1 + b * z2) + 0.2 * rng.gaussian();
    }
  }
  return s;
}

StreamOptions drift_options() {
  StreamOptions opts = stream_options();  // wl=20, ws=10.
  opts.history_length = 64;
  opts.retrain_policy = RetrainPolicy::kOnDrift;
  opts.drift_threshold = 0.8;
  opts.drift_patience = 2;
  return opts;
}

TEST(MethodStreamDrift, RegimeShiftFiresExactlyOneRetrain) {
  const std::size_t t = 600;
  const std::size_t shift_at = 300;
  const common::Matrix data = regime_matrix(6, t, shift_at, 51);
  const auto probe = std::make_shared<FitProbe>();
  MethodStream stream(std::make_shared<const GenerationMethod>(6, probe),
                      drift_options());

  std::vector<double> column(6);
  std::size_t first_retrain_at = 0;
  std::vector<std::vector<double>> signatures;
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t r = 0; r < 6; ++r) column[r] = data(r, c);
    if (auto sig = stream.push(column)) signatures.push_back(std::move(*sig));
    if (first_retrain_at == 0 && stream.drift_retrains() > 0) {
      first_retrain_at = c + 1;
    }
  }

  // Exactly one retrain: the detector fires on the regime change, the
  // reference is rebuilt from the post-shift window, and the new regime —
  // stationary again — never re-triggers.
  EXPECT_EQ(stream.drift_retrains(), 1u);
  EXPECT_EQ(stream.retrain_count(), 1u);
  EXPECT_GT(first_retrain_at, shift_at);
  EXPECT_LE(first_retrain_at, shift_at + 100);  // Detection latency bound.
  // Every window after the first is scored; flags at least fill patience.
  EXPECT_EQ(stream.drift_windows(), stream.signatures_emitted() - 1);
  EXPECT_GE(stream.drift_flags(), stream.options().drift_patience);
  // Signatures name the generation: 0 before the swap, 1 at the end.
  EXPECT_EQ(signatures.front()[0], 0.0);
  EXPECT_EQ(signatures.back()[0], 1.0);
}

TEST(MethodStreamDrift, StationaryStreamNeverRetrains) {
  const std::size_t t = 600;
  // shift_at == t: the switch never happens, the stream stays in-regime.
  const common::Matrix data = regime_matrix(6, t, t, 53);
  const auto probe = std::make_shared<FitProbe>();
  MethodStream stream(std::make_shared<const GenerationMethod>(6, probe),
                      drift_options());
  const auto signatures = stream.push_all(data);

  EXPECT_EQ(stream.drift_retrains(), 0u);
  EXPECT_EQ(stream.retrain_count(), 0u);
  EXPECT_EQ(stream.drift_windows(), signatures.size() - 1);
  EXPECT_EQ(stream.drift_flags(), 0u);
  for (const auto& sig : signatures) {
    EXPECT_EQ(sig[0], 0.0);  // The deployed model, never swapped.
  }
}

TEST(MethodStreamDrift, PatienceHoldsBackPersistentFlags) {
  // With patience far above the number of post-shift windows, the shift is
  // flagged but never converts into a retrain.
  const std::size_t t = 600;
  const common::Matrix data = regime_matrix(6, t, 300, 51);
  StreamOptions opts = drift_options();
  opts.drift_patience = 1000;
  const auto probe = std::make_shared<FitProbe>();
  MethodStream stream(std::make_shared<const GenerationMethod>(6, probe),
                      opts);
  stream.push_all(data);
  EXPECT_GT(stream.drift_flags(), 0u);
  EXPECT_EQ(stream.drift_retrains(), 0u);
  EXPECT_EQ(stream.retrain_count(), 0u);
}

TEST(MethodStreamDrift, CountersStayZeroUnderOtherPolicies) {
  const auto probe = std::make_shared<FitProbe>();
  MethodStream stream(std::make_shared<const GenerationMethod>(4, probe),
                      retrain_options(RetrainPolicy::kSync));
  push_columns(stream, 100);
  EXPECT_GT(stream.retrain_count(), 0u);  // Periodic retrains fired...
  EXPECT_EQ(stream.drift_windows(), 0u);  // ...but nothing was scored.
  EXPECT_EQ(stream.drift_flags(), 0u);
  EXPECT_EQ(stream.drift_retrains(), 0u);
  EXPECT_EQ(stream.last_drift_score(), 0.0);
}

TEST(MethodStreamDrift, OptionValidation) {
  StreamOptions opts = drift_options();
  opts.drift_threshold = 0.0;  // kOnDrift needs a positive threshold.
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = drift_options();
  opts.retrain_interval = 40;  // The detector replaces the schedule.
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = drift_options();
  opts.drift_patience = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = drift_options();
  opts.drift_pairs = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  opts = stream_options();
  opts.drift_threshold = 0.5;  // Meaningless outside kOnDrift.
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  EXPECT_NO_THROW(drift_options().validate());
}

}  // namespace
}  // namespace csm::core
