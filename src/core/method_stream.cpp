#include "core/method_stream.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/cancel.hpp"
#include "common/timer.hpp"
#include "core/retrain_executor.hpp"

namespace csm::core {

// Co-owned by the stream and the worker job, so either side may outlive the
// other: a stream torn down mid-fit just cancels and walks away, an executor
// torn down with the job still queued simply never runs it. The worker writes
// result/error/fit_seconds under `mu` and flips `done` last; once the ingest
// thread has observed done under `mu`, the fields are frozen.
struct MethodStream::ShadowFit {
  std::mutex mu;
  bool done = false;
  bool cancelled = false;
  std::shared_ptr<const SignatureMethod> result;
  std::exception_ptr error;
  double fit_seconds = 0.0;

  std::shared_ptr<TrainContext> ctx;  ///< Workspace + this fit's token.
  common::Matrix snapshot;            ///< History copy the fit reads.
  std::shared_ptr<const SignatureMethod> base;  ///< Method being refitted.
};

MethodStream::MethodStream(std::shared_ptr<const SignatureMethod> method,
                           StreamOptions options, std::size_t n_sensors,
                           RetrainExecutor* executor)
    : method_(std::move(method)), options_(options), executor_(executor) {
  options_.validate();
  if (options_.retrain_policy == RetrainPolicy::kAsync &&
      executor_ == nullptr) {
    throw std::invalid_argument(
        "MethodStream: kAsync needs a RetrainExecutor to run its shadow fits");
  }
  if (!method_) {
    throw std::invalid_argument("MethodStream: null method");
  }
  if (!method_->trained()) {
    throw std::invalid_argument("MethodStream: method \"" + method_->name() +
                                "\" is untrained; fit() it first");
  }
  const std::size_t bound = method_->n_sensors();
  if (bound != 0 && n_sensors != 0 && bound != n_sensors) {
    throw std::invalid_argument(
        "MethodStream: sensor count contradicts the method's");
  }
  n_sensors_ = bound != 0 ? bound : n_sensors;
  if (n_sensors_ == 0) {
    throw std::invalid_argument(
        "MethodStream: sensor count required for method \"" +
        method_->name() + "\"");
  }
  history_ = common::RingMatrix(n_sensors_, options_.history_length);
  state_ = method_->make_stream_state(options_.window_length);
  next_emit_at_ = options_.window_length;
  if (options_.retrain_policy == RetrainPolicy::kOnDrift) {
    drift_.emplace(n_sensors_, options_.window_length, options_.window_step,
                   options_.drift_pairs);
  }
}

MethodStream::~MethodStream() {
  // A still-running shadow fit unwinds at its next cancellation checkpoint;
  // it only touches the ShadowFit state it co-owns, never this stream.
  if (shadow_) shadow_->ctx->cancel.cancel();
}

std::optional<std::vector<double>> MethodStream::push(
    std::span<const double> column) {
  if (column.size() != n_sensors_) {
    throw std::invalid_argument("MethodStream::push: wrong column length");
  }
  const std::span<double> slot = history_.push_slot();
  std::copy(column.begin(), column.end(), slot.begin());
  ++counters_.samples;
  if (state_) state_->push(slot);
  if (drift_) drift_->push(slot);

  maybe_retrain();
  return emit_if_due();
}

std::vector<std::vector<double>> MethodStream::push_all(
    const common::MatrixView& columns) {
  if (columns.rows() != n_sensors_) {
    throw std::invalid_argument("MethodStream::push_all: wrong sensor count");
  }
  std::vector<std::vector<double>> out;
  for (std::size_t c = 0; c < columns.cols(); ++c) {
    // Straight into the recycled ring slot; no per-column temporary.
    const std::span<double> slot = history_.push_slot();
    columns.copy_col(c, slot);
    ++counters_.samples;
    if (state_) state_->push(slot);
    if (drift_) drift_->push(slot);

    maybe_retrain();
    if (auto features = emit_if_due()) out.push_back(std::move(*features));
  }
  return out;
}

std::optional<std::vector<double>> MethodStream::emit_if_due() {
  if (counters_.samples < next_emit_at_) return std::nullopt;
  next_emit_at_ += options_.window_step;

  // The emit boundary is where a finished shadow fit becomes visible: one
  // shared_ptr store, so every signature is computed by exactly one model
  // generation (never a half-swapped state). No-op under kSync.
  apply_pending_swap();

  // Score (and possibly retrain on) the window BEFORE computing it, so the
  // first signature after a detected regime change already comes from the
  // refitted model.
  if (drift_) maybe_drift_retrain();
  const std::size_t wl = options_.window_length;
  ++counters_.signatures;
  // The window is seeded with the raw column preceding it when one exists;
  // the method decides what to do with the seed (CS feeds its derivative
  // channel, others ignore it).
  const bool seeded = history_.size() > wl;
  if (state_) return state_->emit(seeded);
  // No stream state: hand the newest wl columns to the method as a
  // zero-copy view over the ring segments, plus a span over the seed.
  const common::MatrixView window = history_.latest_view(wl);
  if (seeded) {
    const std::span<const double> seed = history_.newest(wl);
    return method_->compute_streaming(window, &seed);
  }
  return method_->compute_streaming(window, nullptr);
}

void MethodStream::set_method(std::shared_ptr<const SignatureMethod> method) {
  std::unique_ptr<StreamState> state =
      method->make_stream_state(options_.window_length);
  if (state) {
    // The newest wl + 1 columns are all a window and its seed can reach.
    const std::size_t replay =
        std::min(history_.size(), options_.window_length + 1);
    for (std::size_t back = replay; back-- > 0;) {
      state->push(history_.newest(back));
    }
  }
  method_ = std::move(method);
  state_ = std::move(state);
}

void MethodStream::maybe_retrain() {
  if (options_.retrain_interval == 0) return;
  if (counters_.samples % options_.retrain_interval != 0) return;
  if (history_.size() < options_.window_length + 1) return;
  switch (options_.retrain_policy) {
    case RetrainPolicy::kSync:
      refit_inline();
      break;
    case RetrainPolicy::kAsync:
      launch_shadow_fit();
      break;
    case RetrainPolicy::kOnDrift:
      // Unreachable: validate() forces retrain_interval == 0 under
      // kOnDrift, so the early return above already fired. The drift
      // check runs at emit boundaries (maybe_drift_retrain), not here.
      break;
  }
}

void MethodStream::maybe_drift_retrain() {
  // The tracker completed this window on the push that made it due: its
  // chunk summaries already cover exactly the newest wl columns.
  if (drift_ref_.empty()) {
    // First emitted window: presumed in-regime (the method was trained on
    // data like it), so it becomes the reference rather than being scored.
    drift_ref_ = drift_->reference();
    return;
  }
  ++counters_.drift_windows;
  last_drift_score_ = drift_->score(drift_ref_);
  if (last_drift_score_ < options_.drift_threshold) {
    drift_streak_ = 0;
    return;
  }
  ++counters_.drift_flags;
  if (++drift_streak_ < options_.drift_patience) return;
  drift_streak_ = 0;
  if (history_.size() < options_.window_length + 1) return;
  // Inline, like kSync — deterministic, which is what lets the tests pin
  // "exactly one retrain".
  refit_inline();
  ++counters_.drift_retrains;
  // The stream now tracks the new regime: rebuild the reference from the
  // window that triggered the retrain so a completed shift scores clean.
  // Only the reference changes; the chunk summaries describe the data, not
  // the model, and carry on into the next window.
  drift_ref_ = drift_->reference();
}

void MethodStream::refit_inline() {
  // The whole retained history flows to fit() as a view — no to_matrix().
  // The context only recycles scratch buffers, so results stay
  // byte-identical.
  if (!spare_context_) spare_context_ = std::make_shared<TrainContext>();
  const common::Timer timer;
  set_method(std::shared_ptr<const SignatureMethod>(
      method_->fit(history_.history_view(), *spare_context_)));
  ++counters_.retrains;
  counters_.retrain_latency_us.add(timer.seconds() * 1e6);
}

void MethodStream::launch_shadow_fit() {
  if (shadow_) {
    bool done = false;
    {
      const std::lock_guard<std::mutex> lock(shadow_->mu);
      done = shadow_->done;
    }
    if (!done) {
      // Supersede the in-flight fit. The cancelled job keeps its context
      // (it may be mid-kernel in the workspace); a fresh one is minted
      // below.
      shadow_->ctx->cancel.cancel();
      ++counters_.retrain_aborts;
      shadow_.reset();
    } else {
      // Finished, but no emit boundary swapped it in yet. Its result is
      // stale relative to the history this retrain is about to snapshot.
      const std::exception_ptr error = shadow_->error;
      if (shadow_->result) ++counters_.retrain_aborts;
      reclaim_context(std::move(shadow_->ctx));
      shadow_.reset();
      // Surface a failed fit on the ingest thread, where kSync would have.
      if (error) std::rethrow_exception(error);
    }
  }

  auto state = std::make_shared<ShadowFit>();
  if (spare_context_) {
    state->ctx = std::move(spare_context_);
    state->ctx->cancel = common::CancelToken();  // Fresh, unfired token.
  } else {
    state->ctx = std::make_shared<TrainContext>();
  }
  state->snapshot = history_.to_matrix();
  state->base = method_;
  shadow_ = state;

  executor_->submit([state] {
    const common::Timer timer;
    try {
      auto fitted =
          state->base->fit(common::MatrixView(state->snapshot), *state->ctx);
      const double seconds = timer.seconds();
      const std::lock_guard<std::mutex> lock(state->mu);
      state->fit_seconds = seconds;
      state->result = std::move(fitted);
      state->done = true;
    } catch (const common::OperationCancelled&) {
      const std::lock_guard<std::mutex> lock(state->mu);
      state->cancelled = true;
      state->done = true;
    } catch (...) {
      const std::lock_guard<std::mutex> lock(state->mu);
      state->error = std::current_exception();
      state->done = true;
    }
  });
}

void MethodStream::apply_pending_swap() {
  if (!shadow_) return;
  {
    const std::lock_guard<std::mutex> lock(shadow_->mu);
    if (!shadow_->done) return;  // Still fitting; keep serving the old model.
  }
  const std::shared_ptr<ShadowFit> state = std::move(shadow_);
  if (state->error) {
    reclaim_context(std::move(state->ctx));
    std::rethrow_exception(state->error);
  }
  if (state->cancelled || !state->result) {
    reclaim_context(std::move(state->ctx));
    return;
  }
  set_method(state->result);
  ++counters_.retrains;
  counters_.retrain_latency_us.add(state->fit_seconds * 1e6);
  reclaim_context(std::move(state->ctx));
}

void MethodStream::reclaim_context(std::shared_ptr<TrainContext> ctx) {
  // Only reached once the fit thread that used `ctx` is provably done with
  // it (done observed under the ShadowFit mutex, or it never launched).
  if (!spare_context_) spare_context_ = std::move(ctx);
}

}  // namespace csm::core
