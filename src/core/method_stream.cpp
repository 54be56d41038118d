#include "core/method_stream.hpp"

#include <algorithm>
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
// `result` under `mu` and flips `done` last; once the ingest thread has
// observed done under `mu`, the fields are frozen.
struct MethodStream::ShadowFit {
  std::mutex mu;
  bool done = false;
  FitResult result;

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
  return step(common::MatrixView::column_segments(column, {}, n_sensors_), 0);
}

std::vector<std::vector<double>> MethodStream::push_all(
    const common::MatrixView& columns) {
  if (columns.rows() != n_sensors_) {
    throw std::invalid_argument("MethodStream::push_all: wrong sensor count");
  }
  std::vector<std::vector<double>> out;
  for (std::size_t c = 0; c < columns.cols(); ++c) {
    if (auto features = step(columns, c)) out.push_back(std::move(*features));
  }
  return out;
}

std::optional<std::vector<double>> MethodStream::step(
    const common::MatrixView& columns, std::size_t c) {
  // Straight into the recycled ring slot; no per-column temporary.
  const std::span<double> slot = history_.push_slot();
  columns.copy_col(c, slot);
  ++counters_.samples;
  if (state_) state_->push(slot);
  if (drift_) drift_->push(slot);
  // The periodic schedule (kSync, kAsync). validate() pins the interval to
  // 0 under kOnDrift, whose refits fire at emit boundaries instead.
  if (options_.retrain_interval != 0 &&
      counters_.samples % options_.retrain_interval == 0) {
    refit();
  }
  return emit_if_due();
}

std::optional<std::vector<double>> MethodStream::emit_if_due() {
  if (counters_.samples < next_emit_at_) return std::nullopt;
  next_emit_at_ += options_.window_step;

  // The emit boundary is where a finished shadow fit is installed: one
  // shared_ptr store, so every signature is computed by exactly one model
  // generation (never a half-swapped state). No-op without a shadow fit.
  land_shadow_fit();

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

bool MethodStream::refit() {
  // A fit needs at least one window and its seed column.
  if (history_.size() < options_.window_length + 1) return false;
  if (options_.retrain_policy == RetrainPolicy::kAsync) {
    launch_shadow_fit();
    return false;
  }
  // Inline: the whole retained history flows to fit() as a view, no
  // to_matrix(). The context only recycles scratch buffers, so results
  // stay byte-identical.
  if (!spare_context_) spare_context_ = std::make_shared<TrainContext>();
  return install(fit_step(*method_, history_.history_view(), *spare_context_));
}

MethodStream::FitResult MethodStream::fit_step(
    const SignatureMethod& base, const common::MatrixView& history,
    TrainContext& ctx) noexcept {
  FitResult out;
  const common::Timer timer;
  try {
    out.method = base.fit(history, ctx);
  } catch (const common::OperationCancelled&) {
    // Superseded: neither a model nor a failure.
  } catch (...) {
    // A degenerate history (say, a sensor that reported NaN throughout)
    // or any other fit error: the caller keeps its model.
    out.failed = true;
  }
  out.seconds = timer.seconds();
  return out;
}

bool MethodStream::install(FitResult&& fit) {
  if (!fit.method) {
    if (fit.failed) ++counters_.retrain_failures;
    return false;
  }
  set_method(std::move(fit.method));
  ++counters_.retrains;
  counters_.retrain_latency_us.add(fit.seconds * 1e6);
  return true;
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
  // Inline, like kSync: deterministic, which is what lets the tests pin
  // "exactly one retrain".
  if (refit()) ++counters_.drift_retrains;
  // The stream now tracks the new regime, with or without a new model:
  // rebuild the reference from the window that triggered the refit, so a
  // completed shift scores clean and costs one fit attempt, not one per
  // patience streak. Only the reference changes; the chunk summaries
  // describe the data, not the model, and carry on into the next window.
  drift_ref_ = drift_->reference();
}

void MethodStream::launch_shadow_fit() {
  // A fit that finished since the last emit boundary is installed first; one
  // still running is superseded. The cancelled job keeps its context (it may
  // be mid-kernel in the workspace); a fresh one is minted below.
  land_shadow_fit();
  if (shadow_) {
    shadow_->ctx->cancel.cancel();
    ++counters_.retrain_aborts;
  }

  auto state = std::make_shared<ShadowFit>();
  state->ctx = spare_context_ ? std::move(spare_context_)
                              : std::make_shared<TrainContext>();
  state->ctx->cancel = common::CancelToken();  // Fresh, unfired token.
  state->snapshot = history_.to_matrix();
  state->base = method_;
  shadow_ = state;

  executor_->submit([state] {
    FitResult result = fit_step(
        *state->base, common::MatrixView(state->snapshot), *state->ctx);
    const std::lock_guard<std::mutex> lock(state->mu);
    state->result = std::move(result);
    state->done = true;
  });
}

void MethodStream::land_shadow_fit() {
  if (!shadow_) return;
  {
    const std::lock_guard<std::mutex> lock(shadow_->mu);
    if (!shadow_->done) return;  // Still fitting; the old model serves.
  }
  const std::shared_ptr<ShadowFit> state = std::move(shadow_);
  install(std::move(state->result));
  // The fit thread is done with the workspace: keep it for the next fit.
  if (!spare_context_) spare_context_ = std::move(state->ctx);
}

}  // namespace csm::core
