#include "core/streaming.hpp"

#include <stdexcept>
#include <string>

namespace csm::core {

void StreamOptions::validate() const {
  if (window_length == 0) {
    throw std::invalid_argument(
        "StreamOptions: window_length must be positive");
  }
  if (window_step == 0) {
    throw std::invalid_argument("StreamOptions: window_step must be positive");
  }
  // Written as <= so the check cannot be defeated by window_length + 1
  // overflowing to 0.
  if (history_length <= window_length) {
    throw std::invalid_argument(
        "StreamOptions: history_length (" + std::to_string(history_length) +
        ") must exceed window_length (" + std::to_string(window_length) +
        ") so the ring can hold one window plus the derivative seed column; "
        "anything smaller would also make retraining silently unreachable");
  }
  if (retrain_threads == 0) {
    throw std::invalid_argument(
        "StreamOptions: retrain_threads must be at least 1 (the pool is only "
        "created under kAsync, but its size must be sane)");
  }
  if (retrain_policy == RetrainPolicy::kOnDrift) {
    if (!(drift_threshold > 0.0)) {
      throw std::invalid_argument(
          "StreamOptions: drift_threshold must be positive under kOnDrift "
          "(it is the score at which a window counts as drifted)");
    }
    if (retrain_interval != 0) {
      throw std::invalid_argument(
          "StreamOptions: retrain_interval must be 0 under kOnDrift — the "
          "drift detector replaces the periodic schedule, it does not "
          "augment it");
    }
    if (drift_patience == 0) {
      throw std::invalid_argument(
          "StreamOptions: drift_patience must be at least 1");
    }
    if (drift_pairs == 0) {
      throw std::invalid_argument(
          "StreamOptions: drift_pairs must be at least 1");
    }
  } else if (drift_threshold != 0.0) {
    throw std::invalid_argument(
        "StreamOptions: drift_threshold is only meaningful under kOnDrift "
        "(set retrain_policy accordingly)");
  }
}

}  // namespace csm::core
