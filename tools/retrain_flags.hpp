// The retrain flags `csmcli stream`/`replay` and `csmd` share: --retrain N
// (refit every N samples), --retrain-threads N (as kAsync shadow fits on N
// workers; 0 = inline), --drift-threshold X (kOnDrift instead: refit once
// the drift score holds >= X) and --drift-patience N (flagged windows in a
// row). In any order: parse() collects them, check() refuses what one flag
// would silently override or ignore, apply() maps them onto StreamOptions.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

#include "benchkit/args.hpp"
#include "core/streaming.hpp"

namespace csm::tools {

struct RetrainFlags {
  std::size_t interval = 0;
  std::size_t threads = 0;
  double drift_threshold = 0.0;
  std::size_t drift_patience = 1;
  bool drift_patience_set = false;

  /// Consumes `arg` if it is one of the four flags, reading its value via
  /// next_value(flag). Throws std::invalid_argument for a malformed value
  /// or a non-positive threshold.
  template <typename NextValue>
  bool parse(std::string_view arg, NextValue&& next_value) {
    if (arg == "--retrain") {
      interval = benchkit::parse_size_t("--retrain", next_value("--retrain"));
    } else if (arg == "--retrain-threads") {
      threads = benchkit::parse_size_t("--retrain-threads",
                                       next_value("--retrain-threads"));
    } else if (arg == "--drift-threshold") {
      drift_threshold = benchkit::parse_double(
          "--drift-threshold", next_value("--drift-threshold"));
      if (drift_threshold <= 0.0) {
        throw std::invalid_argument(
            "--drift-threshold: must be positive (got " +
            std::to_string(drift_threshold) + ")");
      }
    } else if (arg == "--drift-patience") {
      drift_patience = benchkit::parse_size_t(
          "--drift-patience", next_value("--drift-patience"));
      drift_patience_set = true;
    } else {
      return false;
    }
    return true;
  }

  /// Throws std::invalid_argument naming the conflict.
  void check() const {
    if (drift_threshold > 0.0 && (interval > 0 || threads > 0)) {
      throw std::invalid_argument(
          "--drift-threshold conflicts with --retrain/--retrain-threads "
          "(kOnDrift replaces the periodic retrain schedule)");
    }
    if (drift_patience_set && drift_threshold <= 0.0) {
      throw std::invalid_argument(
          "--drift-patience requires --drift-threshold (patience counts "
          "windows scored over the threshold)");
    }
  }

  /// Without --retrain-threads or --drift-threshold, kSync refits inline.
  void apply(core::StreamOptions& stream) const {
    stream.retrain_interval = interval;
    if (threads > 0) {
      stream.retrain_policy = core::RetrainPolicy::kAsync;
      stream.retrain_threads = threads;
    }
    if (drift_threshold > 0.0) {
      stream.retrain_policy = core::RetrainPolicy::kOnDrift;
      stream.drift_threshold = drift_threshold;
      stream.drift_patience = drift_patience;
    }
  }
};

}  // namespace csm::tools
