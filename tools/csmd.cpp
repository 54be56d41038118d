// csmd — the fleet monitoring daemon.
//
// Hosts one core::StreamEngine behind a unix-domain socket speaking the
// CSMF frame protocol (docs/PROTOCOL.md): collector clients push sensor
// sample batches at named nodes, add and remove nodes live (models inline
// or resolved from a mmap-able model pack), drain per-node signature
// queues and scrape fleet-wide stats. `csmcli push` / `csmcli fleet-stats`
// are the matching clients.
//
//   csmd --socket PATH [--window WL] [--step WS] [--history H]
//        [--retrain N] [--retrain-threads N] [--drift-threshold X]
//        [--drift-patience N] [--max-pending N] [--pack FILE]
//        [--record FILE]
//   csmd --version
//
// --max-pending bounds each node's undrained signature queue (drop-oldest
// with a per-node counter; 0 = unbounded). --retrain-threads N switches
// retraining to the async shadow-fit pipeline backed by a pool of N worker
// threads (the default, and N = 0, is the synchronous in-line retrain);
// --drift-threshold X switches to the drift-triggered kOnDrift policy
// instead and conflicts with --retrain/--retrain-threads in either order,
// the same rule `csmcli stream` and `replay` apply. --record FILE captures
// every sample batch clients push as a CSMR recording (docs/RECORDING.md),
// sealed on shutdown — feed it to `csmcli replay` to re-drive the run.
// SIGINT/SIGTERM shut the daemon down cleanly: the socket file is
// unlinked, engine totals printed and the recording finished.
//
// Exit status: 0 on clean shutdown, 1 on usage errors, 2 on runtime
// failures (e.g. a live daemon already owns the socket).
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "baselines/registry.hpp"
#include "benchkit/args.hpp"
#include "benchkit/benchkit.hpp"
#include "core/stream_engine.hpp"
#include "net/daemon.hpp"
#include "replay/engine_recorder.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage: csmd --socket PATH [--window WL] [--step WS]\n"
      << "            [--history H] [--retrain N] [--retrain-threads N]\n"
      << "            [--drift-threshold X] [--drift-patience N]\n"
      << "            [--max-pending N] [--pack FILE] [--record FILE]\n"
      << "       csmd --version\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csm;

  net::DaemonOptions options;
  options.stream.window_length = 60;
  options.stream.window_step = 10;
  std::string record_path;
  // Retrain flags are collected here and applied after the parse loop, so
  // the result does not depend on the order they were given in.
  std::size_t retrain_threads = 0;
  double drift_threshold = 0.0;
  bool drift_patience_set = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next_value = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          throw std::invalid_argument(std::string(flag) + ": missing value");
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else if (arg == "--version") {
        std::cout << "csmd " << benchkit::git_sha() << '\n';
        return 0;
      } else if (arg == "--socket") {
        options.socket_path = next_value("--socket");
      } else if (arg == "--window") {
        options.stream.window_length =
            benchkit::parse_size_t("--window", next_value("--window"));
      } else if (arg == "--step") {
        options.stream.window_step =
            benchkit::parse_size_t("--step", next_value("--step"));
      } else if (arg == "--history") {
        options.stream.history_length =
            benchkit::parse_size_t("--history", next_value("--history"));
      } else if (arg == "--retrain") {
        options.stream.retrain_interval =
            benchkit::parse_size_t("--retrain", next_value("--retrain"));
      } else if (arg == "--retrain-threads") {
        retrain_threads = benchkit::parse_size_t(
            "--retrain-threads", next_value("--retrain-threads"));
      } else if (arg == "--drift-threshold") {
        drift_threshold = benchkit::parse_double(
            "--drift-threshold", next_value("--drift-threshold"));
        if (drift_threshold <= 0.0) {
          throw std::invalid_argument(
              "--drift-threshold: must be positive (got " +
              std::to_string(drift_threshold) + ")");
        }
      } else if (arg == "--drift-patience") {
        options.stream.drift_patience = benchkit::parse_size_t(
            "--drift-patience", next_value("--drift-patience"));
        drift_patience_set = true;
      } else if (arg == "--max-pending") {
        options.stream.max_pending = benchkit::parse_size_t(
            "--max-pending", next_value("--max-pending"));
      } else if (arg == "--pack") {
        options.pack_path = next_value("--pack");
      } else if (arg == "--record") {
        record_path = next_value("--record");
      } else {
        std::cerr << "unknown option: " << arg << '\n';
        usage(std::cerr);
        return 1;
      }
    }
    if (options.socket_path.empty()) {
      std::cerr << "error: --socket PATH is required\n";
      usage(std::cerr);
      return 1;
    }
    // The drift detector replaces the periodic schedule (and runs inline),
    // so it cannot be combined with either periodic retrain flag.
    if (drift_threshold > 0.0 &&
        (options.stream.retrain_interval > 0 || retrain_threads > 0)) {
      std::cerr << "error: --drift-threshold conflicts with --retrain/"
                   "--retrain-threads (kOnDrift replaces the periodic "
                   "retrain schedule)\n";
      usage(std::cerr);
      return 1;
    }
    // Patience counts drift-flagged windows, which only --drift-threshold
    // produces; alone it would be silently ignored.
    if (drift_patience_set && drift_threshold <= 0.0) {
      std::cerr << "error: --drift-patience requires --drift-threshold "
                   "(patience counts windows scored over the threshold)\n";
      usage(std::cerr);
      return 1;
    }
    if (retrain_threads > 0) {
      options.stream.retrain_policy = core::RetrainPolicy::kAsync;
      options.stream.retrain_threads = retrain_threads;
    }
    if (drift_threshold > 0.0) {
      options.stream.retrain_policy = core::RetrainPolicy::kOnDrift;
      options.stream.drift_threshold = drift_threshold;
    }
    options.stream.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  options.version = benchkit::git_sha();
  options.registry = &baselines::default_registry();
  try {
    // --record: tap the engine into a CSMR capture. The daemon loop is
    // single-threaded and the engine dies inside run_daemon, so the file
    // can be sealed right after it returns.
    std::optional<replay::EngineRecorder> recorder;
    if (!record_path.empty()) {
      recorder.emplace(record_path);
      options.engine_hook = [&recorder](core::StreamEngine& engine) {
        engine.set_tap([&recorder](std::size_t node,
                                   const common::MatrixView& columns) {
          recorder->tap(node, columns);
        });
      };
      options.on_node_add = [&recorder](std::size_t index,
                                        const std::string& name,
                                        std::uint32_t n_sensors) {
        recorder->on_node_add(index, name, n_sensors);
      };
    }
    const int rc = net::run_daemon(options);
    if (recorder) {
      recorder->finish();
      std::cout << "csmd: recorded " << recorder->batch_count()
                << " batches (" << recorder->n_nodes() << " nodes) to "
                << record_path << '\n';
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
