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
// SIGINT/SIGTERM shut the daemon down cleanly: the engine totals are
// printed, the recording sealed and the socket file unlinked.
//
// The daemon is this file: it owns the engine (with the recorder as its
// ingest tap), the model pack, the FleetServer and its poll loop.
//
// Exit status: 0 on clean shutdown, 1 on usage errors, 2 on runtime
// failures (e.g. a live daemon already owns the socket).
#include <csignal>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "baselines/registry.hpp"
#include "benchkit/args.hpp"
#include "benchkit/benchkit.hpp"
#include "core/model_pack.hpp"
#include "core/stream_engine.hpp"
#include "net/server.hpp"
#include "net/unix_socket.hpp"
#include "replay/recording.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int /*signum*/) { g_stop = 1; }

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

  core::StreamOptions stream;
  stream.window_length = 60;
  stream.window_step = 10;
  std::string socket_path;
  std::string pack_path;
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
        socket_path = next_value("--socket");
      } else if (arg == "--window") {
        stream.window_length =
            benchkit::parse_size_t("--window", next_value("--window"));
      } else if (arg == "--step") {
        stream.window_step =
            benchkit::parse_size_t("--step", next_value("--step"));
      } else if (arg == "--history") {
        stream.history_length =
            benchkit::parse_size_t("--history", next_value("--history"));
      } else if (arg == "--retrain") {
        stream.retrain_interval =
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
        stream.drift_patience = benchkit::parse_size_t(
            "--drift-patience", next_value("--drift-patience"));
        drift_patience_set = true;
      } else if (arg == "--max-pending") {
        stream.max_pending = benchkit::parse_size_t(
            "--max-pending", next_value("--max-pending"));
      } else if (arg == "--pack") {
        pack_path = next_value("--pack");
      } else if (arg == "--record") {
        record_path = next_value("--record");
      } else {
        std::cerr << "unknown option: " << arg << '\n';
        usage(std::cerr);
        return 1;
      }
    }
    if (socket_path.empty()) {
      std::cerr << "error: --socket PATH is required\n";
      usage(std::cerr);
      return 1;
    }
    // The drift detector replaces the periodic schedule (and runs inline),
    // so it cannot be combined with either periodic retrain flag.
    if (drift_threshold > 0.0 &&
        (stream.retrain_interval > 0 || retrain_threads > 0)) {
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
      stream.retrain_policy = core::RetrainPolicy::kAsync;
      stream.retrain_threads = retrain_threads;
    }
    if (drift_threshold > 0.0) {
      stream.retrain_policy = core::RetrainPolicy::kOnDrift;
      stream.drift_threshold = drift_threshold;
    }
    stream.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  try {
    // --record: the recorder is the engine's ingest tap, so the capture
    // declares every node a client adds and holds every batch the engine
    // ingests. Declared first, it outlives the engine holding its tap.
    std::optional<replay::Recorder> recorder;
    if (!record_path.empty()) recorder.emplace(record_path);
    core::StreamEngine engine(stream);
    if (recorder) engine.set_tap(recorder->tap());
    std::optional<core::ModelPack> pack;
    if (!pack_path.empty()) pack = core::ModelPack::open(pack_path);

    const std::string version = benchkit::git_sha();
    net::FleetServerOptions server_options;
    server_options.server_version = version;
    server_options.registry = &baselines::default_registry();
    server_options.pack = pack.has_value() ? &*pack : nullptr;
    // Throws TransportError when a live daemon already owns the socket.
    net::FleetServer server(net::listen_unix(socket_path), engine,
                            std::move(server_options));

    struct sigaction action {};
    action.sa_handler = handle_stop_signal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    std::printf("csmd %s: listening on unix:%s (wl=%zu, ws=%zu, "
                "history=%zu, max_pending=%zu%s%s)\n",
                version.c_str(), socket_path.c_str(), stream.window_length,
                stream.window_step, stream.history_length,
                stream.max_pending, pack.has_value() ? ", pack=" : "",
                pack_path.c_str());
    std::fflush(stdout);

    // A signal interrupts the poll with EINTR, so shutdown latency is the
    // poll granularity at worst.
    while (g_stop == 0) {
      server.poll_once(200);
    }

    const core::EngineStats stats = engine.stats();
    std::printf("csmd: shutting down — %llu frames handled, %llu samples "
                "ingested, %llu signatures emitted, %llu dropped across "
                "%llu live nodes\n",
                static_cast<unsigned long long>(server.frames_handled()),
                static_cast<unsigned long long>(stats.samples),
                static_cast<unsigned long long>(stats.signatures),
                static_cast<unsigned long long>(stats.dropped),
                static_cast<unsigned long long>(stats.nodes));
    if (recorder) {
      engine.set_tap({});
      recorder->finish();
      std::cout << "csmd: recorded " << recorder->batch_count()
                << " batches (" << recorder->n_nodes() << " nodes) to "
                << record_path << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
