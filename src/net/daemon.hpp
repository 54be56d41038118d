// Daemon lifecycle around a FleetServer: build the engine, bind the unix
// socket, serve until SIGINT/SIGTERM, report totals on the way out. The csmd
// binary is a thin argument parser over run_daemon().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/streaming.hpp"

namespace csm::core {
class MethodRegistry;
class StreamEngine;
}  // namespace csm::core

namespace csm::net {

struct DaemonOptions {
  std::string socket_path;     ///< Unix-domain socket to listen on.
  core::StreamOptions stream;  ///< Engine config (incl. max_pending).
  std::string pack_path;       ///< Optional ModelPack for by-id node adds.
  std::string version;         ///< Build identity reported in stats.
  /// Decodes inline model records in node-add frames (required).
  const core::MethodRegistry* registry = nullptr;
  /// Called with the engine right after construction, before the socket
  /// binds — the seam csmd --record uses to install an ingest tap without
  /// the net layer depending on the replay layer.
  std::function<void(core::StreamEngine&)> engine_hook;
  /// Forwarded to FleetServerOptions::on_node_add (fires on every
  /// successful kNodeAdd with the engine index, name and sensor count).
  std::function<void(std::size_t index, const std::string& name,
                     std::uint32_t n_sensors)>
      on_node_add;
};

/// Runs the daemon loop on the calling thread until SIGINT or SIGTERM.
/// Binds the socket (throwing TransportError if a live daemon already owns
/// it), serves, then shuts down cleanly: the listener is closed, the
/// socket file unlinked and the engine totals printed. Returns the process
/// exit code.
int run_daemon(const DaemonOptions& options);

}  // namespace csm::net
