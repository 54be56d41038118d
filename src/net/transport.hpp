// Byte transports under the CSMF frame protocol.
//
// A Connection moves raw bytes; framing lives entirely in net/frame.hpp, so
// the server and the clients are transport-agnostic. One implementation
// ships: the unix-domain socket (net/unix_socket.hpp), which csmd serves
// on and the tests and benches run over. The interfaces stay so a wrapper
// can decorate the transport (perfbench times reads, writes and waits that
// way) and a TCP transport can drop in behind them later.
//
// Connections are non-blocking at the interface: read_some/write_some
// return 0 instead of blocking, and wait_readable/wait_writable provide the
// blocking edge for clients that want simple request/response calls. A
// Listener multiplexes one server thread over many connections: wait()
// blocks until a new connection can be accepted, any of the given
// connections has bytes (or EOF) to deliver, or one whose last write was
// cut short can take more bytes.
//
// Threading: a Listener and the connections it accepted may share state
// (the unix transport tracks cut-short writes there), so use them from one
// thread, as FleetServer does, or serialise every call on them with one
// lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "net/frame.hpp"

namespace csm::net {

/// Transport-layer failure (socket error, connect to a dead daemon, EOF in
/// the middle of a frame exchange).
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One bidirectional byte stream. Not thread-safe; one owner at a time.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Reads up to out.size() bytes; returns the count actually read. 0
  /// means "nothing available right now" — check open() to distinguish a
  /// drained peer close (EOF) from would-block. Throws TransportError on a
  /// transport fault.
  virtual std::size_t read_some(std::span<std::uint8_t> out) = 0;

  /// Writes up to data.size() bytes; returns the count accepted (0 =
  /// would-block). A peer that vanished mid-write closes the connection
  /// (open() turns false) instead of throwing — disconnects are routine.
  /// Only such a failed write or close() stops writes: after EOF on the
  /// read side, a peer that merely half-closed still receives bytes.
  virtual std::size_t write_some(std::span<const std::uint8_t> data) = 0;

  /// True until close() is called, a write fails, or the peer's bytes are
  /// exhausted (peer closed AND everything it sent has been read).
  virtual bool is_open() const noexcept = 0;

  virtual void close() noexcept = 0;

  /// Blocks up to timeout_ms (-1 = indefinitely) until read_some would
  /// make progress (data or EOF). Returns false on timeout.
  virtual bool wait_readable(int timeout_ms) = 0;

  /// Blocks up to timeout_ms (-1 = indefinitely) until write_some would
  /// make progress. Returns false on timeout.
  virtual bool wait_writable(int timeout_ms) = 0;

  /// OS handle for poll()-based multiplexing (the socket fd); -1 for a
  /// transport that has none.
  virtual int native_handle() const noexcept { return -1; }

  /// Short peer label for logs ("unix:fd=7").
  virtual std::string peer_name() const = 0;
};

/// Accepts connections and multiplexes readiness for a single-threaded
/// server loop.
class Listener {
 public:
  virtual ~Listener() = default;

  /// The next pending connection, or nullptr when none is waiting.
  virtual std::unique_ptr<Connection> accept() = 0;

  /// Blocks up to timeout_ms (-1 = indefinitely) until a connection is
  /// waiting to be accepted, any connection in `conns` has readable
  /// bytes/EOF, or one whose last write_some was cut short can take more
  /// bytes. Returns false on timeout. The transport tracks cut-short writes
  /// itself, so a decorator that forwards native_handle() and write_some()
  /// keeps this behaviour; the caller must then write again (or close), or
  /// the wait keeps returning. `conns` must be connections of this
  /// listener's transport.
  virtual bool wait(std::span<Connection* const> conns, int timeout_ms) = 0;

  virtual void close() noexcept = 0;

  /// Where this listener listens ("unix:/run/csmd.sock").
  virtual std::string address() const = 0;
};

// ---------------------------------------------------------------------------
// Blocking frame helpers — the client-side edge (csmcli push/fleet-stats,
// tests). The server loop never blocks per-connection and uses
// FrameReader/FrameWriter directly instead.
// ---------------------------------------------------------------------------

/// Writes all of `bytes`, waiting for writability as needed. Throws
/// TransportError if the connection closes first.
void write_all(Connection& conn, std::span<const std::uint8_t> bytes);

/// Encodes and writes one frame (see write_all).
void write_frame(Connection& conn, const Frame& frame);

/// Reads until `reader` yields one complete frame. Returns std::nullopt on
/// a clean EOF at a frame boundary. Throws TransportError on timeout
/// (timeout_ms >= 0 bounds each wait) or EOF mid-frame; FrameError on
/// corrupt bytes.
std::optional<Frame> read_frame(Connection& conn, FrameReader& reader,
                                int timeout_ms = -1);

/// Request/response round trip: writes `request`, then reads one frame.
/// Throws TransportError if the daemon hangs up instead of answering. If
/// the response is kError, throws TransportError with the daemon's text.
Frame call(Connection& conn, FrameReader& reader, const Frame& request,
           int timeout_ms = -1);

}  // namespace csm::net
