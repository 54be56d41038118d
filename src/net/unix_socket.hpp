// Unix-domain socket transport: csmd's production face. The listener owns
// a SOCK_STREAM socket bound to a filesystem path (a stale socket file
// left by a crashed daemon is unlinked first); accepted connections are
// non-blocking and multiplexed with poll(2), which also watches for
// POLLOUT on each connection whose last write was cut short. Client
// connections made with connect_unix() carry the same non-blocking
// contract — the blocking helpers in net/transport.hpp supply the waiting.
#pragma once

#include <memory>
#include <string>

#include "net/transport.hpp"

namespace csm::net {

/// Binds and listens on `path`. Throws TransportError when the path is too
/// long for sockaddr_un or the bind/listen fails (e.g. the path's
/// directory does not exist, or a LIVE daemon already owns the socket).
/// The destructor unlinks the socket file.
std::unique_ptr<Listener> listen_unix(const std::string& path);

/// Connects to the daemon listening on `path`. Throws TransportError when
/// nothing is listening.
std::unique_ptr<Connection> connect_unix(const std::string& path);

}  // namespace csm::net
