#include "net/unix_socket.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <unordered_set>
#include <utility>
#include <vector>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // macOS: SO_NOSIGPIPE is set per socket instead.
#endif

namespace csm::net {

namespace {

std::string errno_text(int err) {
  return std::error_code(err, std::generic_category()).message();
}

[[noreturn]] void throw_errno(const std::string& what, int err) {
  throw TransportError(what + ": " + errno_text(err));
}

void set_common_flags(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, ::fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
#ifdef SO_NOSIGPIPE
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw TransportError("unix socket path \"" + path +
                         "\" is empty or longer than sockaddr_un allows (" +
                         std::to_string(sizeof(addr.sun_path) - 1) +
                         " bytes)");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Fds of a listener's accepted connections whose last write_some was cut
/// short (EAGAIN or a partial send). The listener polls exactly these for
/// POLLOUT as well as POLLIN, so a reply that filled the send buffer resumes
/// as soon as the peer drains it instead of on the next timeout, while an
/// idle or non-reading peer never wakes the poll. Keyed by fd because that
/// is all a decorator forwards to wait(). A connection drops its mark on a
/// complete write, a failed write and before closing its fd, so a reused fd
/// never inherits it. Shared by the listener and those connections, which
/// the transport.hpp threading rule keeps on one thread.
using BlockedWrites = std::unordered_set<int>;

class UnixConnection final : public Connection {
 public:
  /// `blocked` is the accepting listener's set; nullptr for a client-side
  /// connection, which no listener waits on.
  UnixConnection(int fd, std::shared_ptr<BlockedWrites> blocked)
      : fd_(fd), blocked_(std::move(blocked)) {
    set_common_flags(fd_);
  }

  ~UnixConnection() override { close(); }

  std::size_t read_some(std::span<std::uint8_t> out) override {
    if (fd_ < 0 || out.empty()) return 0;
    const ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) {  // Orderly peer shutdown.
      eof_ = true;
      return 0;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    if (errno == ECONNRESET) {
      eof_ = true;
      return 0;
    }
    throw_errno("recv on " + peer_name() + " failed", errno);
  }

  /// Still writes after EOF: a peer that half-closed its side reads on.
  std::size_t write_some(std::span<const std::uint8_t> data) override {
    if (fd_ < 0 || write_failed_ || data.empty()) return 0;
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    const int err = errno;
    if (n >= 0) {
      mark_blocked(static_cast<std::size_t>(n) < data.size());
      return static_cast<std::size_t>(n);
    }
    if (err == EAGAIN || err == EWOULDBLOCK || err == EINTR) {
      mark_blocked(true);
      return 0;
    }
    mark_blocked(false);
    if (err == EPIPE || err == ECONNRESET) {
      // Routine disconnect: surface as a closed connection, not a throw.
      write_failed_ = true;
      return 0;
    }
    throw_errno("send on " + peer_name() + " failed", err);
  }

  bool is_open() const noexcept override {
    return fd_ >= 0 && !eof_ && !write_failed_;
  }

  void close() noexcept override {
    if (fd_ >= 0) {
      mark_blocked(false);
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool wait_readable(int timeout_ms) override {
    return wait_for(POLLIN, timeout_ms);
  }

  bool wait_writable(int timeout_ms) override {
    return wait_for(POLLOUT, timeout_ms);
  }

  int native_handle() const noexcept override { return fd_; }

  std::string peer_name() const override {
    return "unix:fd=" + std::to_string(fd_);
  }

 private:
  bool wait_for(short events, int timeout_ms) {
    if (fd_ < 0) return true;  // A closed fd "progresses" immediately.
    pollfd p{fd_, events, 0};
    const int n = ::poll(&p, 1, timeout_ms);
    if (n < 0 && errno != EINTR) {
      throw_errno("poll on " + peer_name() + " failed", errno);
    }
    return n > 0;
  }

  void mark_blocked(bool blocked) {
    if (!blocked_) return;
    if (blocked) {
      blocked_->insert(fd_);
    } else {
      blocked_->erase(fd_);
    }
  }

  int fd_;
  std::shared_ptr<BlockedWrites> blocked_;
  bool eof_ = false;           ///< The peer's bytes are exhausted.
  bool write_failed_ = false;  ///< A send hit EPIPE/ECONNRESET.
};

class UnixListener final : public Listener {
 public:
  explicit UnixListener(std::string path) : path_(std::move(path)) {
    const sockaddr_un addr = make_address(path_);
    remove_stale_socket(addr);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("socket(AF_UNIX) failed", errno);
    set_common_flags(fd_);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw_errno("bind to " + path_ + " failed", err);
    }
    if (::listen(fd_, 64) != 0) {
      const int err = errno;
      close();
      throw_errno("listen on " + path_ + " failed", err);
    }
  }

  ~UnixListener() override { close(); }

  std::unique_ptr<Connection> accept() override {
    if (fd_ < 0) return nullptr;
    const int conn_fd = ::accept(fd_, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        return nullptr;
      }
      throw_errno("accept on " + path_ + " failed", errno);
    }
    return std::make_unique<UnixConnection>(conn_fd, blocked_);
  }

  bool wait(std::span<Connection* const> conns, int timeout_ms) override {
    std::vector<pollfd> fds;
    fds.reserve(conns.size() + 1);
    if (fd_ >= 0) fds.push_back({fd_, POLLIN, 0});
    for (Connection* c : conns) {
      const int fd = c->native_handle();
      if (fd < 0) continue;
      const short events = blocked_->contains(fd) ? POLLIN | POLLOUT : POLLIN;
      fds.push_back({fd, events, 0});
    }
    if (fds.empty()) return false;
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      throw_errno("poll on " + path_ + " failed", errno);
    }
    return n > 0;
  }

  void close() noexcept override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
      ::unlink(path_.c_str());
    }
  }

  std::string address() const override { return "unix:" + path_; }

 private:
  /// A socket file with nothing listening behind it (a crashed daemon's
  /// leftover) is unlinked; a live one is an error, not a takeover.
  void remove_stale_socket(const sockaddr_un& addr) {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) throw_errno("socket(AF_UNIX) failed", errno);
    const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr));
    ::close(probe);
    if (rc == 0) {
      throw TransportError("a daemon is already listening on " + path_);
    }
    ::unlink(path_.c_str());  // ENOENT (no stale file) is fine.
  }

  std::string path_;
  int fd_ = -1;
  std::shared_ptr<BlockedWrites> blocked_ = std::make_shared<BlockedWrites>();
};

}  // namespace

std::unique_ptr<Listener> listen_unix(const std::string& path) {
  return std::make_unique<UnixListener>(path);
}

std::unique_ptr<Connection> connect_unix(const std::string& path) {
  const sockaddr_un addr = make_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX) failed", errno);
  // Connect while still blocking (a unix-socket connect either succeeds or
  // fails immediately); UnixConnection flips the fd non-blocking.
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw_errno("connect to " + path + " failed", err);
  }
  return std::make_unique<UnixConnection>(fd, nullptr);
}

}  // namespace csm::net
