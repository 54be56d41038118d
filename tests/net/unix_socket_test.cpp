#include "net/unix_socket.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/transport.hpp"

namespace csm::net {
namespace {

// Unique short path per test: sockaddr_un caps the path around 100 bytes,
// so build trees are out and /tmp is in.
std::string socket_path(const char* tag) {
  return "/tmp/csm_ux_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

// Reads everything the peer has sent so far; returns the byte count.
std::size_t drain(Connection& conn) {
  std::vector<std::uint8_t> buf(64 * 1024);
  std::size_t total = 0;
  while (const std::size_t n = conn.read_some(buf)) {
    total += n;
  }
  return total;
}

// Writes 16 KiB chunks until write_some comes back short, without assuming
// a buffer size (macOS unix buffers are far smaller than Linux's). Returns
// the bytes of the last chunk left unsent.
std::size_t write_until_short(Connection& conn) {
  const std::vector<std::uint8_t> chunk(16 * 1024, 0x5a);
  std::size_t n = 0;
  do {
    n = conn.write_some(chunk);
  } while (n == chunk.size());
  return chunk.size() - n;
}

TEST(UnixSocket, ConnectAcceptAndExchangeFrames) {
  const std::string path = socket_path("basic");
  auto listener = listen_unix(path);
  EXPECT_EQ(listener->address(), "unix:" + path);
  EXPECT_TRUE(std::filesystem::exists(path));

  auto client = connect_unix(path);
  ASSERT_TRUE(listener->wait({}, 5000));
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);

  Frame frame;
  frame.type = FrameType::kSampleBatch;
  frame.node = "node0";
  frame.payload.assign(100, 0x5a);
  write_frame(*client, frame);

  FrameReader reader;
  const std::optional<Frame> got = read_frame(*server, reader, 5000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);

  listener->close();
  EXPECT_FALSE(std::filesystem::exists(path));  // close() unlinks.
}

TEST(UnixSocket, ConnectToMissingPathThrows) {
  EXPECT_THROW(connect_unix(socket_path("missing")), TransportError);
}

TEST(UnixSocket, SecondListenerOnLivePathThrows) {
  const std::string path = socket_path("live");
  auto listener = listen_unix(path);
  EXPECT_THROW(listen_unix(path), TransportError);
  listener->close();
}

TEST(UnixSocket, StaleSocketFileIsReclaimed) {
  const std::string path = socket_path("stale");
  // Simulate a crashed daemon: a bound socket file whose owner is gone.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ::close(fd);  // No listener behind the file any more.
  ASSERT_TRUE(std::filesystem::exists(path));

  auto listener = listen_unix(path);  // Probes, unlinks, rebinds.
  auto client = connect_unix(path);
  ASSERT_TRUE(listener->wait({}, 5000));
  EXPECT_NE(listener->accept(), nullptr);
  listener->close();
}

TEST(UnixSocket, OverlongPathIsRejected) {
  EXPECT_THROW(listen_unix("/tmp/" + std::string(200, 'x')), TransportError);
}

TEST(UnixSocket, PeerCloseReadsAsEofAfterDrain) {
  const std::string path = socket_path("eof");
  auto listener = listen_unix(path);
  auto client = connect_unix(path);
  ASSERT_TRUE(listener->wait({}, 5000));
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);

  const std::vector<std::uint8_t> tail = {1, 2, 3};
  write_all(*client, tail);
  client->close();

  std::array<std::uint8_t, 16> buf{};
  ASSERT_TRUE(server->wait_readable(5000));
  std::size_t total = 0;
  while (server->is_open()) {
    const std::size_t n = server->read_some(buf);
    total += n;
    if (n == 0 && !server->wait_readable(5000)) break;
  }
  EXPECT_EQ(total, tail.size());
  EXPECT_FALSE(server->is_open());
  listener->close();
}

TEST(UnixSocket, ListenerWaitMultiplexesConnections) {
  const std::string path = socket_path("mux");
  auto listener = listen_unix(path);
  auto client_a = connect_unix(path);
  auto client_b = connect_unix(path);
  ASSERT_TRUE(listener->wait({}, 5000));
  auto server_a = listener->accept();
  auto server_b = listener->accept();
  if (server_b == nullptr) {  // Second connect may still be in flight.
    ASSERT_TRUE(listener->wait({}, 5000));
    server_b = listener->accept();
  }
  ASSERT_NE(server_a, nullptr);
  ASSERT_NE(server_b, nullptr);

  Connection* conns[] = {server_a.get(), server_b.get()};
  EXPECT_FALSE(listener->wait(conns, 0));  // Idle -> timeout.

  const std::vector<std::uint8_t> bytes = {42};
  write_all(*client_b, bytes);
  EXPECT_TRUE(listener->wait(conns, 5000));
  std::array<std::uint8_t, 8> buf{};
  EXPECT_EQ(server_b->read_some(buf), 1u);
  EXPECT_EQ(buf[0], 42u);
  listener->close();
}

// A write cut short by a full send buffer makes the listener's wait also
// return once the peer has drained, and only until the write completes or
// the connection closes; a new connection reusing the fd starts unmarked.
TEST(UnixSocket, ListenerWaitWakesWhenACutShortWriteCanResume) {
  const std::string path = socket_path("pollout");
  auto listener = listen_unix(path);
  auto client = connect_unix(path);
  ASSERT_TRUE(listener->wait({}, 5000));
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);
  Connection* conns[] = {server.get()};

  const std::size_t unsent = write_until_short(*server);
  EXPECT_FALSE(listener->wait(conns, 50));  // The peer has not read.

  EXPECT_GT(drain(*client), 0u);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(listener->wait(conns, 5000));
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::seconds(1));

  // The rest, written in full: an idle wait times out again.
  const std::vector<std::uint8_t> rest(unsent, 0x5a);
  std::span<const std::uint8_t> left(rest);
  while (!left.empty()) {
    left = left.subspan(server->write_some(left));
    drain(*client);
  }
  EXPECT_FALSE(listener->wait(conns, 50));

  // Cut a write short again, then close that connection. The next accept
  // reuses its fd (the new client's socket is opened first so it cannot
  // take it), and that idle, writable connection must not wake the wait.
  write_until_short(*server);
  const int blocked_fd = server->native_handle();
  auto next_client = connect_unix(path);
  server->close();
  ASSERT_TRUE(listener->wait({}, 5000));
  auto reused = listener->accept();
  ASSERT_NE(reused, nullptr);
  ASSERT_EQ(reused->native_handle(), blocked_fd);
  Connection* reused_conns[] = {reused.get()};
  EXPECT_FALSE(listener->wait(reused_conns, 50));
  listener->close();
}

// Arbitrary read boundaries: a large frame crosses the socket in many
// chunks and reassembles bit-for-bit.
TEST(UnixSocket, LargeFrameSurvivesChunkedDelivery) {
  const std::string path = socket_path("large");
  auto listener = listen_unix(path);
  auto client = connect_unix(path);
  ASSERT_TRUE(listener->wait({}, 5000));
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);

  Frame frame;
  frame.type = FrameType::kDrainResponse;
  frame.node = "big";
  frame.payload.resize(1 << 20);
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(i * 2654435761u);
  }

  std::thread writer([&] { write_frame(*client, frame); });
  FrameReader reader;
  const std::optional<Frame> got = read_frame(*server, reader, 10000);
  writer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
  listener->close();
}

}  // namespace
}  // namespace csm::net
