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
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/message.hpp"
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

// A listener with one accepted connection and its client end.
struct Pair {
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
};

Pair connected_pair(const char* tag) {
  Pair p;
  p.listener = listen_unix(socket_path(tag));
  p.client = connect_unix(socket_path(tag));
  if (p.listener->wait({}, 5000)) p.server = p.listener->accept();
  return p;
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

TEST(UnixSocket, ConnectBecomesAcceptable) {
  const std::string path = socket_path("accept");
  auto listener = listen_unix(path);
  EXPECT_EQ(listener->accept(), nullptr);  // Nothing pending: no block.

  auto client = connect_unix(path);
  ASSERT_TRUE(listener->wait({}, 5000));
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(listener->accept(), nullptr);
  EXPECT_TRUE(client->is_open());
  EXPECT_TRUE(server->is_open());
  EXPECT_GE(client->native_handle(), 0);
  EXPECT_GE(server->native_handle(), 0);
  listener->close();
}

TEST(UnixSocket, BytesCrossInBothDirections) {
  Pair p = connected_pair("bytes");
  ASSERT_NE(p.server, nullptr);

  const std::vector<std::uint8_t> ping = {1, 2, 3};
  EXPECT_EQ(p.client->write_some(ping), ping.size());
  std::array<std::uint8_t, 16> buf{};
  ASSERT_TRUE(p.server->wait_readable(5000));
  EXPECT_EQ(p.server->read_some(buf), ping.size());
  EXPECT_EQ(std::vector<std::uint8_t>(buf.begin(), buf.begin() + 3), ping);

  const std::vector<std::uint8_t> pong = {9, 8};
  EXPECT_EQ(p.server->write_some(pong), pong.size());
  ASSERT_TRUE(p.client->wait_readable(5000));
  EXPECT_EQ(p.client->read_some(buf), pong.size());
  EXPECT_EQ(std::vector<std::uint8_t>(buf.begin(), buf.begin() + 2), pong);
}

TEST(UnixSocket, ReadReturnsZeroWhenNothingPending) {
  Pair p = connected_pair("idle");
  ASSERT_NE(p.server, nullptr);
  std::array<std::uint8_t, 8> buf{};
  EXPECT_EQ(p.server->read_some(buf), 0u);
  EXPECT_TRUE(p.server->is_open());  // Would-block, not EOF.
  EXPECT_FALSE(p.server->wait_readable(0));
}

// The daemon's side of PeerCloseReadsAsEofAfterDrain: a reply written just
// before the server closes still reaches the client, and EOF comes after it.
TEST(UnixSocket, PeerCloseIsEofAfterDrainingBufferedBytes) {
  Pair p = connected_pair("tail");
  ASSERT_NE(p.server, nullptr);
  const std::vector<std::uint8_t> tail = {7, 7};
  write_all(*p.server, tail);
  p.server->close();

  std::array<std::uint8_t, 8> buf{};
  ASSERT_TRUE(p.client->wait_readable(5000));
  EXPECT_EQ(p.client->read_some(buf), tail.size());
  EXPECT_TRUE(p.client->is_open());  // The bytes came first.
  EXPECT_EQ(p.client->read_some(buf), 0u);
  EXPECT_FALSE(p.client->is_open());
}

TEST(UnixSocket, WriteToClosedPeerClosesWithoutThrowing) {
  Pair p = connected_pair("closed");
  ASSERT_NE(p.server, nullptr);
  p.server->close();
  const std::vector<std::uint8_t> bytes = {1};
  // The first write may still land in the socket; one after the peer's
  // close is refused, and that closes the connection instead of throwing.
  for (int i = 0; i < 100 && p.client->is_open(); ++i) {
    EXPECT_NO_THROW((void)p.client->write_some(bytes));
  }
  EXPECT_FALSE(p.client->is_open());
}

// close() unlinks the path, so a client that comes later is refused.
TEST(UnixSocket, ConnectAfterListenerCloseThrows) {
  const std::string path = socket_path("gone");
  auto listener = listen_unix(path);
  listener->close();
  EXPECT_THROW(connect_unix(path), TransportError);
}

TEST(UnixSocket, ListenerWaitWakesOnReadableConnection) {
  Pair p = connected_pair("readable");
  ASSERT_NE(p.server, nullptr);
  Connection* conns[] = {p.server.get()};
  EXPECT_FALSE(p.listener->wait(conns, 0));  // Nothing pending -> timeout.

  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    write_all(*p.client, std::vector<std::uint8_t>{5});
  });
  EXPECT_TRUE(p.listener->wait(conns, 5000));
  writer.join();
  std::array<std::uint8_t, 8> buf{};
  EXPECT_EQ(p.server->read_some(buf), 1u);
  EXPECT_EQ(buf[0], 5u);
}

TEST(UnixSocket, ListenerWaitWakesOnNewConnection) {
  const std::string path = socket_path("wake");
  auto listener = listen_unix(path);
  std::unique_ptr<Connection> client;
  std::thread connector([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    client = connect_unix(path);
  });
  EXPECT_TRUE(listener->wait({}, 5000));
  connector.join();
  EXPECT_NE(listener->accept(), nullptr);
}

// The blocking helpers (the client-side edge) across two threads, like a
// real client and daemon.
TEST(UnixSocket, FramesCrossViaBlockingHelpers) {
  Pair p = connected_pair("call");
  ASSERT_NE(p.server, nullptr);
  Frame request;
  request.type = FrameType::kDrainRequest;
  request.node = "n0";

  std::thread responder([&] {
    FrameReader reader;
    const std::optional<Frame> got = read_frame(*p.server, reader, 5000);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, request);
    Frame response;
    response.type = FrameType::kOk;
    response.payload = encode_frame(request);  // Arbitrary payload bytes.
    write_frame(*p.server, response);
  });
  FrameReader reader;
  const Frame response = call(*p.client, reader, request, 5000);
  responder.join();
  EXPECT_EQ(response.type, FrameType::kOk);
  EXPECT_EQ(response.payload, encode_frame(request));

  // A clean EOF at a frame boundary reads as "no more frames".
  p.server->close();
  EXPECT_EQ(read_frame(*p.client, reader, 5000), std::nullopt);
}

TEST(UnixSocket, EofMidFrameThrowsTransportError) {
  Pair p = connected_pair("midframe");
  ASSERT_NE(p.server, nullptr);
  const std::vector<std::uint8_t> wire = encode_frame(Frame{});
  write_all(*p.server, {wire.data(), wire.size() / 2});
  p.server->close();
  FrameReader reader;
  EXPECT_THROW((void)read_frame(*p.client, reader, 5000), TransportError);
}

// call()'s two failure paths: the daemon answers kError, or hangs up.
TEST(UnixSocket, CallThrowsTheDaemonsErrorText) {
  Pair p = connected_pair("kerror");
  ASSERT_NE(p.server, nullptr);
  std::thread responder([&] {
    FrameReader reader;
    ASSERT_TRUE(read_frame(*p.server, reader, 5000).has_value());
    write_frame(*p.server, {FrameType::kError, "n0",
                            encode_error_text("unknown node \"n0\"")});
  });
  FrameReader reader;
  try {
    (void)call(*p.client, reader, {FrameType::kDrainRequest, "n0", {}}, 5000);
    ADD_FAILURE() << "call returned on a kError reply";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown node \"n0\""),
              std::string::npos)
        << e.what();
  }
  responder.join();
}

TEST(UnixSocket, CallThrowsWhenTheDaemonHangsUp) {
  Pair p = connected_pair("hangup");
  ASSERT_NE(p.server, nullptr);
  std::thread responder([&] {
    FrameReader reader;
    ASSERT_TRUE(read_frame(*p.server, reader, 5000).has_value());
    p.server->close();
  });
  FrameReader reader;
  try {
    (void)call(*p.client, reader, {FrameType::kStatsRequest, "", {}}, 5000);
    ADD_FAILURE() << "call returned after a hang-up";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("hung up"), std::string::npos)
        << e.what();
  }
  responder.join();
}

}  // namespace
}  // namespace csm::net
