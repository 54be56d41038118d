#include "net/transport.hpp"

#include <vector>

#include "net/message.hpp"

namespace csm::net {

void write_all(Connection& conn, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    if (!conn.is_open()) {
      throw TransportError("connection to " + conn.peer_name() +
                           " closed with " + std::to_string(bytes.size()) +
                           " bytes unsent");
    }
    const std::size_t n = conn.write_some(bytes);
    if (n == 0) {
      conn.wait_writable(-1);
      continue;
    }
    bytes = bytes.subspan(n);
  }
}

void write_frame(Connection& conn, const Frame& frame) {
  write_all(conn, encode_frame(frame));
}

std::optional<Frame> read_frame(Connection& conn, FrameReader& reader,
                                int timeout_ms) {
  for (;;) {
    if (std::optional<Frame> frame = reader.next()) return frame;
    const std::size_t n = conn.read_some(reader.read_buffer(4096));
    if (n > 0) {
      reader.commit(n);
      continue;
    }
    if (!conn.is_open()) {
      if (reader.at_frame_boundary()) return std::nullopt;
      throw TransportError(
          "connection to " + conn.peer_name() + " closed mid-frame (" +
          std::to_string(reader.buffered()) + " bytes of a partial frame)");
    }
    if (!conn.wait_readable(timeout_ms)) {
      throw TransportError("timed out waiting for a frame from " +
                           conn.peer_name());
    }
  }
}

Frame call(Connection& conn, FrameReader& reader, const Frame& request,
           int timeout_ms) {
  write_frame(conn, request);
  std::optional<Frame> response = read_frame(conn, reader, timeout_ms);
  if (!response.has_value()) {
    throw TransportError("daemon at " + conn.peer_name() +
                         " hung up instead of answering a " +
                         frame_type_name(request.type) + " request");
  }
  if (response->type == FrameType::kError) {
    throw TransportError("daemon error: " +
                         decode_error_text(response->payload));
  }
  return *std::move(response);
}

}  // namespace csm::net
