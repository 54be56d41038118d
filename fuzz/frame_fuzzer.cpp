// Fuzz target: FrameReader and the CSMF payload decoders over raw byte
// streams.
//
// Properties under test:
//   1. Reassembly fixpoint — feeding the same bytes in fuzzer-chosen chunk
//      sizes must yield the identical frame sequence (and the identical
//      FrameError, if any) as one whole-buffer feed. A reader whose output
//      depends on read boundaries corrupts streams on a real socket.
//   2. Re-encode identity — every accepted frame must encode back to
//      exactly the bytes it was decoded from, so the consumed prefix of
//      the input is reproduced bit-for-bit.
//   3. Arbitrary bytes either decode or throw FrameError — nothing else
//      (no crashes, no unbounded allocation from unvalidated lengths).
//   4. Every accepted frame's payload goes through the message.hpp decoder
//      for its type, which returns or throws MessageError — nothing else.
//      A decoded payload re-encodes to a fixpoint: after one
//      encode(decode()) pass, a second pass reproduces the same bytes.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.hpp"
#include "net/frame.hpp"
#include "net/message.hpp"

namespace {

using Bytes = std::vector<std::uint8_t>;

/// encode(decode(payload)) for the frame types that carry a payload
/// schema; std::nullopt for the empty-payload requests.
std::optional<Bytes> reencode(csm::net::FrameType type,
                              std::span<const std::uint8_t> payload) {
  namespace net = csm::net;
  switch (type) {
    case net::FrameType::kSampleBatch:
      return net::encode_sample_batch(net::decode_sample_batch(payload));
    case net::FrameType::kNodeAdd:
      return net::encode_node_add(net::decode_node_add(payload));
    case net::FrameType::kDrainResponse:
      return net::encode_drain_response(net::decode_drain_response(payload));
    case net::FrameType::kStatsResponse:
      return net::encode_stats_response(net::decode_stats_response(payload));
    case net::FrameType::kNodeStatsResponse:
      return net::encode_node_stats_response(
          net::decode_node_stats_response(payload));
    case net::FrameType::kOk:
      return net::encode_ok(net::decode_ok(payload));
    case net::FrameType::kError:
      return net::encode_error_text(net::decode_error_text(payload));
    default:
      return std::nullopt;
  }
}

void check_payload(const csm::net::Frame& frame) {
  std::optional<Bytes> once;
  try {
    once = reencode(frame.type, frame.payload);
  } catch (const csm::net::MessageError&) {
    return;  // A malformed payload, named: the daemon answers kError.
  }
  if (!once) return;
  csm::fuzz::require(reencode(frame.type, *once) == once,
                     "payload re-encode is not a fixpoint after one pass");
}

struct ParseResult {
  std::vector<csm::net::Frame> frames;
  std::optional<std::string> error;
  std::uint64_t consumed = 0;
};

ParseResult parse(csm::net::FrameReader& reader,
                  std::span<const std::uint8_t> bytes,
                  std::size_t chunk_seed) {
  ParseResult result;
  std::size_t at = 0;
  std::uint64_t state = chunk_seed * 2654435761u + 1;
  try {
    while (at < bytes.size()) {
      // Chunk sizes follow a cheap deterministic generator seeded by the
      // input, so the fuzzer explores many boundary placements.
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t chunk =
          chunk_seed == 0 ? bytes.size() : 1 + (state >> 33) % 9;
      const std::size_t take = std::min(chunk, bytes.size() - at);
      reader.feed(bytes.subspan(at, take));
      at += take;
      while (std::optional<csm::net::Frame> frame = reader.next()) {
        result.frames.push_back(*std::move(frame));
      }
    }
  } catch (const csm::net::FrameError& e) {
    result.error = e.what();
  }
  result.consumed = reader.stream_offset();
  return result;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes{data, size};

  csm::net::FrameReader one_shot;
  const ParseResult whole = parse(one_shot, bytes, 0);

  csm::net::FrameReader trickled;
  const ParseResult chunked =
      parse(trickled, bytes, size == 0 ? 1 : 1 + data[0]);

  csm::fuzz::require(whole.frames == chunked.frames,
                     "chunked feed decoded a different frame sequence");
  csm::fuzz::require(whole.error.has_value() == chunked.error.has_value(),
                     "chunked feed diverged on accept/reject");
  if (whole.error && chunked.error) {
    csm::fuzz::require(*whole.error == *chunked.error,
                       "chunked feed reported a different FrameError");
  }
  csm::fuzz::require(whole.consumed == chunked.consumed,
                     "chunked feed consumed a different byte count");

  // Accepted frames must re-encode to exactly the consumed input prefix.
  std::vector<std::uint8_t> reencoded;
  for (const csm::net::Frame& frame : whole.frames) {
    const std::vector<std::uint8_t> wire = csm::net::encode_frame(frame);
    reencoded.insert(reencoded.end(), wire.begin(), wire.end());
  }
  csm::fuzz::require(reencoded.size() == whole.consumed,
                     "re-encoded frames do not span the consumed prefix");
  csm::fuzz::require(
      std::equal(reencoded.begin(), reencoded.end(), bytes.begin()),
      "re-encoded frames differ from the bytes they were decoded from");

  for (const csm::net::Frame& frame : whole.frames) check_payload(frame);
  return 0;
}
