// Fuzz target: MethodRegistry::decode over raw "CSMB" binary records.
//
// The contract under test: arbitrary bytes either decode into a trained
// method or throw std::runtime_error — nothing else. Inputs that decode are
// additionally re-encoded and decoded again; the canonical record must
// survive the round trip bit-for-bit (a decoder that accepts a record its
// encoder cannot reproduce is a corruption bug waiting for a fleet).
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "baselines/registry.hpp"
#include "core/method_registry.hpp"
#include "core/model_codec.hpp"
#include "fuzz/fuzz_util.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const csm::core::MethodRegistry& registry =
      csm::baselines::default_registry();
  std::unique_ptr<csm::core::SignatureMethod> method;
  try {
    method = registry.decode({data, size});
  } catch (const std::runtime_error&) {
    return 0;  // Rejecting hostile bytes loudly is the expected outcome.
  }
  // Accepted input: the decoded model must re-encode and decode to the same
  // canonical record.
  const std::vector<std::uint8_t> reencoded =
      csm::core::codec::encode_binary(*method);
  const std::unique_ptr<csm::core::SignatureMethod> again =
      registry.decode(reencoded);
  csm::fuzz::require(csm::core::codec::encode_binary(*again) == reencoded,
                     "binary decode/encode/decode round trip diverged");
  return 0;
}
