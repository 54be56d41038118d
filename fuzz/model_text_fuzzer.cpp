// Fuzz target: MethodRegistry::deserialize over tagged-text model bodies
// ("csmethod v2 <key>", the only text model format).
//
// Arbitrary text either revives a trained method or throws
// std::runtime_error. Accepted inputs must round-trip through the canonical
// serialize() rendering.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "baselines/registry.hpp"
#include "core/method_registry.hpp"
#include "fuzz/fuzz_util.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const csm::core::MethodRegistry& registry =
      csm::baselines::default_registry();
  const std::string text(csm::fuzz::as_text(data, size));
  std::unique_ptr<csm::core::SignatureMethod> method;
  try {
    method = registry.deserialize(text);
  } catch (const std::runtime_error&) {
    return 0;
  }
  const std::string canonical = method->serialize();
  const std::unique_ptr<csm::core::SignatureMethod> again =
      registry.deserialize(canonical);
  csm::fuzz::require(again->serialize() == canonical,
                     "text deserialize/serialize round trip diverged");
  return 0;
}
