#include "core/signature_method.hpp"

#include "core/model_codec.hpp"

namespace csm::core {

void SignatureMethod::save(codec::Sink& sink) const {
  (void)sink;
  throw std::logic_error(name() + ": serialization is not supported");
}

}  // namespace csm::core
