#include "baselines/registry.hpp"

#include <stdexcept>

#include "baselines/bodik.hpp"
#include "baselines/lan.hpp"
#include "baselines/pca.hpp"
#include "baselines/tuncer.hpp"

namespace csm::baselines {

namespace {

using core::MethodRegistry;
using core::MethodSpec;
using core::SignatureMethod;

}  // namespace

void register_baseline_methods(core::MethodRegistry& registry) {
  registry.add(MethodRegistry::Entry{
      "tuncer", "tuncer",
      "Eleven per-sensor statistical indicators (Sec. III-B [15]); stateless",
      [](const MethodSpec& spec) -> std::unique_ptr<SignatureMethod> {
        spec.expect_only({});
        return std::make_unique<TuncerMethod>();
      },
      [](core::codec::Source&) -> std::unique_ptr<SignatureMethod> {
        return std::make_unique<TuncerMethod>();
      }});

  registry.add(MethodRegistry::Entry{
      "bodik", "bodik",
      "Nine per-sensor quantile indicators (Sec. III-B [16]); stateless",
      [](const MethodSpec& spec) -> std::unique_ptr<SignatureMethod> {
        spec.expect_only({});
        return std::make_unique<BodikMethod>();
      },
      [](core::codec::Source&) -> std::unique_ptr<SignatureMethod> {
        return std::make_unique<BodikMethod>();
      }});

  registry.add(MethodRegistry::Entry{
      "lan", "lan[:wr=N]",
      "Per-sensor mean-filter sub-sampling to wr samples (Sec. III-B [13]); "
      "stateless",
      [](const MethodSpec& spec) -> std::unique_ptr<SignatureMethod> {
        spec.expect_only({"wr"});
        return std::make_unique<LanMethod>(spec.get_size_t("wr", 10));
      },
      [](core::codec::Source& in) -> std::unique_ptr<SignatureMethod> {
        const std::size_t wr = in.size("wr");
        if (wr == 0) {
          throw std::runtime_error("LanMethod: wr must be positive");
        }
        return std::make_unique<LanMethod>(wr);
      }});

  registry.add(MethodRegistry::Entry{
      "pca", "pca[:components=K]",
      "Top-K covariance eigenprojections of window mean + mean derivative "
      "(Sec. I-A); trainable",
      [](const MethodSpec& spec) -> std::unique_ptr<SignatureMethod> {
        spec.expect_only({"components"});
        return std::make_unique<PcaMethod>(spec.get_size_t("components", 8));
      },
      [](core::codec::Source& in) -> std::unique_ptr<SignatureMethod> {
        return PcaMethod::read(in);
      }});
}

const core::MethodRegistry& default_registry() {
  static const core::MethodRegistry registry = [] {
    core::MethodRegistry r;
    core::register_cs_method(r);
    register_baseline_methods(r);
    return r;
  }();
  return registry;
}

}  // namespace csm::baselines
