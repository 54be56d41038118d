#include "decorators.hpp"

#include <utility>

namespace perfbench {

core::MethodRegistry traced_registry(const core::MethodRegistry& base) {
  core::MethodRegistry out;
  for (core::MethodRegistry::Entry entry : base.entries()) {
    entry.read = [read = std::move(entry.read)](core::codec::Source& in)
        -> std::unique_ptr<core::SignatureMethod> {
      std::unique_ptr<core::SignatureMethod> method;
      {
        const Timed t(Stat::kPackLoad);
        method = read(in);
      }
      const Stat stat = compute_stat_for(*method);
      return std::make_unique<TracedMethod>(std::move(method), stat);
    };
    out.add(std::move(entry));
  }
  return out;
}

ml::ModelFactories traced_factories(ml::ModelFactories base) {
  ml::ModelFactories out;
  out.classifier = [make = std::move(base.classifier)]()
      -> std::unique_ptr<ml::Classifier> {
    return std::make_unique<TracedClassifier>(make());
  };
  out.regressor = [make = std::move(base.regressor)]()
      -> std::unique_ptr<ml::Regressor> {
    return std::make_unique<TracedRegressor>(make());
  };
  return out;
}

}  // namespace perfbench
