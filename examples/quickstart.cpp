// Quickstart: the smallest end-to-end use of the CS library.
//
// 1. Load (or here: synthesise) multi-sensor monitoring data.
// 2. Train a CS model on historical data (training stage).
// 3. Compute compact signatures over sliding windows (sorting + smoothing).
// 4. Inspect, flatten for ML, rescale, and ship the model as a CSMB record
//    (the method codec).
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/registry.hpp"
#include "common/rng.hpp"
#include "core/model_codec.hpp"
#include "core/pipeline.hpp"
#include "core/training.hpp"
#include "data/window.hpp"

int main() {
  using namespace csm;

  // --- 1. Build a toy 8-sensor matrix: two correlated groups + noise. ----
  constexpr std::size_t kSensors = 8;
  constexpr std::size_t kTime = 600;
  common::Rng rng(42);
  common::Matrix sensors(kSensors, kTime);
  for (std::size_t t = 0; t < kTime; ++t) {
    const double load = 0.5 + 0.5 * std::sin(0.05 * static_cast<double>(t));
    sensors(0, t) = 100.0 * load + rng.gaussian();          // cpu_util
    sensors(1, t) = 2.5e9 * load + 1e7 * rng.gaussian();    // instructions
    sensors(2, t) = 250.0 + 120.0 * load + rng.gaussian();  // power
    sensors(3, t) = 40.0 + 20.0 * load + 0.2 * rng.gaussian();  // temp
    sensors(4, t) = 100.0 * (1.0 - load) + rng.gaussian();  // idle_pct
    sensors(5, t) = 50.0 - 30.0 * load + rng.gaussian();    // cstate_res
    sensors(6, t) = rng.gaussian();                          // noise
    sensors(7, t) = 42.0;                                    // constant
  }

  // --- 2. Training stage: correlation ordering + normalisation bounds. ---
  const core::CsModel model = core::train(sensors);
  std::cout << "Trained CS model over " << model.n_sensors()
            << " sensors.\nPermutation:";
  for (std::size_t idx : model.permutation()) std::cout << ' ' << idx;
  std::cout << "\n(correlated sensors first, noise in the middle,"
               " anti-correlated last)\n\n";

  // --- 3. Signatures over sliding windows: 4 blocks, window 60, step 30. -
  const core::CsPipeline pipeline(model, core::CsOptions{4, false});
  const auto signatures =
      pipeline.transform(sensors, data::WindowSpec{60, 30});
  std::cout << "Computed " << signatures.size()
            << " signatures of 4 complex blocks each.\n";
  const core::Signature& first = signatures.front();
  std::cout << "First signature (real | imag):\n";
  for (std::size_t b = 0; b < first.length(); ++b) {
    std::cout << "  block " << b << ": " << first.real()[b] << " | "
              << first.imag()[b] << '\n';
  }

  // --- 4. Flatten for ML, rescale for a coarser model, persist. ----------
  const std::vector<double> features = first.flatten();
  std::cout << "\nFlattened feature vector length: " << features.size()
            << " (vs " << kSensors * 60 << " raw readings per window)\n";
  const core::Signature coarse = first.rescaled(2);
  std::cout << "Rescaled to 2 blocks: " << coarse.real()[0] << ", "
            << coarse.real()[1] << '\n';

  const core::CsSignatureMethod method(
      std::make_shared<const core::CsPipeline>(pipeline));
  const std::vector<std::uint8_t> record = core::codec::encode_binary(method);
  const auto shipped = baselines::default_registry().decode(record);
  const auto& revived = dynamic_cast<const core::CsSignatureMethod&>(*shipped);
  const bool round_trip = revived.pipeline()->model() == model;
  std::cout << "Model encodes to a " << record.size()
            << "-byte CSMB record and round-trips: "
            << (round_trip ? "OK" : "MISMATCH") << '\n';
  return 0;
}
