// Cross-architecture portability (the paper's Section IV-F): train one
// model on CS signatures from three different CPU architectures with
// different sensor counts — something the baseline methods structurally
// cannot do — and classify applications with no knowledge of the
// architecture. Also demonstrates shipping a trained CS model between
// processes as a CSMB record (the method codec).
//
// Usage: cross_arch_portability [scale]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "baselines/registry.hpp"
#include "core/model_codec.hpp"
#include "harness/experiment.hpp"
#include "hpcoda/generator.hpp"

int main(int argc, char** argv) {
  using namespace csm;
  hpcoda::GeneratorConfig config;
  config.scale = argc > 1 ? std::atof(argv[1]) : 0.6;

  const hpcoda::Segment seg = hpcoda::make_cross_arch_segment(config);
  std::cout << "Cross-Architecture segment: 3 nodes with "
            << seg.blocks[0].sensors.rows() << "/"
            << seg.blocks[1].sensors.rows() << "/"
            << seg.blocks[2].sensors.rows() << " sensors\n\n";

  // Per-architecture CS models -> identical 20-block signature format.
  data::Dataset merged;
  for (const hpcoda::ComponentBlock& block : seg.blocks) {
    hpcoda::Segment single = seg;
    single.blocks = {block};
    data::Dataset ds =
        harness::build_dataset(single, harness::make_cs_method(20));
    std::printf("%-16s %4zu sensors -> %4zu signatures of length %zu\n",
                block.name.c_str(), block.sensors.rows(), ds.size(),
                ds.feature_length());
    merged.merge(ds);
  }

  common::Rng rng(7);
  merged.shuffle(rng);
  const ml::CvResult rf = ml::cross_validate(
      merged, 5, harness::random_forest_factories(), rng);
  std::printf("\nArchitecture-blind 5-fold F1 (random forest): %.4f\n",
              rf.mean_score);
  std::cout << "(paper reports 0.995 with no degradation vs single-arch)\n";

  // Model portability: encode the Skylake model and reuse it elsewhere.
  const auto& registry = baselines::default_registry();
  const auto skylake =
      registry.create("cs:blocks=20")->fit(seg.blocks[0].sensors);
  const std::vector<std::uint8_t> record = core::codec::encode_binary(*skylake);
  const bool round_trip =
      core::codec::encode_binary(*registry.decode(record)) == record;
  std::cout << "\nSkylake CS model ships as a " << record.size()
            << "-byte CSMB record; round-trip "
            << (round_trip ? "OK" : "FAILED") << '\n';
  return 0;
}
