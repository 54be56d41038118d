// Fleet-wide online fault detection with StreamEngine.
//
// Where online_fault_detection replays a single node, this example runs the
// in-band ODA loop of Fig. 1 across a whole fleet: the Application segment's
// 16 compute nodes each get their own CS-20 method (fitted out-of-band on
// that node's sensors) and their own ring-buffered MethodStream inside one
// StreamEngine. A shared random-forest classifier is fitted on signatures
// from the first 60% of every run; the remaining 40% is then ingested in
// per-node batches — fanned across nodes with parallel_for — and every
// drained signature is classified in real time.
//
// Usage: fleet_streaming [scale]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/stream_engine.hpp"
#include "hpcoda/generator.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

int main(int argc, char** argv) {
  using namespace csm;
  hpcoda::GeneratorConfig config;
  config.scale = argc > 1 ? std::atof(argv[1]) : 1.0;

  const hpcoda::Segment seg = hpcoda::make_application_segment(config);
  const std::size_t n_nodes = seg.n_blocks();
  std::cout << "Application segment: " << n_nodes << " nodes x "
            << seg.n_sensors_per_block() << " sensors, " << seg.length()
            << " samples, " << seg.runs.size() << " runs\n";

  core::StreamOptions opts;
  opts.window_length = seg.window.length;
  opts.window_step = seg.window.step;

  // Out-of-band phase: per-node CS-20 methods, then one fleet-wide
  // classifier over the training share of every run on every node.
  const core::CsSignatureMethod prototype(core::CsOptions{20, false});
  std::vector<std::shared_ptr<const core::SignatureMethod>> methods;
  methods.reserve(n_nodes);
  for (const hpcoda::ComponentBlock& block : seg.blocks) {
    methods.push_back(prototype.fit(block.sensors));
  }
  data::Dataset train_set;
  for (const hpcoda::RunInfo& run : seg.runs) {
    const std::size_t train_len = (run.end - run.begin) * 3 / 5;
    if (train_len < opts.window_length) continue;
    for (std::size_t b = 0; b < n_nodes; ++b) {
      core::MethodStream trainer(methods[b], opts);
      for (const std::vector<double>& features : trainer.push_all(
               seg.blocks[b].sensors.sub_cols(run.begin, train_len))) {
        train_set.features.append_row(features);
        train_set.labels.push_back(run.label);
      }
    }
  }
  if (train_set.size() == 0) {
    std::cerr << "no run is long enough for a training window at scale "
              << config.scale << "; try a larger scale\n";
    return 1;
  }
  ml::RandomForestClassifier forest;
  forest.fit(train_set.features, train_set.labels);
  std::cout << "Trained forest on " << train_set.size()
            << " signatures (first 60% of each run, all nodes)\n\n";

  // In-band phase: per run, replay the held-out tail of all nodes through
  // one StreamEngine and classify whatever each node's queue yields.
  ml::ConfusionMatrix cm(seg.class_names.size());
  std::vector<std::size_t> per_node_hits(n_nodes, 0);
  std::vector<std::size_t> per_node_total(n_nodes, 0);
  double ingest_seconds = 0.0;
  std::uint64_t streamed_samples = 0;
  for (const hpcoda::RunInfo& run : seg.runs) {
    const std::size_t train_len = (run.end - run.begin) * 3 / 5;
    const std::size_t test_begin = run.begin + train_len;
    if (run.end - test_begin < opts.window_length) continue;

    core::StreamEngine engine(opts);
    std::vector<common::Matrix> batches;
    batches.reserve(n_nodes);
    for (std::size_t b = 0; b < n_nodes; ++b) {
      engine.add_node(seg.blocks[b].name, methods[b]);
      batches.push_back(seg.blocks[b].sensors.sub_cols(
          test_begin, run.end - test_begin));
    }
    engine.ingest_batch(batches);

    for (std::size_t b = 0; b < n_nodes; ++b) {
      for (const std::vector<double>& features : engine.drain(b)) {
        const int predicted = forest.predict_one(features);
        cm.add(run.label, predicted);
        ++per_node_total[b];
        if (predicted == run.label) ++per_node_hits[b];
      }
    }
    const core::EngineStats stats = engine.stats();
    ingest_seconds += stats.ingest_seconds;
    streamed_samples += stats.samples;
  }

  std::printf("%-10s %10s\n", "Node", "Hits");
  for (std::size_t b = 0; b < n_nodes; ++b) {
    std::printf("%-10s %5zu/%-5zu\n", seg.blocks[b].name.c_str(),
                per_node_hits[b], per_node_total[b]);
  }
  std::printf("\nFleet totals: %llu samples streamed in %.3f s "
              "(%.0f samples/s), accuracy %.4f, macro F1 %.4f\n",
              static_cast<unsigned long long>(streamed_samples),
              ingest_seconds,
              ingest_seconds > 0.0
                  ? static_cast<double>(streamed_samples) / ingest_seconds
                  : 0.0,
              cm.accuracy(), cm.macro_f1());
  return 0;
}
