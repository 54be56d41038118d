// Online fault detection: the in-band ODA deployment of Fig. 1.
//
// A CS model and a random forest are trained offline on the first 60% of
// every run in the Fault segment — the "fault catalog" a production system
// accumulates. The remaining 40% of each run is then replayed
// sample-by-sample through a MethodStream driving the CS method,
// classifying every emitted signature in real time, exactly the control
// loop the paper's Fault use case feeds.
//
// Usage: online_fault_detection [scale]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/method_stream.hpp"
#include "core/pipeline.hpp"
#include "harness/experiment.hpp"
#include "hpcoda/generator.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

int main(int argc, char** argv) {
  using namespace csm;
  hpcoda::GeneratorConfig config;
  config.scale = argc > 1 ? std::atof(argv[1]) : 1.0;

  const hpcoda::Segment seg = hpcoda::make_fault_segment(config);
  const common::Matrix& sensors = seg.blocks.front().sensors;
  std::cout << "Fault segment: " << sensors.rows() << " sensors, "
            << sensors.cols() << " samples, " << seg.runs.size()
            << " runs\n";

  // Offline phase: a CS-20 method fitted on the historical data, then a
  // classifier over the training share of every run.
  const std::shared_ptr<const core::SignatureMethod> method =
      core::CsSignatureMethod(core::CsOptions{20, false}).fit(sensors);
  core::StreamOptions opts;
  opts.window_length = seg.window.length;
  opts.window_step = seg.window.step;

  data::Dataset train_set;
  for (const hpcoda::RunInfo& run : seg.runs) {
    const std::size_t train_len = (run.end - run.begin) * 3 / 5;
    if (train_len < opts.window_length) continue;
    core::MethodStream trainer(method, opts);
    for (const std::vector<double>& features :
         trainer.push_all(sensors.sub_cols(run.begin, train_len))) {
      train_set.features.append_row(features);
      train_set.labels.push_back(run.label);
    }
  }
  if (train_set.size() == 0) {
    std::cerr << "no run is long enough for a training window at scale "
              << config.scale << "; try a larger scale\n";
    return 1;
  }
  ml::RandomForestClassifier forest;
  forest.fit(train_set.features, train_set.labels);
  std::cout << "Trained on " << train_set.size()
            << " signatures from the first 60% of each run\n\n";

  // Online phase: replay the held-out tail of every run through a stream.
  ml::ConfusionMatrix cm(seg.class_names.size());
  std::size_t n_online = 0;
  std::vector<std::size_t> per_class_hits(seg.class_names.size(), 0);
  std::vector<std::size_t> per_class_total(seg.class_names.size(), 0);
  for (const hpcoda::RunInfo& run : seg.runs) {
    const std::size_t train_len = (run.end - run.begin) * 3 / 5;
    const std::size_t test_begin = run.begin + train_len;
    if (run.end - test_begin < opts.window_length) continue;
    core::MethodStream stream(method, opts);
    std::vector<double> column(sensors.rows());
    for (std::size_t c = test_begin; c < run.end; ++c) {
      for (std::size_t s = 0; s < sensors.rows(); ++s) {
        column[s] = sensors(s, c);
      }
      if (const auto features = stream.push(column)) {
        const int predicted = forest.predict_one(*features);
        cm.add(run.label, predicted);
        const auto cls = static_cast<std::size_t>(run.label);
        ++per_class_total[cls];
        if (predicted == run.label) ++per_class_hits[cls];
        ++n_online;
      }
    }
  }

  std::printf("%-12s %8s\n", "Class", "Hits");
  for (std::size_t c = 0; c < seg.class_names.size(); ++c) {
    std::printf("%-12s %4zu/%-4zu\n", seg.class_names[c].c_str(),
                per_class_hits[c], per_class_total[c]);
  }
  std::printf("\nOnline totals: %zu signatures, accuracy %.4f, macro F1 "
              "%.4f\n",
              n_online, cm.accuracy(), cm.macro_f1());
  return 0;
}
