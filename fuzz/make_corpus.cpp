// Seed-corpus generator: writes one real fixture per format family under
// <out-dir>/<harness>/ so the fuzzers start from valid inputs instead of
// random bytes. Run after codec/schema changes and commit the refreshed
// corpus:
//
//   cmake --build build/release --target csm_make_corpus
//   ./build/release/fuzz/csm_make_corpus fuzz/corpus
//
// Seeds are deterministic (fixed RNG seed) so regeneration is diff-clean
// unless a wire format actually changed.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "benchkit/json.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/method_registry.hpp"
#include "core/model_codec.hpp"
#include "core/model_pack.hpp"
#include "core/signature_method.hpp"
#include "net/frame.hpp"
#include "net/message.hpp"
#include "replay/recording.hpp"

namespace {

namespace fs = std::filesystem;

void write_bytes(const fs::path& file, const void* data, std::size_t size) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  if (!out) {
    std::fprintf(stderr, "make_corpus: write failed: %s\n", file.c_str());
    std::exit(1);
  }
}

void write_text(const fs::path& file, const std::string& text) {
  write_bytes(file, text.data(), text.size());
}

/// A small deterministic training matrix (rows = sensors, cols = samples).
csm::common::Matrix training_matrix(std::size_t sensors, std::size_t samples) {
  csm::common::Matrix m(sensors, samples);
  csm::common::Rng rng(42);
  for (std::size_t r = 0; r < sensors; ++r) {
    for (std::size_t c = 0; c < samples; ++c) {
      m(r, c) = rng.uniform(-1.0, 1.0) +
                static_cast<double>(r) * 0.25 +
                0.1 * static_cast<double>(c % 7);
    }
  }
  return m;
}

/// One trained method per registry family, keyed by a filename-safe label.
std::vector<std::pair<std::string,
                      std::unique_ptr<csm::core::SignatureMethod>>>
trained_methods() {
  const csm::core::MethodRegistry& registry =
      csm::baselines::default_registry();
  const csm::common::Matrix train = training_matrix(8, 64);
  std::vector<std::pair<std::string,
                        std::unique_ptr<csm::core::SignatureMethod>>>
      out;
  for (const std::string& spec :
       {std::string("cs:blocks=2"), std::string("cs:real-only"),
        std::string("pca:components=3"), std::string("tuncer"),
        std::string("bodik"), std::string("lan:wr=5")}) {
    std::string label = spec;
    for (char& c : label) {
      if (c == ':' || c == ',' || c == '=') c = '-';
    }
    auto method = registry.create(spec);
    out.emplace_back(label, method->trained()
                                ? std::move(method)
                                : method->fit(train));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  for (const char* harness : {"model-codec", "model-pack", "method-spec",
                              "json", "sensor-csv", "frame", "recording"}) {
    fs::create_directories(root / harness);
  }

  // --- model-codec (binary records) ---------------------------------------
  for (const auto& [label, method] : trained_methods()) {
    const std::vector<std::uint8_t> record =
        csm::core::codec::encode_binary(*method);
    write_bytes(root / "model-codec" / (label + ".csmb"), record.data(),
                record.size());
  }

  // --- model-pack: a 3-node mixed-method fleet store -----------------------
  {
    const fs::path pack_file = root / "model-pack" / "fleet3.csmp";
    csm::core::ModelPackWriter writer(pack_file);
    auto methods = trained_methods();
    writer.add("node-07", *methods[0].second);
    writer.add("node-03", *methods[2].second);
    writer.add("node-11", *methods[5].second);
    writer.finish();
  }

  // --- method-spec ---------------------------------------------------------
  {
    const char* specs[] = {"cs",
                           "cs:blocks=20,real-only",
                           "pca:components=8",
                           "tuncer:bins=30",
                           "lan:wr=10",
                           "bodik",
                           "CS : Blocks = 4",
                           "unknown-method:flag"};
    int i = 0;
    for (const char* spec : specs) {
      write_text(root / "method-spec" / ("spec" + std::to_string(i++) + ".txt"),
                 spec);
    }
  }

  // --- json: a miniature csm-bench-v1 result + edge documents --------------
  {
    csm::benchkit::Json run = csm::benchkit::Json::object();
    run.set("schema", "csm-bench-v1");
    run.set("driver", "stream_throughput");
    run.set("seed", "12345678901234567890");
    csm::benchkit::Json cases = csm::benchkit::Json::array();
    csm::benchkit::Json c = csm::benchkit::Json::object();
    c.set("name", "ring/hist=4096");
    c.set("wall_seconds", 0.0123);
    c.set("items_per_second", 812345.5);
    csm::benchkit::Json params = csm::benchkit::Json::object();
    params.set("history", 4096);
    params.set("sensors", 16);
    c.set("params", std::move(params));
    cases.push(std::move(c));
    run.set("cases", std::move(cases));
    write_text(root / "json" / "bench-v1.json", run.dump(2));
    write_text(root / "json" / "scalars.json", "[null, true, -1.5e-3, \"a\"]");
    write_text(root / "json" / "escapes.json",
               "{\"s\": \"line\\n\\ttab \\u0007 quote\\\"\"}");
  }

  // --- frame: CSMF wire frames (single and back-to-back) -------------------
  {
    using csm::net::Frame;
    using csm::net::FrameType;
    const auto dump = [&](const char* name, const Frame& frame) {
      const std::vector<std::uint8_t> wire = csm::net::encode_frame(frame);
      write_bytes(root / "frame" / name, wire.data(), wire.size());
    };

    Frame batch;
    batch.type = FrameType::kSampleBatch;
    batch.node = "node-07";
    batch.payload = csm::net::encode_sample_batch(training_matrix(4, 6));
    dump("sample-batch.csmf", batch);

    Frame add;
    add.type = FrameType::kNodeAdd;
    add.node = "node-07";
    csm::net::NodeAdd msg;
    msg.source = csm::net::NodeAddSource::kInlineRecord;
    msg.record = csm::core::codec::encode_binary(
        *trained_methods().front().second);
    add.payload = csm::net::encode_node_add(msg);
    dump("node-add-inline.csmf", add);

    Frame drain;
    drain.type = FrameType::kDrainRequest;
    drain.node = "node-07";
    dump("drain-request.csmf", drain);

    Frame stats;
    stats.type = FrameType::kStatsRequest;
    dump("stats-request.csmf", stats);

    Frame node_stats_request;
    node_stats_request.type = FrameType::kNodeStatsRequest;
    dump("node-stats-request.csmf", node_stats_request);

    Frame node_stats;
    node_stats.type = FrameType::kNodeStatsResponse;
    csm::net::NodeStatsResponse rows;
    csm::core::NodeStats row;
    row.name = "node-07";
    row.samples = 4096;
    row.signatures = 404;
    row.retrains = 3;
    row.retrain_aborts = 1;
    row.dropped = 12;
    row.drift_windows = 380;
    row.drift_flags = 6;
    row.drift_retrains = 2;
    row.ingest_latency_us.add(2.5);
    row.ingest_latency_us.add(40.0);
    row.retrain_latency_us.add(1.25e5);
    rows.nodes.push_back(row);
    rows.nodes.emplace_back();  // A fresh node: all counters zero.
    node_stats.payload = csm::net::encode_node_stats_response(rows);
    dump("node-stats-response.csmf", node_stats);

    Frame stats_response;
    stats_response.type = FrameType::kStatsResponse;
    const csm::net::StatsResponse fleet{{row, 2, 0.75}, "0123456789ab"};
    stats_response.payload = csm::net::encode_stats_response(fleet);
    dump("stats-response.csmf", stats_response);

    Frame drain_response;
    drain_response.type = FrameType::kDrainResponse;
    drain_response.node = "node-07";
    drain_response.payload = csm::net::encode_drain_response(
        {3, {{0.5, -1.25, 2.0}, {}, {1e-3}}});
    dump("drain-response.csmf", drain_response);

    Frame error;
    error.type = FrameType::kError;
    error.payload = csm::net::encode_error_text("unknown node \"ghost\"");
    dump("error.csmf", error);

    // Several frames back to back, as a socket actually delivers them.
    std::vector<std::uint8_t> stream;
    for (const Frame* frame : {&batch, &drain, &stats}) {
      const std::vector<std::uint8_t> wire = csm::net::encode_frame(*frame);
      stream.insert(stream.end(), wire.begin(), wire.end());
    }
    write_bytes(root / "frame" / "three-frames.csmf", stream.data(),
                stream.size());
  }

  // --- recording: CSMR ingest captures -------------------------------------
  {
    const auto dump = [&](const char* name, const csm::replay::Recorder& r) {
      const std::vector<std::uint8_t> bytes = r.bytes();
      write_bytes(root / "recording" / name, bytes.data(), bytes.size());
    };

    // A two-node fleet capture with interleaved multi-column batches, the
    // shape `csmcli stream --record` produces.
    {
      csm::replay::Recorder rec;
      const std::uint32_t a = rec.add_node("node-07", 4);
      const std::uint32_t b = rec.add_node("node-03", 3);
      rec.record(a, training_matrix(4, 6));
      rec.record(b, training_matrix(3, 5));
      rec.record(a, training_matrix(4, 2));
      rec.finish();
      dump("two-nodes.csmr", rec);
    }

    // Single node, one single-column batch (the per-push capture shape).
    {
      csm::replay::Recorder rec;
      rec.record(rec.add_node("n", 2), training_matrix(2, 1));
      rec.finish();
      dump("one-column.csmr", rec);
    }

    // Declared but never-fed node, plus an explicit timestamp batch.
    {
      csm::replay::Recorder rec;
      const std::uint32_t a = rec.add_node("fed", 2);
      (void)rec.add_node("silent", 8);
      rec.record(a, training_matrix(2, 3), 1000);
      rec.finish();
      dump("silent-node.csmr", rec);
    }

    // The degenerate-but-valid empty capture: header + table + CRC only.
    {
      csm::replay::Recorder rec;
      rec.finish();
      dump("empty.csmr", rec);
    }
  }

  // --- sensor-csv ----------------------------------------------------------
  {
    write_text(root / "sensor-csv" / "plain.csv",
               "timestamp,value\n"
               "1000,0.5\n"
               "2000,0.75\n"
               "3000,1.25\n");
    write_text(root / "sensor-csv" / "comments.csv",
               "# exported by hpcoda\n"
               "  Timestamp , Value \n"
               "1000 , -3.5e2\n"
               "\n"
               "2000,nan\n");
    write_text(root / "sensor-csv" / "bare.csv", "5,1\n6,2\n");
  }

  std::printf("make_corpus: seeds written under %s\n", root.c_str());
  return 0;
}
