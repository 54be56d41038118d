// csmcli — command-line front-end to the CS library.
//
// Lets operators run the full offline workflow from a shell, against sensor
// data in the HPC-ODA on-disk layout (a directory of per-sensor
// "timestamp,value" CSVs). Any registered signature method can be selected
// with --method SPEC (spec strings such as "cs:blocks=20,real-only",
// "tuncer" or "pca:components=8"; run `csmcli methods` for the registry):
//
//   csmcli methods
//       List the registered signature methods and their spec grammar.
//
//   csmcli train   <sensor_dir> <model_file> [--interval MS] [--method SPEC]
//       Align the sensors and fit a method on them (classic CS without
//       --method), writing the model as one CRC-framed CSMB record.
//
//   csmcli info    <model_file | pack_file>
//       Print a model summary followed by its fields, one line each, or
//       the index summary of a model pack.
//
//   csmcli pack    <model_dir> <pack_file>
//       Bundle every model file in a directory into one mmap-able model
//       pack (node id = file stem).
//
//   csmcli unpack  <pack_file> <out_dir>
//       Extract every pack record back into per-node .csmb model files.
//
//   csmcli extract <sensor_dir> <model_file> <out_csv>
//           [--window WL] [--step WS] [--interval MS]
//   csmcli extract <sensor_dir> <out_csv> --method SPEC
//           [--window WL] [--step WS] [--interval MS]
//       Stream the aligned sensors through one MethodStream and write the
//       signature of every sliding window as a feature CSV (label column
//       fixed to 0; relabel downstream). Each window after the first is
//       seeded with the column before it, exactly as `stream` emits it. The
//       two-positional form fits the spec'd method on the extraction data
//       itself (self-trained in-band mode); the three-positional form uses
//       a previously trained model file, which carries its own options.
//
//   csmcli sort    <sensor_dir> <model_file> <out_pgm> [--interval MS]
//       Render the sorted (normalised + permuted) matrix as a PGM image
//       (requires a CS model).
//
//   csmcli stream  <segment> [--method SPEC] [--scale S]
//           [--window WL] [--step WS] [--history H] [--retrain N]
//           [--retrain-threads N] [--drift-threshold X] [--drift-patience N]
//           [--batch B] [--seed N] [--pack FILE] [--dump-models DIR]
//           [--sig-out FILE] [--record FILE] [--scenario SPEC]
//       Replay a synthetic HPC-ODA segment (fault, application, power,
//       infrastructure, cross-arch) through a StreamEngine — one
//       MethodStream per component, fitted per node — in batches of B
//       columns, and report per-node signature counts plus aggregate
//       ingestion throughput and latency. --pack skips the training pass
//       and loads the per-node models lazily from a model pack;
//       --dump-models writes the fitted per-node models to a directory
//       (feed it to `csmcli pack`); --sig-out drains every node and writes
//       the signatures as "node v0 v1 ..." lines (byte-comparable with
//       `csmcli push --sig-out` against a daemon). The retrain flags select
//       the retrain policy (tools/retrain_flags.hpp); a failed refit keeps
//       the node's model and is counted. --record taps the engine and
//       captures exactly what it ingested as a CSMR recording
//       (docs/RECORDING.md); --scenario mutates the stream with seeded
//       fault injectors (--seed) BEFORE ingestion — and before the tap, so
//       a recording holds the stream the engine actually saw. Models always
//       fit on the clean segment.
//
//   csmcli record  <segment> <recording> [--scale S] [--seed N]
//           [--batch B] [--scenario SPEC]
//       Capture a segment replay as a CSMR recording without running an
//       engine: per node, the same batches `stream` would ingest
//       (post-scenario), written straight to the file node by node. (A
//       `stream --record` capture of a multi-node segment interleaves the
//       nodes in thread arrival order instead; both replay alike.)
//
//   csmcli replay  <recording> [--method SPEC | --pack FILE] [--window WL]
//           [--step WS] [--history H] [--retrain N] [--retrain-threads N]
//           [--drift-threshold X] [--drift-patience N] [--seed N]
//           [--scenario SPEC] [--sig-out FILE]
//       Re-drive a CSMR recording through a StreamEngine, batch for batch.
//       Without --pack, each node's method is fitted on its recorded
//       samples — a clean recording replayed with the same method and
//       window flags reproduces the original `stream` run's signature file
//       byte for byte. --scenario mutates the recorded stream on the way
//       in (models still fit on the recording as stored), so one clean
//       capture can be replayed under many fault scenarios.
//
//   csmcli push <segment> --socket PATH [--method SPEC] [--scale S]
//           [--batch B] [--sig-out FILE]
//       Client counterpart of stream: fit the per-node methods locally,
//       register each node with a csmd daemon (model shipped inline as a CSMB
//       record), push the segment's columns as CSMF sample batches, then
//       drain every node's signatures back over the wire.
//
// stream, push and replay fit cs:blocks=20 without --method, train fits
// classic CS-All ("cs"); a CS variant is chosen by spec only, e.g.
// --method cs:blocks=10,real-only.
//
//   csmcli fleet-stats --socket PATH
//       Scrape a running daemon: the fleet totals stream and push print
//       (counters, ingest throughput, p50/p99 of the merged ingest- and
//       retrain-latency histograms, the drift-detector counters), the
//       server's build sha, then one row per live node with every counter
//       by name.
//
//   csmcli version
//       Print this build's git sha.
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime failures.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "benchkit/args.hpp"
#include "benchkit/benchkit.hpp"
#include "core/method_registry.hpp"
#include "core/method_stream.hpp"
#include "core/model_codec.hpp"
#include "core/model_pack.hpp"
#include "core/pipeline.hpp"
#include "core/stream_engine.hpp"
#include "core/training.hpp"
#include "data/alignment.hpp"
#include "data/csv.hpp"
#include "data/feature_csv.hpp"
#include "harness/heatmap.hpp"
#include "hpcoda/generator.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "net/unix_socket.hpp"
#include "replay/recording.hpp"
#include "replay/scenario.hpp"
#include "stats/histogram.hpp"

#include "retrain_flags.hpp"

namespace {

using namespace csm;

struct Options {
  std::vector<std::string> positional;
  std::string method;            // --method SPEC ("" = the command's default).
  std::int64_t interval_ms = 0;  // 0 = auto.
  std::size_t window = 60;
  std::size_t step = 10;
  bool window_set = false;  // Whether the flag was given explicitly (stream
  bool step_set = false;    // uses the segment's wl/ws otherwise).
  double scale = 1.0;
  std::size_t history = 1024;
  std::size_t batch = 256;
  std::string pack_file;        // --pack FILE (stream: load models from it).
  std::string dump_dir;         // --dump-models DIR (stream: save models).
  std::string socket;           // --socket PATH (push/fleet-stats).
  std::string sig_out;          // --sig-out FILE (stream/push: drained sigs).
  std::uint64_t seed = 2021;    // --seed N (generator + scenario master seed).
  std::string record_file;      // --record FILE (stream: CSMR capture).
  std::string scenario;         // --scenario SPEC (fault-injection spec).
  tools::RetrainFlags retrain;   // --retrain, --retrain-threads, --drift-*.
};

/// Extension of the model files unpack and stream --dump-models write.
constexpr const char* kModelExtension = ".csmb";

/// The spec stream, push and replay fit without --method. One constant, so
/// stream and push fit bit-identical models (the daemon equivalence test
/// depends on that).
constexpr const char* kStreamSpec = "cs:blocks=20";

void usage(std::ostream& out) {
  out << "usage:\n"
      << "  csmcli methods\n"
      << "  csmcli train   <sensor_dir> <model_file> [--interval MS]\n"
      << "                 [--method SPEC]\n"
      << "  csmcli info    <model_file | pack_file>\n"
      << "  csmcli pack    <model_dir> <pack_file>\n"
      << "  csmcli unpack  <pack_file> <out_dir>\n"
      << "  csmcli extract <sensor_dir> <model_file> <out_csv>\n"
      << "                 [--window WL] [--step WS] [--interval MS]\n"
      << "  csmcli extract <sensor_dir> <out_csv> --method SPEC\n"
      << "                 [--window WL] [--step WS] [--interval MS]\n"
      << "  csmcli sort    <sensor_dir> <model_file> <out_pgm>"
      << " [--interval MS]\n"
      << "  csmcli stream  <segment> [--method SPEC] [--scale S]\n"
      << "                 [--window WL] [--step WS]\n"
      << "                 [--history H] [--retrain N] [--batch B]\n"
      << "                 [--retrain-threads N] [--drift-threshold X]\n"
      << "                 [--drift-patience N] [--seed N] [--pack FILE]\n"
      << "                 [--dump-models DIR] [--sig-out FILE]\n"
      << "                 [--record FILE] [--scenario SPEC]\n"
      << "                 (segment: fault | application | power |\n"
      << "                  infrastructure | cross-arch)\n"
      << "  csmcli record  <segment> <recording> [--scale S] [--seed N]\n"
      << "                 [--batch B] [--scenario SPEC]\n"
      << "  csmcli replay  <recording> [--method SPEC | --pack FILE]\n"
      << "                 [--window WL] [--step WS] [--history H]\n"
      << "                 [--retrain N] [--retrain-threads N]\n"
      << "                 [--drift-threshold X] [--drift-patience N]\n"
      << "                 [--seed N] [--scenario SPEC] [--sig-out FILE]\n"
      << "  csmcli push    <segment> --socket PATH [--method SPEC]\n"
      << "                 [--scale S] [--batch B] [--seed N]\n"
      << "                 [--sig-out FILE]\n"
      << "  csmcli fleet-stats --socket PATH\n"
      << "  csmcli version\n"
      << "\n"
      << "method specs look like \"cs:blocks=20,real-only\" or\n"
      << "\"pca:components=8\"; run `csmcli methods` for the full list.\n"
      << "scenario specs compose fault injectors with '+', e.g.\n"
      << "\"dropout:p=0.02+drift:at=2000\":\n"
      << replay::Scenario::grammar() << '\n';
}

// Numeric options go through benchkit's checked parsers: the whole value
// must parse ("--batch 20x" is an error naming the flag, not a silent 20).
// Throws std::invalid_argument on malformed values, missing values and
// conflicting retrain flags.
bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(flag) + ": missing value");
      }
      return argv[++i];
    };
    if (opts.retrain.parse(arg, next_value)) {
      // A retrain flag, parsed as csmd parses it.
    } else if (arg == "--interval") {
      opts.interval_ms =
          benchkit::parse_int64("--interval", next_value("--interval"));
    } else if (arg == "--method") {
      opts.method = next_value("--method");
    } else if (arg == "--window") {
      opts.window = benchkit::parse_size_t("--window", next_value("--window"));
      opts.window_set = true;
    } else if (arg == "--step") {
      opts.step = benchkit::parse_size_t("--step", next_value("--step"));
      opts.step_set = true;
    } else if (arg == "--scale") {
      opts.scale = benchkit::parse_double("--scale", next_value("--scale"));
    } else if (arg == "--history") {
      opts.history =
          benchkit::parse_size_t("--history", next_value("--history"));
    } else if (arg == "--batch") {
      opts.batch = benchkit::parse_size_t("--batch", next_value("--batch"));
    } else if (arg == "--pack") {
      opts.pack_file = next_value("--pack");
    } else if (arg == "--dump-models") {
      opts.dump_dir = next_value("--dump-models");
    } else if (arg == "--socket") {
      opts.socket = next_value("--socket");
    } else if (arg == "--sig-out") {
      opts.sig_out = next_value("--sig-out");
    } else if (arg == "--seed") {
      opts.seed = benchkit::parse_uint64("--seed", next_value("--seed"));
    } else if (arg == "--record") {
      opts.record_file = next_value("--record");
    } else if (arg == "--scenario") {
      opts.scenario = next_value("--scenario");
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << '\n';
      return false;
    } else {
      opts.positional.push_back(arg);
    }
  }
  // A pack carries fully trained models, so a training spec next to it
  // would be silently ignored — reject the combination instead.
  if (!opts.pack_file.empty() && !opts.method.empty()) {
    std::cerr << "--pack conflicts with --method (the pack already fixes "
                 "each node's trained method)\n";
    return false;
  }
  opts.retrain.check();
  return true;
}

data::AlignedSensors load_aligned(const std::string& dir,
                                  std::int64_t interval_ms) {
  const auto series = data::read_sensor_dir(dir);
  return interval_ms > 0 ? data::align(series, interval_ms)
                         : data::align_auto(series);
}

bool is_pack_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char head[sizeof(core::kPackMagic)] = {};
  in.read(head, sizeof(head));
  return in.gcount() == sizeof(head) &&
         std::memcmp(head, core::kPackMagic, sizeof(head)) == 0;
}

int cmd_methods(const Options& opts) {
  if (!opts.positional.empty()) {
    usage(std::cerr);
    return 1;
  }
  std::printf("%-24s %s\n", "SPEC", "DESCRIPTION");
  for (const auto& entry : baselines::default_registry().entries()) {
    std::printf("%-24s %s\n", entry.grammar.c_str(), entry.summary.c_str());
  }
  return 0;
}

int cmd_train(const Options& opts) {
  if (opts.positional.size() != 2) {
    usage(std::cerr);
    return 1;
  }
  const data::AlignedSensors aligned =
      load_aligned(opts.positional[0], opts.interval_ms);
  std::cout << "aligned " << aligned.matrix.rows() << " sensors x "
            << aligned.matrix.cols() << " samples (interval "
            << aligned.interval_ms << " ms)\n";
  // Default spec: classic CS-All.
  const std::string spec = opts.method.empty() ? "cs" : opts.method;
  const auto method =
      baselines::default_registry().create(spec)->fit(aligned.matrix);
  core::save_method(*method, opts.positional[1]);
  std::cout << method->name() << " model written to " << opts.positional[1]
            << '\n';
  return 0;
}

int cmd_info(const Options& opts) {
  if (opts.positional.size() != 1) {
    usage(std::cerr);
    return 1;
  }
  if (is_pack_file(opts.positional[0])) {
    const core::ModelPack pack = core::ModelPack::open(opts.positional[0]);
    std::cout << "model pack: " << pack.size() << " models\n";
    constexpr std::size_t kListed = 10;
    for (std::size_t i = 0; i < std::min(pack.size(), kListed); ++i) {
      const auto record = pack.record(i);
      const core::codec::RecordView view = core::codec::parse_record(record);
      std::cout << "  " << pack.id(i) << ": " << view.key << ", "
                << record.size() << " bytes\n";
    }
    if (pack.size() > kListed) {
      std::cout << "  ... (" << pack.size() - kListed << " more)\n";
    }
    return 0;
  }
  const auto method = baselines::default_registry().load(opts.positional[0]);
  const std::size_t n = method->n_sensors();
  std::cout << "method: " << method->name() << "\nsensors: "
            << (n == 0 ? std::string("any") : std::to_string(n))
            << "\nsignature length: ";
  if (n == 0) {
    // Sensor-count-agnostic method: quote the per-sensor scaling instead of
    // a meaningless length for n = 0.
    std::cout << method->signature_length(1) << " per sensor\n";
  } else {
    std::cout << method->signature_length(n) << '\n';
  }
  core::codec::TextSink fields;
  method->save(fields);
  std::cout << "fields:\n" << fields.body();
  return 0;
}

int cmd_extract(const Options& opts) {
  // Self-trained form (<sensor_dir> <out_csv> --method SPEC): fit the
  // spec'd method on the extraction data. Otherwise load a model file.
  const bool self_trained = !opts.method.empty();
  if (opts.positional.size() != (self_trained ? 2u : 3u)) {
    usage(std::cerr);
    return 1;
  }
  const common::Matrix sensors =
      load_aligned(opts.positional[0], opts.interval_ms).matrix;
  std::shared_ptr<const core::SignatureMethod> method =
      self_trained
          ? baselines::default_registry().create(opts.method)->fit(sensors)
          : baselines::default_registry().load(opts.positional[1]);
  const data::WindowSpec spec{opts.window, opts.step};
  spec.validate();
  if (sensors.cols() < spec.length) {
    std::cerr << "no complete windows (have " << sensors.cols()
              << " samples, window is " << spec.length << ")\n";
    return 2;
  }
  // One stream over all columns: every window after the first is seeded
  // with the column before it, exactly as `stream` emits it.
  core::StreamOptions options;
  options.window_length = spec.length;
  options.window_step = spec.step;
  options.history_length = spec.length + 1;
  core::MethodStream stream(std::move(method), options, sensors.rows());
  data::Dataset ds;
  for (const std::vector<double>& features : stream.push_all(sensors)) {
    ds.features.append_row(features);
    ds.labels.push_back(0);
  }
  const std::string& out_csv = opts.positional.back();
  data::write_feature_csv(out_csv, ds);
  std::cout << "wrote " << ds.size() << " " << stream.method().name()
            << " signatures of length " << ds.feature_length() << " to "
            << out_csv << '\n';
  return 0;
}

int cmd_sort(const Options& opts) {
  if (opts.positional.size() != 3) {
    usage(std::cerr);
    return 1;
  }
  const data::AlignedSensors aligned =
      load_aligned(opts.positional[0], opts.interval_ms);
  const auto method = baselines::default_registry().load(opts.positional[1]);
  const auto* cs = dynamic_cast<const core::CsSignatureMethod*>(method.get());
  if (!cs) {
    std::cerr << "sort requires a CS model; " << method->name()
              << " has no sorting stage\n";
    return 2;
  }
  harness::write_pgm(opts.positional[2],
                     cs->pipeline()->model().sort(aligned.matrix));
  std::cout << "wrote sorted heatmap (" << aligned.matrix.rows() << " x "
            << aligned.matrix.cols() << ") to " << opts.positional[2]
            << '\n';
  return 0;
}

int cmd_pack(const Options& opts) {
  if (opts.positional.size() != 2) {
    usage(std::cerr);
    return 1;
  }
  const std::filesystem::path dir = opts.positional[0];
  if (!std::filesystem::is_directory(dir)) {
    std::cerr << "error: " << dir.string() << " is not a directory\n";
    return 2;
  }
  // Deterministic packs: iterate the model files in sorted order (the index
  // is sorted anyway, but record order affects the bytes).
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "error: no model files in " << dir.string() << '\n';
    return 2;
  }
  const core::MethodRegistry& registry = baselines::default_registry();
  core::ModelPackWriter writer(opts.positional[1]);
  for (const std::filesystem::path& file : files) {
    // Node id = file stem, so `stream --dump-models` names round-trip.
    writer.add(file.stem().string(), *registry.load(file));
  }
  writer.finish();
  std::cout << "packed " << files.size() << " models into "
            << opts.positional[1] << '\n';
  return 0;
}

int cmd_unpack(const Options& opts) {
  if (opts.positional.size() != 2) {
    usage(std::cerr);
    return 1;
  }
  const core::ModelPack pack = core::ModelPack::open(opts.positional[0]);
  const core::MethodRegistry& registry = baselines::default_registry();
  std::filesystem::create_directories(opts.positional[1]);
  for (std::size_t i = 0; i < pack.size(); ++i) {
    const std::string id(pack.id(i));
    // pack.id() already rejects ids that are unsafe as file names; keep a
    // local guard so the path join below can never escape the output
    // directory even if that invariant loosens.
    if (!core::is_safe_pack_id(id)) {
      std::cerr << "error: unsafe node id in " << opts.positional[0] << '\n';
      return 2;
    }
    // Round-trip through the registry so every record's CRC and fields are
    // validated before a file is written.
    const auto method = pack.load(id, registry);
    core::save_method(*method, std::filesystem::path(opts.positional[1]) /
                                   (id + kModelExtension));
  }
  std::cout << "unpacked " << pack.size() << " models to "
            << opts.positional[1] << '\n';
  return 0;
}

hpcoda::Segment make_segment(const std::string& name, double scale,
                             std::uint64_t seed) {
  hpcoda::GeneratorConfig config;
  config.scale = scale;
  config.seed = seed;
  if (name == "fault") return hpcoda::make_fault_segment(config);
  if (name == "application") return hpcoda::make_application_segment(config);
  if (name == "power") return hpcoda::make_power_segment(config);
  if (name == "infrastructure") {
    return hpcoda::make_infrastructure_segment(config);
  }
  if (name == "cross-arch") return hpcoda::make_cross_arch_segment(config);
  throw std::runtime_error("unknown segment: " + name);
}

// One signature per line, "node v0 v1 ...", doubles printed with %.17g so
// the file round-trips exactly. stream and push write the same bytes for
// the same replay — the end-to-end daemon equivalence check is a cmp of
// two such files.
void write_signature_lines(std::ostream& out, const std::string& node,
                           const std::vector<std::vector<double>>& sigs) {
  char buf[40];
  for (const std::vector<double>& sig : sigs) {
    out << node;
    for (double v : sig) {
      std::snprintf(buf, sizeof(buf), " %.17g", v);
      out << buf;
    }
    out << '\n';
  }
}

unsigned long long ull(std::uint64_t v) { return v; }

// Fleet totals from one EngineStats record: stream and replay print their
// local engine's, push and fleet-stats a daemon's scrape. Swaps (models that
// replaced the live one) are counted apart from aborts (superseded shadow
// fits), so a stall-free async run is distinguishable from one that never
// kept up, and apart from failed fits (each left its node serving the old
// model).
void print_totals(const char* who, const core::EngineStats& s) {
  std::printf("%s totals: %llu samples ingested, %llu signatures emitted, "
              "%llu retrains, %llu dropped across %llu nodes\n",
              who, ull(s.samples), ull(s.signatures), ull(s.retrains),
              ull(s.dropped), ull(s.nodes));
  std::printf("ingested in %.3f s (%.0f samples/s aggregate)\n",
              s.ingest_seconds, s.samples_per_second());
  const stats::Histogram& in = s.ingest_latency_us;
  std::printf("ingest latency: p50 %.1f us, p99 %.1f us "
              "(%llu calls, %llu beyond %g us)\n",
              in.quantile(0.5), in.quantile(0.99), ull(in.total()),
              ull(in.overflow()), in.hi());
  const stats::Histogram& rt = s.retrain_latency_us;
  std::printf("retrain latency: p50 %.1f us, p99 %.1f us "
              "(%llu swaps, %llu aborted), %llu failed fits\n",
              rt.quantile(0.5), rt.quantile(0.99), ull(s.retrains),
              ull(s.retrain_aborts), ull(s.retrain_failures));
  std::printf("drift detector: %llu windows scored, %llu flagged, "
              "%llu drift retrains\n",
              ull(s.drift_windows), ull(s.drift_flags),
              ull(s.drift_retrains));
}

// One node-stats row with every field under its StreamCounters list name,
// so a counter the list gains shows up here without an edit.
void print_node_row(const core::NodeStats& row) {
  std::printf("  %s:", row.name.c_str());
  core::StreamCounters::for_each_field([&](const char* name, auto field) {
    if constexpr (core::kIsHistogramField<decltype(field)>) {
      std::printf(" %s p50=%.1f p99=%.1f", name, (row.*field).quantile(0.5),
                  (row.*field).quantile(0.99));
    } else {
      std::printf(" %s=%llu", name, ull(row.*field));
    }
  });
  std::printf("\n");
}

// One request/reply round trip; returns the reply's payload, which must
// come in an `expected` frame.
std::vector<std::uint8_t> ask(net::Connection& conn, net::FrameReader& reader,
                              const net::Frame& request,
                              net::FrameType expected) {
  net::Frame reply = net::call(conn, reader, request);
  if (reply.type != expected) {
    throw std::runtime_error(std::string("expected ") +
                             net::frame_type_name(expected) + ", got " +
                             net::frame_type_name(reply.type));
  }
  return std::move(reply.payload);
}

// Parses --scenario against --seed; an empty flag is the identity scenario.
replay::Scenario make_scenario(const Options& opts) {
  if (opts.scenario.empty()) return {};
  return replay::Scenario::parse(opts.scenario, opts.seed);
}

// The tail every engine-driving subcommand shares: per-node accounting,
// the engine totals, then the optional --sig-out drain.
int report_and_drain(core::StreamEngine& engine, const Options& opts) {
  for (const core::NodeStats& row : engine.node_stats()) {
    std::printf("  %-12s %6llu samples -> %5llu signatures, %llu retrains\n",
                row.name.c_str(), ull(row.samples), ull(row.signatures),
                ull(row.retrains));
  }
  print_totals("engine", engine.stats());

  if (!opts.sig_out.empty()) {
    std::ofstream out(opts.sig_out);
    if (!out) throw std::runtime_error("cannot open " + opts.sig_out);
    std::size_t written = 0;
    for (std::size_t b = 0; b < engine.n_nodes(); ++b) {
      const auto sigs = engine.drain(b);
      written += sigs.size();
      write_signature_lines(out, engine.node_name(b), sigs);
    }
    std::cout << "wrote " << written << " drained signatures to "
              << opts.sig_out << '\n';
  }
  return 0;
}

int cmd_stream(const Options& opts) {
  if (opts.positional.size() != 1) {
    usage(std::cerr);
    return 1;
  }
  const hpcoda::Segment seg =
      make_segment(opts.positional[0], opts.scale, opts.seed);

  core::StreamOptions stream_opts;
  stream_opts.window_length = opts.window_set ? opts.window : seg.window.length;
  stream_opts.window_step = opts.step_set ? opts.step : seg.window.step;
  stream_opts.history_length = opts.history;
  opts.retrain.apply(stream_opts);

  std::cout << "segment " << seg.name << ": " << seg.n_blocks()
            << " components, " << seg.length() << " samples @"
            << seg.interval_ms << " ms (wl=" << stream_opts.window_length
            << ", ws=" << stream_opts.window_step << ", history="
            << stream_opts.history_length << ")\n";

  // One stream per component — the per-node out-of-band training pass of
  // Fig. 1. --method swaps the whole fleet onto any registered method (all
  // nodes go through the registry, so dump/pack see one code path); --pack
  // skips training entirely and lazily deserialises each node from a model
  // pack.
  const core::MethodRegistry& registry = baselines::default_registry();
  const std::string spec = opts.method.empty() ? kStreamSpec : opts.method;
  // --record: the recorder is the engine's ingest tap, installed before the
  // first node, so the capture declares every node and holds exactly what
  // the engine saw (post-scenario), batch for batch.
  std::optional<replay::Recorder> recorder;
  if (!opts.record_file.empty()) recorder.emplace(opts.record_file);
  core::StreamEngine engine(stream_opts);
  if (recorder) engine.set_tap(recorder->tap());
  if (!opts.pack_file.empty()) {
    const core::ModelPack pack = core::ModelPack::open(opts.pack_file);
    for (const hpcoda::ComponentBlock& block : seg.blocks) {
      engine.add_node(pack, block.name, registry, block.sensors.rows());
    }
    std::cout << "models: " << pack.size() << "-model pack "
              << opts.pack_file << '\n';
  } else {
    for (const hpcoda::ComponentBlock& block : seg.blocks) {
      engine.add_node(block.name, registry.create(spec)->fit(block.sensors),
                      block.sensors.rows());
    }
  }
  if (!opts.dump_dir.empty()) {
    std::filesystem::create_directories(opts.dump_dir);
    for (std::size_t b = 0; b < engine.n_nodes(); ++b) {
      const std::string& name = engine.node_name(b);
      // Node names come from the generator or from a pack (whose ids are
      // validated on access); guard the join regardless.
      if (!core::is_safe_pack_id(name)) {
        std::cerr << "error: node name \"" << name
                  << "\" is not usable as a file name\n";
        return 2;
      }
      core::save_method(engine.stream(b).method(),
                        std::filesystem::path(opts.dump_dir) /
                            (name + kModelExtension));
    }
    std::cout << "dumped " << engine.n_nodes() << " node models to "
              << opts.dump_dir << '\n';
  }
  std::cout << "method: " << engine.stream(0).method().name() << '\n';

  // Replay the shared timeline in batches of --batch columns, the way a
  // monitoring bus delivers one flush per node per collection round, each
  // in the column-major layout csmd decodes into. The scenario mutates
  // each batch on this (single) thread before the engine fans the ingest
  // out.
  replay::Scenario scenario = make_scenario(opts);
  if (!scenario.empty()) {
    std::cout << "scenario: " << scenario.to_string() << " (seed "
              << opts.seed << ")\n";
  }
  const std::size_t batch = opts.batch == 0 ? seg.length() : opts.batch;
  std::vector<common::ColumnBatch> batches(seg.n_blocks());
  for (std::size_t start = 0; start < seg.length(); start += batch) {
    const std::size_t len = std::min(batch, seg.length() - start);
    for (std::size_t b = 0; b < seg.n_blocks(); ++b) {
      batches[b] =
          common::ColumnBatch(seg.blocks[b].sensors.sub_cols(start, len));
      scenario.apply(b, start, batches[b]);
    }
    engine.ingest_batch(
        std::vector<common::MatrixView>(batches.begin(), batches.end()));
  }
  if (recorder) {
    engine.set_tap({});
    recorder->finish();
    std::cout << "recorded " << recorder->batch_count() << " batches ("
              << recorder->n_nodes() << " nodes) to " << opts.record_file
              << '\n';
  }

  return report_and_drain(engine, opts);
}

int cmd_record(const Options& opts) {
  if (opts.positional.size() != 2) {
    usage(std::cerr);
    return 1;
  }
  const hpcoda::Segment seg =
      make_segment(opts.positional[0], opts.scale, opts.seed);
  replay::Scenario scenario = make_scenario(opts);
  replay::Recorder recorder(opts.positional[1]);
  for (const hpcoda::ComponentBlock& block : seg.blocks) {
    recorder.add_node(block.name,
                      static_cast<std::uint32_t>(block.sensors.rows()));
  }
  // Same batching as `stream`, minus the engine: each node gets the batches
  // `stream --record` captures for it with the same flags, in the same
  // order. Across nodes the files may differ: `stream` files each batch
  // when its node finishes (thread arrival order), this writes the nodes in
  // index order. A replay feeds every node its own batches, so both
  // captures replay to the same signatures.
  const std::size_t batch = opts.batch == 0 ? seg.length() : opts.batch;
  for (std::size_t start = 0; start < seg.length(); start += batch) {
    const std::size_t len = std::min(batch, seg.length() - start);
    for (std::size_t b = 0; b < seg.n_blocks(); ++b) {
      common::ColumnBatch columns(seg.blocks[b].sensors.sub_cols(start, len));
      scenario.apply(b, start, columns);
      recorder.record(static_cast<std::uint32_t>(b), columns);
    }
  }
  recorder.finish();
  std::cout << "recorded " << seg.n_blocks() << " nodes x " << seg.length()
            << " samples (" << recorder.batch_count() << " batches) to "
            << opts.positional[1] << '\n';
  return 0;
}

int cmd_replay(const Options& opts) {
  if (opts.positional.size() != 1) {
    usage(std::cerr);
    return 1;
  }
  replay::ReplayReader reader = replay::ReplayReader::open(opts.positional[0]);
  std::cout << "recording " << opts.positional[0] << ": " << reader.n_nodes()
            << " nodes, " << reader.batch_count() << " batches\n";

  core::StreamOptions stream_opts;
  stream_opts.window_length = opts.window;
  stream_opts.window_step = opts.step;
  stream_opts.history_length = opts.history;
  opts.retrain.apply(stream_opts);

  const core::MethodRegistry& registry = baselines::default_registry();
  core::StreamEngine engine(stream_opts);
  if (!opts.pack_file.empty()) {
    const core::ModelPack pack = core::ModelPack::open(opts.pack_file);
    for (std::size_t i = 0; i < reader.n_nodes(); ++i) {
      const replay::RecordedNode& node = reader.node(i);
      engine.add_node(pack, node.id, registry, node.n_sensors);
    }
    std::cout << "models: " << pack.size() << "-model pack "
              << opts.pack_file << '\n';
  } else {
    // In-band training on the recording itself: concatenate each node's
    // recorded batches back into its full sample matrix and fit the spec'd
    // method on it — the same bytes `stream` fitted on for a clean capture,
    // so the refit models (and the replayed signatures) match bit for bit.
    std::vector<std::uint64_t> total_cols(reader.n_nodes(), 0);
    while (const auto batch = reader.next()) {
      total_cols[batch->node] += batch->columns.cols();
    }
    std::vector<common::ColumnBatch> full(reader.n_nodes());
    std::vector<std::size_t> filled(reader.n_nodes(), 0);
    for (std::size_t i = 0; i < reader.n_nodes(); ++i) {
      full[i].resize(reader.node(i).n_sensors,
                     static_cast<std::size_t>(total_cols[i]));
    }
    reader.rewind();
    while (const auto batch = reader.next()) {
      const std::span<const double> values = batch->columns.values();
      std::copy(values.begin(), values.end(),
                full[batch->node].values().begin() +
                    static_cast<std::ptrdiff_t>(filled[batch->node]));
      filled[batch->node] += values.size();
    }
    // Parsed once, before any node: a bad spec fails an empty capture too.
    const auto prototype =
        registry.create(opts.method.empty() ? kStreamSpec : opts.method);
    for (std::size_t i = 0; i < reader.n_nodes(); ++i) {
      if (total_cols[i] == 0) {
        throw std::runtime_error("replay: node \"" + reader.node(i).id +
                                 "\" has no recorded samples to fit on "
                                 "(use --pack)");
      }
      engine.add_node(reader.node(i).id, prototype->fit(full[i]),
                      reader.node(i).n_sensors);
    }
    reader.rewind();
  }
  // An empty capture (csmd --record that no collector reached) replays to
  // no nodes and no signatures.
  if (engine.n_nodes() > 0) {
    std::cout << "method: " << engine.stream(0).method().name() << '\n';
  }

  // Re-drive the capture batch for batch, in file order. Recorded
  // timestamps are per-node sample offsets, which is exactly the stream
  // position a scenario keys its injections on.
  replay::Scenario scenario = make_scenario(opts);
  if (!scenario.empty()) {
    std::cout << "scenario: " << scenario.to_string() << " (seed "
              << opts.seed << ")\n";
  }
  while (auto batch = reader.next()) {
    scenario.apply(batch->node, batch->timestamp, batch->columns);
    engine.ingest(batch->node, batch->columns);
  }

  return report_and_drain(engine, opts);
}

int cmd_push(const Options& opts) {
  if (opts.positional.size() != 1 || opts.socket.empty()) {
    if (opts.socket.empty()) std::cerr << "push: --socket PATH required\n";
    usage(std::cerr);
    return 1;
  }
  const hpcoda::Segment seg =
      make_segment(opts.positional[0], opts.scale, opts.seed);
  const core::MethodRegistry& registry = baselines::default_registry();
  const std::string spec = opts.method.empty() ? kStreamSpec : opts.method;

  auto conn = net::connect_unix(opts.socket);
  net::FrameReader reader;

  // Per-node out-of-band training happens client-side (the same spec as
  // `stream`, so the models are bit-identical); the trained model ships
  // inline as a CSMB record in the node-add frame. A method bound to a
  // sensor count (CS, PCA) gets n_sensors 0, "take it from the model".
  for (const hpcoda::ComponentBlock& block : seg.blocks) {
    const auto method = registry.create(spec)->fit(block.sensors);
    net::NodeAdd add;
    add.source = net::NodeAddSource::kInlineRecord;
    add.n_sensors = method->n_sensors() != 0
                        ? 0
                        : static_cast<std::uint32_t>(block.sensors.rows());
    add.record = core::codec::encode_binary(*method);
    net::Frame request;
    request.type = net::FrameType::kNodeAdd;
    request.node = block.name;
    request.payload = net::encode_node_add(add);
    net::call(*conn, reader, request);
  }
  std::cout << "registered " << seg.n_blocks() << " nodes with "
            << conn->peer_name() << " (spec " << spec << ")\n";

  // Replay the shared timeline in --batch column chunks, one sample-batch
  // frame per node per chunk. Pushes are one-way; the drain below is the
  // sync point.
  const std::size_t batch = opts.batch == 0 ? seg.length() : opts.batch;
  for (std::size_t start = 0; start < seg.length(); start += batch) {
    const std::size_t len = std::min(batch, seg.length() - start);
    for (const hpcoda::ComponentBlock& block : seg.blocks) {
      net::Frame frame;
      frame.type = net::FrameType::kSampleBatch;
      frame.node = block.name;
      frame.payload =
          net::encode_sample_batch(block.sensors.sub_cols(start, len));
      net::write_frame(*conn, frame);
    }
  }

  std::ofstream sig_out;
  if (!opts.sig_out.empty()) {
    sig_out.open(opts.sig_out);
    if (!sig_out) throw std::runtime_error("cannot open " + opts.sig_out);
  }
  std::uint64_t total_signatures = 0;
  for (const hpcoda::ComponentBlock& block : seg.blocks) {
    const net::DrainResponse drained = net::decode_drain_response(
        ask(*conn, reader, {net::FrameType::kDrainRequest, block.name, {}},
            net::FrameType::kDrainResponse));
    total_signatures += drained.signatures.size();
    std::printf("  %-12s %5zu signatures drained, %llu dropped\n",
                block.name.c_str(), drained.signatures.size(),
                ull(drained.dropped));
    if (sig_out.is_open()) {
      write_signature_lines(sig_out, block.name, drained.signatures);
    }
  }
  if (sig_out.is_open()) {
    std::cout << "wrote " << total_signatures << " drained signatures to "
              << opts.sig_out << '\n';
  }

  const net::StatsResponse stats = net::decode_stats_response(
      ask(*conn, reader, {net::FrameType::kStatsRequest, "", {}},
          net::FrameType::kStatsResponse));
  print_totals("daemon", stats);
  std::cout << "server build: " << stats.server_version << " (client "
            << benchkit::git_sha() << ")\n";
  return 0;
}

int cmd_fleet_stats(const Options& opts) {
  if (!opts.positional.empty() || opts.socket.empty()) {
    if (opts.socket.empty()) {
      std::cerr << "fleet-stats: --socket PATH required\n";
    }
    usage(std::cerr);
    return 1;
  }
  auto conn = net::connect_unix(opts.socket);
  net::FrameReader reader;
  const net::StatsResponse stats = net::decode_stats_response(
      ask(*conn, reader, {net::FrameType::kStatsRequest, "", {}},
          net::FrameType::kStatsResponse));
  std::cout << "fleet stats from unix:" << opts.socket << ":\n";
  print_totals("daemon", stats);
  std::cout << "server build: " << stats.server_version << " (client "
            << benchkit::git_sha() << ")\n";

  const net::NodeStatsResponse node_stats = net::decode_node_stats_response(
      ask(*conn, reader, {net::FrameType::kNodeStatsRequest, "", {}},
          net::FrameType::kNodeStatsResponse));
  std::cout << "per-node (" << node_stats.nodes.size() << " live):\n";
  for (const core::NodeStats& row : node_stats.nodes) print_node_row(row);
  return 0;
}

int cmd_version(const Options& opts) {
  if (!opts.positional.empty()) {
    usage(std::cerr);
    return 1;
  }
  std::cout << "csmcli " << benchkit::git_sha() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --help anywhere wins: print usage to stdout and succeed.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(std::cout);
      return 0;
    }
  }
  if (argc < 2) {
    usage(std::cerr);
    return 1;
  }
  Options opts;
  try {
    if (!parse_args(argc, argv, opts)) {
      usage(std::cerr);
      return 1;
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "methods") return cmd_methods(opts);
    if (command == "train") return cmd_train(opts);
    if (command == "info") return cmd_info(opts);
    if (command == "pack") return cmd_pack(opts);
    if (command == "unpack") return cmd_unpack(opts);
    if (command == "extract") return cmd_extract(opts);
    if (command == "sort") return cmd_sort(opts);
    if (command == "stream") return cmd_stream(opts);
    if (command == "record") return cmd_record(opts);
    if (command == "replay") return cmd_replay(opts);
    if (command == "push") return cmd_push(opts);
    if (command == "fleet-stats") return cmd_fleet_stats(opts);
    if (command == "version") return cmd_version(opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  std::cerr << "unknown command: " << command << '\n';
  usage(std::cerr);
  return 1;
}
