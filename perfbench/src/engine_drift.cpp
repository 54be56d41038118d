// engine-drift: the `csmcli stream` path under drift-triggered retraining.
//
// 16 nodes x 52 sensors of the application segment run through
// StreamEngine::ingest_batch in 50-column batches with a drain after each,
// on the OpenMP team of kOmpThreads. RetrainPolicy::kOnDrift (threshold 2.0,
// patience 3) scores every emitted window and refits a node inline when the
// drift persists, which it does at the segment's workload-phase changes.
//
// The run is a sequence of episodes, each what one `csmcli stream` run over
// a segment does: fit CS-20 on every node's first history_length columns
// and stand a fresh engine up (setup_s), then stream one full pass of every
// node over its block, first-pass refits included (samples_per_cpu_s).
// Episodes, not one long-lived engine, because after a node's first pass
// its refits depend on the seed: on most seeds they stop, since the
// reference rebuilt from the triggering window straddles the phase change,
// but on some (4 of 40 tried) nodes refit at the same columns of every
// pass. A long-lived engine's throughput therefore split the seeds into two
// groups about 25% apart. A first pass refits 40-85 times over the fleet,
// depending on the segment, and the throughput falls by about a quarter
// across that range, so the episodes cycle through kSegments segments drawn
// from the seed. Every episode of a segment computes the same signatures,
// and each is checked against that segment's standalone reference. There
// is no net layer.
//
// op_p50_ms is the operator scrape without the wire: StreamEngine::stats()
// and node_stats(), what FleetServer runs for kStatsRequest and
// kNodeStatsRequest, timed on the live engine after every measured round
// (per scrape, over kScrapeRepeats back-to-back scrapes).
#include <omp.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "bench.hpp"
#include "core/method_stream.hpp"
#include "core/stream_engine.hpp"
#include "decorators.hpp"
#include "stats/drift.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 16;  // One per application-segment block.
constexpr std::size_t kBatchCols = 50;
/// Application segments per run, each 16 blocks x 52 sensors x 3360
/// columns (about 22 MiB of generator input).
constexpr std::size_t kSegments = 4;
/// Back-to-back scrapes per op_p50_ms sample. One scrape takes about 10-30
/// microseconds; timed alone after a round, on a cache the round just
/// filled, it varied by half between runs on a shared 4-vCPU host (with the
/// OpenMP runtime's default, spinning wait policy).
constexpr std::size_t kScrapeRepeats = 16;

core::StreamOptions stream_options() {
  core::StreamOptions o;
  o.window_length = 30;  // Table I, application segment.
  o.window_step = 5;
  o.history_length = 1024;
  o.retrain_policy = core::RetrainPolicy::kOnDrift;
  o.drift_threshold = 2.0;
  o.drift_patience = 3;
  return o;
}

/// CS-20 fitted on the first history_length columns of the node's block.
std::unique_ptr<core::SignatureMethod> initial_fit(
    const CyclingInputs& in, std::size_t node,
    const core::SignatureMethod& prototype) {
  return prototype.fit(
      in.block(node).sub_cols(0, stream_options().history_length));
}

/// Fits every node and stands the engine up (what setup_s times).
std::unique_ptr<core::StreamEngine> stand_up(const CyclingInputs& in,
                                             bool traced) {
  const Span s("core.engine.setup");
  const auto& registry = csm::baselines::default_registry();
  std::shared_ptr<const core::SignatureMethod> prototype =
      registry.create("cs:blocks=20");
  if (traced) {
    prototype = std::make_shared<TracedMethod>(prototype, Stat::kCsCompute);
  }
  auto engine = std::make_unique<core::StreamEngine>(stream_options());
  for (std::size_t i = 0; i < kNodes; ++i) {
    engine->add_node("node" + std::to_string(i),
                     initial_fit(in, i, *prototype));
  }
  return engine;
}

/// One pass of every node: the hash of its signatures' bytes and its refit
/// count, from an episode's engine or from the standalone reference.
struct PassResult {
  std::vector<std::uint64_t> hash =
      std::vector<std::uint64_t>(kNodes, kHashSeed);
  std::vector<std::size_t> refits = std::vector<std::size_t>(kNodes, 0);
};

/// The output check's reference: each node's pass through a standalone
/// core::MethodStream, fed its columns in chunks that ignore the batching.
PassResult reference_pass(const CyclingInputs& in) {
  const auto& registry = csm::baselines::default_registry();
  PassResult r;
  for (std::size_t node = 0; node < kNodes; ++node) {
    core::MethodStream stream(
        initial_fit(in, node, *registry.create("cs:blocks=20")),
        stream_options());
    in.replay(node, in.cycle, [&](const common::Matrix& chunk) {
      for (const std::vector<double>& sig : stream.push_all(chunk)) {
        r.hash[node] = hash_doubles(r.hash[node], sig);
      }
    });
    r.refits[node] = stream.retrain_count();
  }
  return r;
}

/// EngineStats summed over the engines of a phase's episodes (each starts
/// from zero).
struct EngineTotals {
  double ingest_s = 0.0;
  std::uint64_t ingest_calls = 0;
  std::uint64_t samples = 0;
  std::uint64_t signatures = 0;
  std::uint64_t retrains = 0;
  std::uint64_t drift_windows = 0;
  std::uint64_t drift_flags = 0;
  std::uint64_t dropped = 0;

  void add(const core::EngineStats& s) {
    ingest_s += s.ingest_seconds;
    ingest_calls += s.ingest_latency_us.total();
    samples += s.samples;
    signatures += s.signatures;
    retrains += s.retrains;
    drift_windows += s.drift_windows;
    drift_flags += s.drift_flags;
    dropped += s.dropped;
  }
};

struct Phase : LoopPhase {
  std::vector<double> scrape_ms;
  std::vector<double> setup_s;  ///< One stand-up per episode.
  double setup_fit_s = 0.0;     ///< Traced: fit time inside the stand-ups.
  EngineTotals engine;
  std::size_t episodes = 0;
};

/// Runs episodes: stand a fresh engine up (timed), then a closed loop of
/// one full pass, each round sliced (untimed), ingested and drained (timed)
/// and hashed for the check (untimed), then the episode's check.
class Episodes {
 public:
  Episodes(const std::vector<CyclingInputs>& inputs,
           const std::vector<PassResult>& references, bool traced,
           Outcome& out)
      : inputs_(inputs), references_(references), traced_(traced), out_(out),
        batches_(kNodes) {}

  /// Runs one episode per segment, over and over, until `seconds` have
  /// passed (at least once); with a phase they are measured into it.
  void run(double seconds, Phase* phase) {
    run_rounds(seconds, 1, [&] {
      for (std::size_t k = 0; k < inputs_.size(); ++k) {
        episode(inputs_[k], references_[k], phase);
      }
    });
  }

 private:
  void episode(const CyclingInputs& in, const PassResult& reference,
               Phase* phase) {
    const double fit_before = traced_ ? totals().s(Stat::kFit) : 0.0;
    const double start = now();
    std::unique_ptr<core::StreamEngine> engine = stand_up(in, traced_);
    const double setup = now() - start;
    const double setup_fit =
        traced_ ? totals().s(Stat::kFit) - fit_before : 0.0;
    PassResult got;
    std::uint64_t signatures = 0;
    for (std::size_t r = 0; r < in.cycle / kBatchCols; ++r) {
      round(in, *engine, r, got, signatures, phase);
    }
    {
      const Span s("bench.check");
      check(in, reference, *engine, got, signatures);
    }
    if (phase != nullptr) {
      phase->setup_s.push_back(setup);
      phase->setup_fit_s += setup_fit;
      phase->engine.add(engine->stats());
      ++phase->episodes;
    }
    const Span s("core.engine.teardown");
    engine.reset();
  }

  void round(const CyclingInputs& in, core::StreamEngine& engine,
             std::size_t round, PassResult& got, std::uint64_t& signatures,
             Phase* phase) {
    const auto id = static_cast<std::uint32_t>(round);
    {
      const Span s("bench.slice", id);
      for (std::size_t i = 0; i < kNodes; ++i) {
        batches_[i] = in.block(i).sub_cols(in.column(i, round), kBatchCols);
      }
    }
    std::vector<std::vector<std::vector<double>>> drained(kNodes);
    const double cpu = process_cpu();
    const double start = now();
    {
      const Span s("bench.round", id);
      {
        const Span ingest("core.engine.ingest_batch", id);
        engine.ingest_batch(batches_);
      }
      for (std::size_t i = 0; i < kNodes; ++i) {
        const Span drain("core.engine.drain", id);
        drained[i] = engine.drain(i);
      }
    }
    const double seconds = now() - start;
    const double round_cpu = process_cpu() - cpu;
    out_.attempted += 1 + kNodes;
    {
      const Span s("bench.check", id);
      for (std::size_t i = 0; i < kNodes; ++i) {
        for (const std::vector<double>& sig : drained[i]) {
          got.hash[i] = hash_doubles(got.hash[i], sig);
        }
        signatures += drained[i].size();
      }
    }
    if (phase == nullptr) return;
    phase->add_round(static_cast<double>(kNodes * kBatchCols), seconds,
                     round_cpu);
    const Span scrape("core.engine.scrape", id);
    core::EngineStats stats;
    std::vector<core::NodeStats> nodes;
    const double t = now();
    for (std::size_t k = 0; k < kScrapeRepeats; ++k) {
      stats = engine.stats();
      nodes = engine.node_stats();
    }
    phase->scrape_ms.push_back(1e3 * (now() - t) / kScrapeRepeats);
    out_.attempted += kScrapeRepeats;
    if (stats.nodes != kNodes || nodes.size() != kNodes) {
      out_.fail("engine scrape reports " + std::to_string(nodes.size()) +
                " nodes");
    }
  }

  /// Every node's signatures and refit count against the standalone
  /// reference, and the engine's totals against what was pushed and
  /// drained.
  void check(const CyclingInputs& in, const PassResult& reference,
             const core::StreamEngine& engine, const PassResult& got,
             std::uint64_t signatures) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      ++out_.attempted;
      const std::string name = "node " + std::to_string(i);
      if (got.hash[i] != reference.hash[i]) {
        out_.fail(name + " signatures differ from a standalone MethodStream");
      }
      const std::size_t refits = engine.stream(i).retrain_count();
      if (refits != reference.refits[i]) {
        out_.fail(name + " refit " + std::to_string(refits) +
                  " times, the standalone MethodStream " +
                  std::to_string(reference.refits[i]));
      }
    }
    const core::EngineStats stats = engine.stats();
    ++out_.attempted;
    if (stats.samples != in.cycle * kNodes ||
        stats.signatures != signatures || stats.dropped != 0) {
      out_.fail("engine totals differ from what was pushed and drained");
    }
  }

  const std::vector<CyclingInputs>& inputs_;
  const std::vector<PassResult>& references_;
  bool traced_;
  Outcome& out_;
  std::vector<common::Matrix> batches_;
};

/// Isolation pass: stats::drift_score over windows of node 0's stream
/// (the shape and data the run scored), per call.
double drift_score_per_call(const CyclingInputs& in) {
  const core::StreamOptions o = stream_options();
  const common::Matrix& block = in.block(0);
  const csm::stats::DriftReference ref = csm::stats::make_drift_reference(
      block.sub_cols(in.offset[0], o.window_length), o.drift_pairs);
  std::vector<common::Matrix> windows;
  for (std::size_t c = 0;
       c + o.window_length <= in.cycle && windows.size() < 512;
       c += o.window_step) {
    windows.push_back(block.sub_cols(c, o.window_length));
  }
  double sink = 0.0;
  const double per_pass = seconds_per_call(
      [&] {
        for (const common::Matrix& w : windows) {
          sink += csm::stats::drift_score(w, ref);
        }
      },
      0.2, 3);
  if (sink < 0.0) std::printf("negative drift score\n");
  return per_pass / static_cast<double>(windows.size());
}

void report_traced(const CyclingInputs& in, const Phase& phase,
                   const Snapshot& a, const Snapshot& b, double overhead_pct,
                   Outcome& out) {
  const Totals d = b.totals.since(a.totals);
  const double threads = static_cast<double>(omp_get_max_threads());
  const double wall = b.t - a.t;
  const auto span = [&](const char* name) {
    const auto at = [&](const Snapshot& s) {
      const auto it = s.spans.find(name);
      return it == s.spans.end() ? 0.0 : it->second;
    };
    return at(b) - at(a);
  };
  const EngineTotals& e = phase.engine;
  const double ingest_batch = span("core.engine.ingest_batch");
  const double drain = span("core.engine.drain");
  const double emit = d.s(Stat::kComputeStreaming);
  const double refit = d.s(Stat::kFit) - phase.setup_fit_s;
  const double stream_self = e.ingest_s - emit - refit;
  const double score =
      drift_score_per_call(in) * static_cast<double>(e.drift_windows);

  print_layer_table(
      "engine-drift per-layer wall time, benchmark thread, traced phase "
      "(thread-seconds inside ingest_batch divided by the team size)",
      wall,
      {{"core.engine.setup (CS-20 fits, engine stand-up)",
        span("core.engine.setup")},
       {"core.engine.teardown", span("core.engine.teardown")},
       {"core.method.compute_streaming", emit / threads},
       {"core.method.fit (drift-triggered refits)", refit / threads},
       {"core.stream.self (ring push, drift score, enqueue)",
        stream_self / threads},
       {"core.engine.ingest_batch: team idle / fork-join",
        ingest_batch - e.ingest_s / threads},
       {"core.engine.drain", drain},
       {"bench.round.self", span("bench.round") - ingest_batch - drain},
       {"core.engine.scrape (stats + node_stats)",
        span("core.engine.scrape")},
       {"bench.slice (load generator)", span("bench.slice")},
       {"bench.check (hashing and the output check)", span("bench.check")},
       {"core.engine.setup: core.method.fit", phase.setup_fit_s, false},
       {"core.stream.self: stats.drift.score (isolation)", score / threads,
        false}});
  std::printf("\n%zu episodes: %llu refits, %llu drift flags of %llu windows\n",
              phase.episodes, static_cast<unsigned long long>(e.retrains),
              static_cast<unsigned long long>(e.drift_flags),
              static_cast<unsigned long long>(e.drift_windows));
  phase.print_latency();

  out.detail("core.engine.ingest_s", e.ingest_s, "s");
  out.count("core.engine.ingest_calls", e.ingest_calls);
  out.detail("core.engine.ingest_batch_s", ingest_batch, "s");
  out.detail("core.engine.drain_s", drain, "s");
  out.detail("core.engine.parallel_efficiency",
             e.ingest_s / (ingest_batch * threads), "ratio");
  out.detail("core.engine.setup_s", span("core.engine.setup"), "s");
  out.detail("core.stream.self_s", stream_self, "s");
  out.detail("stats.drift.score_s", score, "s");
  out.count("core.engine.samples", e.samples);
  out.count("core.engine.signatures", e.signatures);
  out.count("core.engine.retrains", e.retrains);
  out.count("core.engine.drift_windows", e.drift_windows);
  out.count("core.engine.drift_flags", e.drift_flags);
  out.count("core.engine.dropped", e.dropped);
  out.detail("core.engine.scrape_s", span("core.engine.scrape"), "s");
  // Fits in the traced phase: every episode's 16 set-up fits and its
  // drift-triggered refits.
  report(out, PerLayer{d.s(Stat::kFit), d.n(Stat::kFit), emit,
                       d.n(Stat::kComputeStreaming),
                       b.process_cpu - a.process_cpu, wall, overhead_pct});
}

Snapshot bare_snapshot() {
  return {now(), totals(), {}, process_cpu(), span_total_seconds()};
}

}  // namespace

Outcome run_engine_drift(const Args& args) {
  Outcome out;
  std::vector<CyclingInputs> inputs;
  for (std::size_t k = 0; k < kSegments; ++k) {
    inputs.emplace_back(args.seed * kSegments + k, 0xd21f7, kNodes,
                        kBatchCols);
  }
  const double rss_inputs = rss_mib();
  std::vector<PassResult> references;
  std::printf("engine-drift: %zu segments; rounds per pass, and the standalone "
              "reference's refits in it:",
              kSegments);
  for (const CyclingInputs& in : inputs) {
    references.push_back(reference_pass(in));
    std::size_t refits = 0;
    for (const std::size_t r : references.back().refits) refits += r;
    std::printf(" %zu/%zu", in.cycle / kBatchCols, refits);
  }
  std::printf("\n");

  if (!args.trace) {
    Episodes episodes(inputs, references, false, out);
    episodes.run(kWarmupSeconds, nullptr);
    Phase phase;
    episodes.run(args.seconds, &phase);
    const double hwm = hwm_mib();
    std::printf("engine-drift: %zu episodes, %llu refits, drift flags %llu of "
                "%llu windows\n",
                phase.episodes,
                static_cast<unsigned long long>(phase.engine.retrains),
                static_cast<unsigned long long>(phase.engine.drift_flags),
                static_cast<unsigned long long>(phase.engine.drift_windows));
    print_windows("engine-drift", phase.rate);
    std::printf("engine-drift: wall samples/s %.1f (reported, not gated); the "
                "process used %.2f cores in the rounds\n",
                phase.rate.median_rate(), phase.cpu_s / phase.wall_s);
    std::printf("engine-drift: setup_s is the median of %zu stand-ups\n",
                phase.setup_s.size());
    report(out, "engine-drift",
           {phase.samples, phase.cpu_s, phase.scrape_ms, "in-process scrapes",
            median(phase.setup_s), hwm - rss_inputs});
    return out;
  }

  // Traced run: the first half untraced (the overhead baseline), the second
  // half with the method decorator on every fitted and refitted model.
  const double half = args.seconds / 2.0;
  double untraced_rate = 0.0;
  {
    Episodes episodes(inputs, references, false, out);
    episodes.run(kWarmupSeconds, nullptr);
    Phase phase;
    episodes.run(half, &phase);
    untraced_rate = phase.samples_per_cpu_s();
  }
  set_tracing(true);
  Episodes episodes(inputs, references, true, out);
  episodes.run(kWarmupSeconds, nullptr);
  Phase phase;
  const Snapshot a = bare_snapshot();
  episodes.run(half, &phase);
  const Snapshot b = bare_snapshot();
  set_tracing(false);
  report_traced(inputs[0], phase, a, b,
                100.0 * (untraced_rate / phase.samples_per_cpu_s() - 1.0), out);
  std::printf("spans: %zu written to perfbench-trace-engine-drift.jsonl\n",
              write_spans("perfbench-trace-engine-drift.jsonl"));
  return out;
}

}  // namespace perfbench
