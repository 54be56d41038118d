#include "core/stream_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/tuncer.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"

namespace csm::core {
namespace {

common::Matrix node_matrix(std::size_t n, std::size_t t, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.07 * static_cast<double>(c) +
                         0.4 * static_cast<double>(r)) +
                0.05 * rng.gaussian();
    }
  }
  return s;
}

StreamOptions engine_options() {
  StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 10;
  return opts;
}

// CS-4 emitting both channels, fitted on `s`.
std::shared_ptr<const SignatureMethod> fit_cs(const common::Matrix& s) {
  return CsSignatureMethod(CsOptions{4, false}).fit(s);
}

TEST(StreamEngine, MatchesPerNodeMethodStreams) {
  const std::size_t n_nodes = 4;
  StreamEngine engine(engine_options());
  std::vector<common::Matrix> batches;
  std::vector<std::shared_ptr<const SignatureMethod>> methods;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    batches.push_back(node_matrix(6, 90, 100 + i));
    methods.push_back(fit_cs(batches.back()));
    std::string name = "node";  // GCC 12 -Wrestrict trips on operator+.
    name += std::to_string(i);
    engine.add_node(std::move(name), methods.back());
  }
  engine.ingest_batch(batches);

  for (std::size_t i = 0; i < n_nodes; ++i) {
    MethodStream reference(methods[i], engine_options());
    const auto expected = reference.push_all(batches[i]);
    const auto got = engine.drain(i);
    ASSERT_EQ(got.size(), expected.size()) << "node " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k], expected[k]) << "node " << i << " signature " << k;
    }
  }
}

// Two-factor stream whose levels, loadings and factor gain switch at
// `shift_at`: a regime change a kOnDrift stream at threshold 0.8 refits on.
common::Matrix drifting_matrix(std::size_t n, std::size_t t,
                               std::size_t shift_at, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t c = 0; c < t; ++c) {
    const double z1 = rng.gaussian();
    const double z2 = rng.gaussian();
    const bool shifted = c >= shift_at;
    for (std::size_t r = 0; r < n; ++r) {
      const double x = static_cast<double>(r);
      const double a = shifted ? std::cos(0.4 * x + 1.3) : std::cos(0.4 * x);
      const double b = shifted ? std::sin(2.99 * x) : std::sin(0.4 * x);
      const double gain = shifted ? 1.6 : 1.0;
      const double level = 0.5 * x + (shifted ? 2.0 : 0.0);
      s(r, c) = level + gain * (a * z1 + b * z2) + 0.2 * rng.gaussian();
    }
  }
  return s;
}

TEST(StreamEngine, DriftScoresAgreeAcrossPushPushAllAndIngestBatch) {
  // The drift tracker summarises fixed chunks of gcd(wl, ws) columns, so
  // how the columns are batched must not matter: one at a time, push_all
  // batches that split chunks, and the engine's parallel ingest_batch all
  // report the same score bits after every batch.
  const std::size_t n = 6;
  const std::size_t t = 600;
  const common::Matrix data = drifting_matrix(n, t, 300, 61);
  const auto method = fit_cs(data.sub_cols(0, 200));
  for (const std::size_t ws : {5u, 10u}) {
    StreamOptions opts = engine_options();  // wl = 20.
    opts.window_step = ws;
    opts.history_length = 256;
    opts.retrain_policy = RetrainPolicy::kOnDrift;
    opts.drift_threshold = 0.8;
    opts.drift_patience = 2;
    for (const std::size_t batch : {1u, 3u, 7u, 50u}) {
      SCOPED_TRACE("ws=" + std::to_string(ws) +
                   " batch=" + std::to_string(batch));
      MethodStream one(method, opts);
      MethodStream batched(method, opts);
      StreamEngine engine(opts);
      engine.add_node("a", method);
      engine.add_node("b", method);
      std::vector<std::vector<double>> sig_one;
      std::vector<std::vector<double>> sig_batched;
      std::vector<double> column(n);
      for (std::size_t at = 0; at < t; at += batch) {
        const common::Matrix cols = data.sub_cols(at, std::min(batch, t - at));
        for (std::size_t c = 0; c < cols.cols(); ++c) {
          for (std::size_t r = 0; r < n; ++r) column[r] = cols(r, c);
          if (auto sig = one.push(column)) sig_one.push_back(std::move(*sig));
        }
        for (auto& sig : batched.push_all(cols)) {
          sig_batched.push_back(std::move(sig));
        }
        const std::vector<common::Matrix> both{cols, cols};
        engine.ingest_batch(both);
        ASSERT_EQ(batched.last_drift_score(), one.last_drift_score())
            << "after column " << at + cols.cols();
        ASSERT_EQ(engine.stream(0).last_drift_score(), one.last_drift_score());
        ASSERT_EQ(engine.stream(1).last_drift_score(), one.last_drift_score());
      }
      EXPECT_GE(one.counters().drift_retrains, 1u);
      const MethodStream* const others[] = {&batched, &engine.stream(0),
                                            &engine.stream(1)};
      for (const MethodStream* s : others) {
        EXPECT_EQ(s->counters().drift_windows, one.counters().drift_windows);
        EXPECT_EQ(s->counters().drift_flags, one.counters().drift_flags);
        EXPECT_EQ(s->counters().drift_retrains,
                  one.counters().drift_retrains);
        EXPECT_EQ(s->counters().retrains, one.counters().retrains);
        EXPECT_EQ(s->counters().signatures, one.counters().signatures);
      }
      EXPECT_EQ(sig_batched, sig_one);
      EXPECT_EQ(engine.drain(0), sig_one);
      EXPECT_EQ(engine.drain(1), sig_one);
    }
  }
}

TEST(StreamEngine, QueuesAccumulateAcrossBatchesAndDrainEmpties) {
  StreamEngine engine(engine_options());
  const common::Matrix s = node_matrix(5, 120, 7);
  const auto method = fit_cs(s);
  engine.add_node("n0", method);

  engine.ingest(0, s.sub_cols(0, 60));   // Windows at 20, 30, ..., 60 -> 5.
  EXPECT_EQ(engine.pending(0), 5u);
  engine.ingest(0, s.sub_cols(60, 60));  // Six more (70, ..., 120).
  EXPECT_EQ(engine.pending(0), 11u);

  const auto sigs = engine.drain(0);
  EXPECT_EQ(sigs.size(), 11u);
  EXPECT_EQ(engine.pending(0), 0u);

  // Equivalent to one uninterrupted stream over the same columns.
  MethodStream reference(method, engine_options());
  EXPECT_EQ(sigs, reference.push_all(s));
}

TEST(StreamEngine, AggregateStats) {
  StreamEngine engine(engine_options());
  std::vector<common::Matrix> batches;
  for (std::size_t i = 0; i < 3; ++i) {
    batches.push_back(node_matrix(4, 50, 200 + i));
    std::string name = "n";
    name += std::to_string(i);
    engine.add_node(std::move(name), fit_cs(batches.back()));
  }
  engine.ingest_batch(batches);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.samples, 150u);
  // Each node: windows at 20, 30, 40, 50 -> 4 signatures.
  EXPECT_EQ(stats.signatures, 12u);
  EXPECT_EQ(stats.retrains, 0u);
  EXPECT_GT(stats.ingest_seconds, 0.0);
  EXPECT_GT(stats.samples_per_second(), 0.0);
}

TEST(StreamEngine, HeterogeneousNodesAndBatchLengths) {
  // Nodes may have different sensor counts and per-batch column counts.
  StreamEngine engine(engine_options());
  std::vector<common::Matrix> batches;
  batches.push_back(node_matrix(4, 40, 1));
  batches.push_back(node_matrix(9, 65, 2));
  for (const auto& b : batches) engine.add_node("n", fit_cs(b));
  engine.ingest_batch(batches);
  EXPECT_EQ(engine.stream(0).counters().samples, 40u);
  EXPECT_EQ(engine.stream(1).counters().samples, 65u);
  EXPECT_EQ(engine.pending(0), 3u);  // 20, 30, 40.
  EXPECT_EQ(engine.pending(1), 5u);  // 20, ..., 60.
}

TEST(StreamEngine, MixedMethodFleet) {
  // One engine can fan out different signature methods per node: a CS node
  // next to a stateless Tuncer node (which needs an explicit sensor count).
  StreamEngine engine(engine_options());
  const common::Matrix cs_data = node_matrix(4, 60, 11);
  const common::Matrix tn_data = node_matrix(3, 60, 12);
  engine.add_node("cs-node", fit_cs(cs_data));
  engine.add_node("tuncer-node",
                  std::make_shared<const baselines::TuncerMethod>(),
                  tn_data.rows());
  std::vector<common::Matrix> batches{cs_data, tn_data};
  engine.ingest_batch(batches);
  EXPECT_EQ(engine.pending(0), 5u);
  EXPECT_EQ(engine.pending(1), 5u);
  const auto tuncer_sigs = engine.drain(1);
  // Offline reference: Tuncer over the same sliding windows.
  const baselines::TuncerMethod reference;
  ASSERT_EQ(tuncer_sigs.size(), 5u);
  for (std::size_t w = 0; w < tuncer_sigs.size(); ++w) {
    EXPECT_EQ(tuncer_sigs[w], reference.compute(tn_data.sub_cols(w * 10, 20)))
        << "window " << w;
  }
}

TEST(StreamEngine, IngestBatchValidation) {
  StreamEngine engine(engine_options());
  engine.add_node("n0", fit_cs(node_matrix(4, 40, 3)));
  std::vector<common::Matrix> wrong_count;
  EXPECT_THROW(engine.ingest_batch(wrong_count), std::invalid_argument);
  std::vector<common::Matrix> wrong_rows{node_matrix(5, 30, 4)};
  EXPECT_THROW(engine.ingest_batch(wrong_rows), std::invalid_argument);
  // Failed validation must not have ingested anything.
  EXPECT_EQ(engine.stream(0).counters().samples, 0u);
}

TEST(StreamEngine, NodeIndexOutOfRangeThrows) {
  StreamEngine engine(engine_options());
  EXPECT_THROW(engine.drain(0), std::out_of_range);
  EXPECT_THROW((void)engine.pending(0), std::out_of_range);
  EXPECT_THROW((void)engine.node_name(0), std::out_of_range);
}

TEST(StreamEngine, RetrainsPropagateToStats) {
  StreamOptions opts = engine_options();
  opts.retrain_interval = 50;
  opts.history_length = 64;
  StreamEngine engine(opts);
  const common::Matrix s = node_matrix(4, 200, 9);
  engine.add_node("n0", fit_cs(s.sub_cols(0, 30)));
  engine.ingest(0, s);
  EXPECT_EQ(engine.stats().retrains, 4u);  // At samples 50/100/150/200.
}

TEST(StreamEngine, RemoveNodeTombstonesTheSlot) {
  StreamEngine engine(engine_options());
  const common::Matrix a = node_matrix(4, 60, 21);
  const common::Matrix b = node_matrix(4, 60, 22);
  engine.add_node("a", fit_cs(a));
  engine.add_node("b", fit_cs(b));
  engine.ingest(0, a);
  engine.ingest(1, b);

  const auto leftovers = engine.remove_node(0);
  EXPECT_FALSE(leftovers.empty());  // The undrained queue comes back.
  EXPECT_FALSE(engine.alive(0));
  EXPECT_TRUE(engine.alive(1));
  EXPECT_EQ(engine.n_nodes(), 2u);  // Indices stay stable: no shift.
  EXPECT_EQ(engine.node_name(0), "a");  // The name outlives the stream.

  // The tombstone rejects further traffic by name...
  EXPECT_THROW(engine.ingest(0, a), std::invalid_argument);
  EXPECT_THROW(engine.drain(0), std::invalid_argument);
  EXPECT_THROW((void)engine.pending(0), std::invalid_argument);
  EXPECT_THROW(engine.remove_node(0), std::invalid_argument);
  // ...while the survivor is untouched.
  EXPECT_EQ(engine.drain(1).size(), 5u);

  // A new node reuses no index: slots are append-only.
  EXPECT_EQ(engine.add_node("c", fit_cs(a)), 2u);
}

TEST(StreamEngine, RemovedNodeCountersStayInStats) {
  StreamEngine engine(engine_options());
  const common::Matrix s = node_matrix(4, 60, 23);
  engine.add_node("gone", fit_cs(s));
  engine.ingest(0, s);
  const EngineStats before = engine.stats();
  EXPECT_EQ(before.nodes, 1u);

  engine.remove_node(0);
  const EngineStats after = engine.stats();
  // Counters are cumulative over the engine's lifetime; only the live
  // node count drops.
  EXPECT_EQ(after.samples, before.samples);
  EXPECT_EQ(after.signatures, before.signatures);
  EXPECT_EQ(after.ingest_latency_us.total(),
            before.ingest_latency_us.total());
  EXPECT_EQ(after.nodes, 0u);
  // The per-node drop counter stays queryable on the tombstone.
  EXPECT_EQ(engine.dropped(0), 0u);
}

// node_matrix() whose second half jumps to a new level and gain: a regime
// change kOnDrift flags and refits on.
common::Matrix drifting_matrix(std::size_t n, std::size_t t,
                               std::uint64_t seed) {
  common::Matrix s = node_matrix(n, t, seed);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = t / 2; c < t; ++c) s(r, c) = 3.0 * s(r, c) + 4.0;
  }
  return s;
}

TEST(StreamEngine, StatsEqualRemovedTotalsPlusLiveRows) {
  StreamOptions opts = engine_options();
  opts.history_length = 64;
  opts.retrain_policy = RetrainPolicy::kOnDrift;
  opts.drift_threshold = 0.8;
  opts.drift_patience = 2;
  opts.max_pending = 4;  // So `dropped` is exercised too.
  StreamEngine engine(opts);
  std::vector<common::Matrix> batches;
  for (std::uint64_t i = 0; i < 3; ++i) {
    batches.push_back(drifting_matrix(5, 200, 40 + i));
    std::string name = "n";  // GCC 12 -Wrestrict trips on operator+.
    name += std::to_string(i);
    engine.add_node(std::move(name), fit_cs(batches.back().sub_cols(0, 100)));
  }
  engine.ingest_batch(batches);
  const NodeStats removed = engine.node_stats()[1];
  engine.remove_node(1);
  engine.ingest(0, batches[0].sub_cols(0, 30));

  const EngineStats stats = engine.stats();
  const std::vector<NodeStats> rows = engine.node_stats();
  ASSERT_EQ(rows.size(), 2u);
  StreamCounters expected = removed;
  for (const NodeStats& row : rows) expected += row;
  StreamCounters::for_each_field([&](const char* name, auto field) {
    if constexpr (kIsHistogramField<decltype(field)>) {
      const stats::Histogram& got = stats.*field;
      const stats::Histogram& want = expected.*field;
      EXPECT_EQ(got.total(), want.total()) << name;
      EXPECT_EQ(got.underflow(), want.underflow()) << name;
      EXPECT_EQ(got.overflow(), want.overflow()) << name;
      ASSERT_EQ(got.bins(), want.bins()) << name;
      for (std::size_t b = 0; b < got.bins(); ++b) {
        EXPECT_EQ(got.count(b), want.count(b)) << name << " bin " << b;
      }
    } else {
      EXPECT_EQ(stats.*field, expected.*field) << name;
    }
  });
  // The identity is not vacuous: drift, drops and both histograms counted.
  EXPECT_GT(removed.drift_flags, 0u);
  EXPECT_GT(stats.drift_windows, 0u);
  EXPECT_GT(stats.drift_retrains, 0u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.ingest_latency_us.total(), 4u);
  EXPECT_EQ(stats.retrain_latency_us.total(), stats.retrains);
  EXPECT_EQ(stats.nodes, 2u);
}

TEST(StreamEngine, IngestBatchSkipsTombstonesWithEmptyPlaceholder) {
  StreamEngine engine(engine_options());
  const common::Matrix a = node_matrix(4, 60, 24);
  const common::Matrix b = node_matrix(4, 60, 25);
  engine.add_node("a", fit_cs(a));
  engine.add_node("b", fit_cs(b));
  engine.remove_node(0);

  // The batch still has one slot per index; the tombstone's must be empty.
  std::vector<common::Matrix> batches{common::Matrix(), b};
  engine.ingest_batch(batches);
  EXPECT_EQ(engine.drain(1).size(), 5u);

  std::vector<common::Matrix> bad{a, b};
  EXPECT_THROW(engine.ingest_batch(bad), std::invalid_argument);
}

TEST(StreamEngine, MaxPendingDropsOldestAndCounts) {
  StreamOptions opts = engine_options();
  opts.max_pending = 3;
  StreamEngine engine(opts);
  const common::Matrix s = node_matrix(4, 120, 26);
  engine.add_node("n0", fit_cs(s));
  engine.ingest(0, s);  // Emits 11 signatures; the queue keeps 3.

  EXPECT_EQ(engine.pending(0), 3u);
  EXPECT_EQ(engine.dropped(0), 8u);
  EXPECT_EQ(engine.stats().dropped, 8u);

  // Drop-oldest: what survives is the TAIL of the full sequence.
  StreamOptions unbounded = engine_options();
  StreamEngine reference(unbounded);
  reference.add_node("n0", fit_cs(s));
  reference.ingest(0, s);
  const auto all = reference.drain(0);
  const auto kept = engine.drain(0);
  ASSERT_EQ(all.size(), 11u);
  ASSERT_EQ(kept.size(), 3u);
  for (std::size_t k = 0; k < kept.size(); ++k) {
    EXPECT_EQ(kept[k], all[all.size() - kept.size() + k]) << k;
  }

  // Draining resets the queue, not the cumulative counter.
  engine.ingest(0, s.sub_cols(0, 20));
  EXPECT_EQ(engine.dropped(0), 8u);
}

TEST(StreamEngine, LatencyHistogramCountsIngestCalls) {
  StreamEngine engine(engine_options());
  const common::Matrix s = node_matrix(4, 60, 27);
  engine.add_node("a", fit_cs(s));
  engine.add_node("b", fit_cs(s));
  engine.ingest(0, s.sub_cols(0, 30));
  engine.ingest(0, s.sub_cols(30, 30));
  engine.ingest(1, s);

  // One histogram sample per ingest call per node (the clamp policy keeps
  // even a slow outlier in total()).
  const std::vector<NodeStats> nodes = engine.node_stats();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0].ingest_latency_us.total(), 2u);
  EXPECT_EQ(nodes[1].ingest_latency_us.total(), 1u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.ingest_latency_us.total(), 3u);
  EXPECT_EQ(stats.ingest_latency_us.bins(), kLatencyBins);
  EXPECT_EQ(stats.ingest_latency_us.hi(), kLatencyMaxUs);
}

TEST(StreamEngine, IngestTapSeesEveryNonEmptyBatch) {
  StreamEngine engine(engine_options());
  const common::Matrix data0 = node_matrix(6, 90, 300);
  const common::Matrix data1 = node_matrix(6, 90, 301);

  std::vector<std::pair<std::size_t, common::Matrix>> seen;
  StreamEngine::IngestTap tap;
  tap.batch = [&seen](std::size_t node, const common::MatrixView& columns) {
    seen.emplace_back(node, columns.materialize());
  };
  engine.set_tap(std::move(tap));
  const std::size_t a = engine.add_node("a", fit_cs(data0));
  const std::size_t b = engine.add_node("b", fit_cs(data1));

  // Single-node ingest, then a fleet batch with an empty placeholder: the
  // tap fires once per NON-empty batch, with exactly the ingested bytes.
  engine.ingest(a, data0.sub_cols(0, 30));
  std::vector<common::Matrix> batch(2);
  batch[a] = common::Matrix(6, 0);  // Empty slot: no tap call.
  batch[b] = data1.sub_cols(10, 25);
  engine.ingest_batch(batch);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, a);
  EXPECT_EQ(seen[0].second, data0.sub_cols(0, 30));
  EXPECT_EQ(seen[1].first, b);
  EXPECT_EQ(seen[1].second, data1.sub_cols(10, 25));

  // Clearing the tap stops the calls; ingest continues untapped.
  engine.set_tap({});
  engine.ingest(a, data0.sub_cols(30, 10));
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(engine.stats().samples, 30u + 25u + 10u);
}

TEST(StreamEngine, TapDoesNotPerturbSignatures) {
  const common::Matrix data = node_matrix(6, 90, 310);
  const auto method = fit_cs(data);

  StreamEngine tapped(engine_options());
  StreamEngine untapped(engine_options());
  std::size_t adds = 0;
  std::size_t calls = 0;
  tapped.set_tap({[&adds](std::size_t, std::string_view, std::size_t) {
                    ++adds;
                  },
                  [&calls](std::size_t, const common::MatrixView&) {
                    ++calls;
                  }});
  tapped.add_node("n", method);
  untapped.add_node("n", method);

  tapped.ingest(0, data);
  untapped.ingest(0, data);
  EXPECT_EQ(adds, 1u);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(tapped.drain(0), untapped.drain(0));
}

// Every add reaches the tap with the engine's index, the name and the
// resolved sensor count (the model's when the caller passes 0, the
// caller's for a count-agnostic method), and before that node's first
// batch, also when ingest_batch fans the nodes out in parallel.
TEST(StreamEngine, TapSeesEveryAddBeforeThatNodesFirstBatch) {
  StreamEngine engine(engine_options());
  struct Event {
    bool add = false;
    std::size_t node = 0;
    std::string name;
    std::size_t n = 0;  ///< Sensor count (add) or column count (batch).
  };
  std::mutex mutex;
  std::vector<Event> events;
  engine.set_tap(
      {[&](std::size_t node, std::string_view name, std::size_t n_sensors) {
         const std::lock_guard<std::mutex> lock(mutex);
         events.push_back({true, node, std::string(name), n_sensors});
       },
       [&](std::size_t node, const common::MatrixView& columns) {
         const std::lock_guard<std::mutex> lock(mutex);
         events.push_back({false, node, "", columns.cols()});
       }});

  const common::Matrix cs_data = node_matrix(6, 90, 320);
  const common::Matrix agnostic_data = node_matrix(3, 90, 321);
  EXPECT_EQ(engine.add_node("cs", fit_cs(cs_data)), 0u);
  EXPECT_EQ(engine.add_node("tuncer",
                            std::make_shared<const baselines::TuncerMethod>(),
                            3),
            1u);
  engine.ingest_batch(std::vector<common::Matrix>{cs_data.sub_cols(0, 40),
                                                  agnostic_data.sub_cols(0, 40)});
  EXPECT_EQ(engine.add_node("late", fit_cs(cs_data), 6), 2u);
  engine.ingest(2, cs_data.sub_cols(0, 25));

  ASSERT_EQ(events.size(), 6u);
  const std::vector<std::pair<std::string, std::size_t>> adds = {
      {"cs", 6}, {"tuncer", 3}, {"late", 6}};
  std::vector<bool> announced(adds.size(), false);
  for (const Event& e : events) {
    ASSERT_LT(e.node, adds.size());
    if (e.add) {
      EXPECT_FALSE(announced[e.node]) << "node " << e.node << " added twice";
      EXPECT_EQ(e.name, adds[e.node].first);
      EXPECT_EQ(e.n, adds[e.node].second);
      announced[e.node] = true;
    } else {
      EXPECT_TRUE(announced[e.node])
          << "batch for node " << e.node << " before its add";
    }
  }
  EXPECT_EQ(std::count(announced.begin(), announced.end(), true), 3);
}

TEST(StreamEngine, ThrowingNodeAddedLeavesTheEngineWithoutTheNode) {
  StreamEngine engine(engine_options());
  const common::Matrix data = node_matrix(6, 90, 330);
  std::size_t batches = 0;
  engine.set_tap({[](std::size_t, std::string_view name, std::size_t) {
                    if (name == "refused") {
                      throw std::runtime_error("sink refused the node");
                    }
                  },
                  [&batches](std::size_t, const common::MatrixView&) {
                    ++batches;
                  }});
  EXPECT_EQ(engine.add_node("first", fit_cs(data)), 0u);
  EXPECT_THROW(engine.add_node("refused", fit_cs(data)), std::runtime_error);
  EXPECT_EQ(engine.n_nodes(), 1u);
  EXPECT_FALSE(engine.alive(1));
  EXPECT_EQ(engine.stats().nodes, 1u);
  EXPECT_EQ(engine.node_stats().size(), 1u);
  EXPECT_THROW(engine.ingest(1, data), std::out_of_range);

  // The refused add took no index: the next node gets the one it would
  // have had, and ingest reaches the tap as before.
  EXPECT_EQ(engine.add_node("second", fit_cs(data)), 1u);
  engine.ingest(1, data.sub_cols(0, 30));
  EXPECT_EQ(batches, 1u);
  EXPECT_EQ(engine.node_name(1), "second");
}

// A method without fit(): SignatureMethod's default throws, so every refit
// fails. A signature is the newest sample of sensor 0.
class UnfittableMethod final : public SignatureMethod {
 public:
  std::string name() const override { return "unfittable"; }
  std::size_t signature_length(std::size_t) const override { return 1; }
  std::vector<double> compute(const common::MatrixView& w) const override {
    return {w(0, w.cols() - 1)};
  }
};

TEST(StreamEngine, FailedRefitsKeepEveryColumnAndSignature) {
  // kSync, wl 4, ws 1, history 16, a refit every 10 columns: one 20-column
  // ingest crosses two failing refits, and a fleet batch a third.
  StreamOptions opts;
  opts.window_length = 4;
  opts.window_step = 1;
  opts.history_length = 16;
  opts.retrain_interval = 10;
  StreamEngine engine(opts);
  std::size_t tapped = 0;
  StreamEngine::IngestTap tap;
  tap.batch = [&tapped](std::size_t, const common::MatrixView& columns) {
    tapped += columns.cols();
  };
  engine.set_tap(std::move(tap));
  const std::size_t node =
      engine.add_node("n", std::make_shared<const UnfittableMethod>(), 3);
  const common::Matrix data = node_matrix(3, 30, 350);

  ASSERT_NO_THROW(engine.ingest(node, data.sub_cols(0, 20)));
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.samples, 20u);
  EXPECT_EQ(stats.signatures, 17u);  // Windows end at columns 4..20.
  EXPECT_EQ(engine.pending(node), stats.signatures);
  EXPECT_EQ(stats.retrain_failures, 2u);
  EXPECT_EQ(stats.retrains, 0u);
  EXPECT_EQ(tapped, 20u);

  const std::vector<common::Matrix> batch = {data.sub_cols(20, 10)};
  ASSERT_NO_THROW(engine.ingest_batch(batch));
  stats = engine.stats();
  EXPECT_EQ(stats.samples, 30u);
  EXPECT_EQ(stats.retrain_failures, 3u);
  EXPECT_EQ(tapped, 30u);
  EXPECT_EQ(engine.node_stats().front().retrain_failures, 3u);
  const std::vector<std::vector<double>> sigs = engine.drain(node);
  ASSERT_EQ(sigs.size(), 27u);
  for (std::size_t k = 0; k < sigs.size(); ++k) {
    EXPECT_EQ(sigs[k], std::vector<double>{data(0, 3 + k)}) << "window " << k;
  }
}

TEST(StreamEngine, NonEmptyTapNeedsAnEngineWithoutNodes) {
  StreamEngine engine(engine_options());
  const common::Matrix data = node_matrix(6, 90, 340);
  engine.add_node("n", fit_cs(data));

  StreamEngine::IngestTap batch_only;
  batch_only.batch = [](std::size_t, const common::MatrixView&) {};
  EXPECT_THROW(engine.set_tap(batch_only), std::logic_error);
  StreamEngine::IngestTap add_only;
  add_only.node_added = [](std::size_t, std::string_view, std::size_t) {};
  EXPECT_THROW(engine.set_tap(add_only), std::logic_error);

  // Clearing is allowed at any time, and a removed node still counts: its
  // index stays taken.
  engine.set_tap({});
  engine.remove_node(0);
  EXPECT_THROW(engine.set_tap(batch_only), std::logic_error);
  engine.set_tap({});
}

}  // namespace
}  // namespace csm::core
