#include "core/stream_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
  EXPECT_EQ(engine.stream(0).samples_seen(), 40u);
  EXPECT_EQ(engine.stream(1).samples_seen(), 65u);
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
  EXPECT_EQ(engine.stream(0).samples_seen(), 0u);
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
  const std::size_t a = engine.add_node("a", fit_cs(data0));
  const std::size_t b = engine.add_node("b", fit_cs(data1));

  std::vector<std::pair<std::size_t, common::Matrix>> seen;
  engine.set_tap([&seen](std::size_t node, const common::Matrix& columns) {
    seen.emplace_back(node, columns);
  });

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
  engine.set_tap(nullptr);
  engine.ingest(a, data0.sub_cols(30, 10));
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(engine.stats().samples, 30u + 25u + 10u);
}

TEST(StreamEngine, TapDoesNotPerturbSignatures) {
  const common::Matrix data = node_matrix(6, 90, 310);
  const auto method = fit_cs(data);

  StreamEngine tapped(engine_options());
  StreamEngine untapped(engine_options());
  tapped.add_node("n", method);
  untapped.add_node("n", method);
  std::size_t calls = 0;
  tapped.set_tap([&calls](std::size_t, const common::Matrix&) { ++calls; });

  tapped.ingest(0, data);
  untapped.ingest(0, data);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(tapped.drain(0), untapped.drain(0));
}

}  // namespace
}  // namespace csm::core
