// Multi-threaded StreamEngine soak: exercises the documented concurrency
// contract (stream_engine.hpp) with concurrent ingest, drain, stats and
// add_node-from-pack traffic. Every input is deterministic — only the
// interleavings vary — so the final per-node signature sequences must match
// a single-threaded reference exactly. Runs at tier-1 and, with the `tsan`
// preset, under ThreadSanitizer where it is the primary race detector for
// the engine's locking scheme.
#include "core/stream_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/method_registry.hpp"
#include "core/model_pack.hpp"
#include "core/pipeline.hpp"
#include "core/signature_method.hpp"

namespace csm::core {
namespace {

common::Matrix node_matrix(std::size_t n, std::size_t t, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = rng.uniform(-1.0, 1.0) + 0.2 * static_cast<double>(r);
    }
  }
  return s;
}

StreamOptions soak_options() {
  StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 10;
  return opts;
}

// CS-4 emitting both channels, fitted on `s`.
std::shared_ptr<const SignatureMethod> fit_cs(const common::Matrix& s) {
  return CsSignatureMethod(CsOptions{4, false}).fit(s);
}

constexpr std::size_t kSensors = 6;
constexpr std::size_t kProducerNodes = 4;
constexpr std::size_t kBatchesPerNode = 24;
constexpr std::size_t kColsPerBatch = 60;
constexpr std::size_t kPackNodes = 5;

/// The batch sequence producer `node` feeds — shared with the reference.
std::vector<common::Matrix> batches_for(std::size_t node) {
  std::vector<common::Matrix> out;
  out.reserve(kBatchesPerNode);
  for (std::size_t b = 0; b < kBatchesPerNode; ++b) {
    out.push_back(node_matrix(kSensors, kColsPerBatch, 1000 + 64 * node + b));
  }
  return out;
}

TEST(StreamEngineSoak, ConcurrentIngestDrainAndGrowth) {
  // A fleet pack on disk for the add_node-from-pack traffic.
  const MethodRegistry& registry = baselines::default_registry();
  const std::filesystem::path pack_file =
      std::filesystem::path(testing::TempDir()) / "soak_fleet.csmp";
  {
    ModelPackWriter writer(pack_file);
    for (std::size_t i = 0; i < kPackNodes; ++i) {
      const auto trained = registry.create("cs:blocks=4")->fit(
          node_matrix(kSensors, 80, 9000 + i));
      writer.add("pack-node-" + std::to_string(i), *trained);
    }
    writer.finish();
  }
  const ModelPack pack = ModelPack::open(pack_file);

  StreamEngine engine(soak_options());
  for (std::size_t i = 0; i < kProducerNodes; ++i) {
    engine.add_node("node" + std::to_string(i),
                    fit_cs(node_matrix(kSensors, 80, 500 + i)));
  }

  // Each producer owns a disjoint set of nodes, so per-node ingest order is
  // deterministic even though producers, the drainer and the grower race.
  std::atomic<std::size_t> producers_done{0};
  std::vector<std::vector<std::vector<double>>> drained(kProducerNodes);
  std::vector<std::thread> threads;

  for (std::size_t p = 0; p < 2; ++p) {
    threads.emplace_back([&engine, &producers_done, p] {
      for (std::size_t node = p; node < kProducerNodes; node += 2) {
        for (const common::Matrix& batch : batches_for(node)) {
          engine.ingest(node, batch);
        }
      }
      producers_done.fetch_add(1);
    });
  }

  // Drainer: sweeps the producer nodes until both producers finished, then
  // one final sweep so nothing is left queued.
  threads.emplace_back([&engine, &producers_done, &drained] {
    bool final_pass = false;
    while (true) {
      const bool done_before = producers_done.load() == 2;
      for (std::size_t node = 0; node < kProducerNodes; ++node) {
        auto sigs = engine.drain(node);
        for (auto& sig : sigs) drained[node].push_back(std::move(sig));
      }
      if (final_pass) break;
      if (done_before) final_pass = true;  // One more sweep after quiesce.
      std::this_thread::yield();
    }
  });

  // Grower: extends the live fleet from the pack mid-stream and feeds each
  // new node immediately, mixing in the read-side accessors.
  threads.emplace_back([&engine, &pack, &registry] {
    for (std::size_t i = 0; i < kPackNodes; ++i) {
      const std::size_t node =
          engine.add_node(pack, "pack-node-" + std::to_string(i), registry);
      engine.ingest(node, node_matrix(kSensors, 40, 7000 + i));
      (void)engine.stats();
      (void)engine.pending(node);
      ASSERT_GE(engine.n_nodes(), kProducerNodes + i + 1);
    }
  });

  for (std::thread& t : threads) t.join();
  ASSERT_EQ(engine.n_nodes(), kProducerNodes + kPackNodes);

  // Producer nodes: drained signatures must equal a single-threaded engine
  // fed the same batches in the same order, exactly and in order.
  StreamEngine reference(soak_options());
  for (std::size_t node = 0; node < kProducerNodes; ++node) {
    reference.add_node("ref" + std::to_string(node),
                       fit_cs(node_matrix(kSensors, 80, 500 + node)));
    for (const common::Matrix& batch : batches_for(node)) {
      reference.ingest(node, batch);
    }
    const auto expected = reference.drain(node);
    ASSERT_EQ(drained[node].size(), expected.size()) << "node " << node;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(drained[node][k], expected[k])
          << "node " << node << " signature " << k;
    }
    EXPECT_EQ(engine.pending(node), 0u);
  }

  // Pack nodes were fed 40 columns each: windows at 20, 30, 40 -> 3 queued.
  for (std::size_t i = 0; i < kPackNodes; ++i) {
    EXPECT_EQ(engine.pending(kProducerNodes + i), 3u);
  }

  // Aggregate counters must balance the books regardless of interleaving.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.samples,
            kProducerNodes * kBatchesPerNode * kColsPerBatch +
                kPackNodes * 40);
  std::size_t producer_sigs = 0;
  for (const auto& sigs : drained) producer_sigs += sigs.size();
  EXPECT_EQ(stats.signatures, producer_sigs + kPackNodes * 3);
}

/// ingest_batch fans one batch per node across worker threads while other
/// threads drain and poll — the parallel_for path under external contention.
TEST(StreamEngineSoak, IngestBatchRacesDrain) {
  StreamEngine engine(soak_options());
  std::vector<common::Matrix> batches;
  for (std::size_t i = 0; i < kProducerNodes; ++i) {
    engine.add_node("node" + std::to_string(i),
                    fit_cs(node_matrix(kSensors, 80, 300 + i)));
    batches.push_back(node_matrix(kSensors, 100, 400 + i));
  }

  std::atomic<bool> done{false};
  std::vector<std::vector<std::vector<double>>> drained(kProducerNodes);
  std::thread drainer([&engine, &done, &drained] {
    while (!done.load()) {
      for (std::size_t node = 0; node < kProducerNodes; ++node) {
        auto sigs = engine.drain(node);
        for (auto& sig : sigs) drained[node].push_back(std::move(sig));
      }
      (void)engine.stats();
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < 8; ++round) {
    engine.ingest_batch(batches);
  }
  done.store(true);
  drainer.join();

  // The stream is continuous across rounds: 8 * 100 columns with windows at
  // 20, 30, ..., 800 -> (800 - 20) / 10 + 1 signatures.
  for (std::size_t node = 0; node < kProducerNodes; ++node) {
    auto tail = engine.drain(node);
    EXPECT_EQ(drained[node].size() + tail.size(), (800u - 20u) / 10u + 1u)
        << "node " << node;
  }
}

// --------------------------------------------------------------------------
// Retrain-under-race soaks. Sync policy must stay bit-for-bit equal to a
// single-threaded replay whatever the drain/stats interleaving; async policy
// keeps the emission cadence (signature counts are deterministic — only
// which model generation computed a signature varies) while shadow fits race
// ingest, drain, stats scrapes and fleet growth. Both run under the `tsan`
// preset.
// --------------------------------------------------------------------------

StreamOptions retrain_soak_options(RetrainPolicy policy) {
  StreamOptions opts = soak_options();
  opts.retrain_interval = 150;
  opts.history_length = 128;
  opts.retrain_policy = policy;
  opts.retrain_threads = 2;
  return opts;
}

// Per producer node: 1440 samples -> retrain triggers at 150, 300, ..., 1350.
constexpr std::size_t kRetrainTriggers =
    kBatchesPerNode * kColsPerBatch / 150;

TEST(StreamEngineSoak, SyncRetrainRacesBitIdenticalToReference) {
  StreamEngine engine(retrain_soak_options(RetrainPolicy::kSync));
  for (std::size_t i = 0; i < kProducerNodes; ++i) {
    engine.add_node("node" + std::to_string(i),
                    fit_cs(node_matrix(kSensors, 80, 500 + i)));
  }

  std::atomic<std::size_t> producers_done{0};
  std::vector<std::vector<std::vector<double>>> drained(kProducerNodes);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < 2; ++p) {
    threads.emplace_back([&engine, &producers_done, p] {
      for (std::size_t node = p; node < kProducerNodes; node += 2) {
        for (const common::Matrix& batch : batches_for(node)) {
          engine.ingest(node, batch);
        }
      }
      producers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&engine, &producers_done, &drained] {
    bool final_pass = false;
    while (true) {
      const bool done_before = producers_done.load() == 2;
      for (std::size_t node = 0; node < kProducerNodes; ++node) {
        auto sigs = engine.drain(node);
        for (auto& sig : sigs) drained[node].push_back(std::move(sig));
      }
      (void)engine.stats();
      (void)engine.node_stats();
      if (final_pass) break;
      if (done_before) final_pass = true;
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();

  StreamEngine reference(retrain_soak_options(RetrainPolicy::kSync));
  for (std::size_t node = 0; node < kProducerNodes; ++node) {
    reference.add_node("ref" + std::to_string(node),
                       fit_cs(node_matrix(kSensors, 80, 500 + node)));
    for (const common::Matrix& batch : batches_for(node)) {
      reference.ingest(node, batch);
    }
    const auto expected = reference.drain(node);
    ASSERT_EQ(drained[node].size(), expected.size()) << "node " << node;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(drained[node][k], expected[k])
          << "node " << node << " signature " << k;
    }
  }
  const auto rows = engine.node_stats();
  const auto ref_rows = reference.node_stats();
  ASSERT_EQ(rows.size(), ref_rows.size());
  for (std::size_t node = 0; node < rows.size(); ++node) {
    EXPECT_EQ(rows[node].samples, ref_rows[node].samples);
    EXPECT_EQ(rows[node].signatures, ref_rows[node].signatures);
    EXPECT_EQ(rows[node].retrains, kRetrainTriggers) << "node " << node;
    EXPECT_EQ(rows[node].retrain_aborts, 0u);
  }
}

TEST(StreamEngineSoak, AsyncRetrainRacesIngestDrainAndGrowth) {
  StreamEngine engine(retrain_soak_options(RetrainPolicy::kAsync));
  for (std::size_t i = 0; i < kProducerNodes; ++i) {
    engine.add_node("node" + std::to_string(i),
                    fit_cs(node_matrix(kSensors, 80, 500 + i)));
  }

  std::atomic<std::size_t> producers_done{0};
  std::vector<std::vector<std::vector<double>>> drained(kProducerNodes);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < 2; ++p) {
    threads.emplace_back([&engine, &producers_done, p] {
      for (std::size_t node = p; node < kProducerNodes; node += 2) {
        for (const common::Matrix& batch : batches_for(node)) {
          engine.ingest(node, batch);
        }
      }
      producers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&engine, &producers_done, &drained] {
    bool final_pass = false;
    while (true) {
      const bool done_before = producers_done.load() == 2;
      for (std::size_t node = 0; node < kProducerNodes; ++node) {
        auto sigs = engine.drain(node);
        for (auto& sig : sigs) drained[node].push_back(std::move(sig));
      }
      (void)engine.stats();
      (void)engine.node_stats();
      if (final_pass) break;
      if (done_before) final_pass = true;
      std::this_thread::yield();
    }
  });
  // Grower: the fleet expands while shadow fits are in flight elsewhere.
  threads.emplace_back([&engine] {
    const std::size_t node =
        engine.add_node("late", fit_cs(node_matrix(kSensors, 80, 8100)));
    engine.ingest(node, node_matrix(kSensors, 200, 8200));
  });
  for (std::thread& t : threads) t.join();

  // Emission cadence is independent of the retrain policy: exact per-node
  // signature counts, with every signature the method's advertised length.
  const std::size_t cols = kBatchesPerNode * kColsPerBatch;
  const std::size_t expected_sigs = (cols - 20) / 10 + 1;
  const std::size_t sig_len =
      engine.stream(0).method().signature_length(kSensors);
  ASSERT_GT(sig_len, 0u);
  for (std::size_t node = 0; node < kProducerNodes; ++node) {
    auto tail = engine.drain(node);
    for (auto& sig : tail) drained[node].push_back(std::move(sig));
    EXPECT_EQ(drained[node].size(), expected_sigs) << "node " << node;
    for (const auto& sig : drained[node]) EXPECT_EQ(sig.size(), sig_len);
  }

  // Every launched fit is accounted at most once: swapped in, or aborted
  // (superseded); anything still in flight at teardown is neither.
  const auto rows = engine.node_stats();
  ASSERT_EQ(rows.size(), kProducerNodes + 1);
  for (std::size_t node = 0; node < kProducerNodes; ++node) {
    EXPECT_LE(rows[node].retrains + rows[node].retrain_aborts,
              kRetrainTriggers)
        << "node " << node;
    EXPECT_EQ(rows[node].retrain_latency_us.total(), rows[node].retrains);
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.samples, kProducerNodes * cols + 200);
  // Engine teardown with any still-running shadow fit is exercised here:
  // node destructors fire the cancel tokens, then the pool joins.
}

}  // namespace
}  // namespace csm::core
