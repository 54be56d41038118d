// Fleet-wide online ingestion: one MethodStream per monitored node.
//
// A production ODA deployment (Fig. 1) monitors hundreds of compute nodes at
// once; each node has its own trained signature method (CS with a per-node
// model, a PCA basis, or a stateless baseline) and its own signature stream.
// StreamEngine owns one MethodStream per node — any SignatureMethod can be
// driven online, CS keeping its derivative-seeding specialisation — fans
// batched ingestion across nodes with common::parallel_for (nodes are
// independent, so the loop is embarrassingly parallel), buffers emitted
// feature vectors in per-node queues for downstream consumers (classifiers,
// dashboards), and keeps aggregate throughput counters so operators can see
// samples/sec across the whole fleet. Memory stays bounded: each node holds
// exactly n_sensors x history_length doubles of history plus its undrained
// queue.
//
// Concurrency contract: ingest(), ingest_batch(), drain(), pending(),
// stats(), remove_node() and every add_node() overload may be called
// concurrently from multiple threads (the soak test in
// tests/core/stream_engine_soak_test.cpp runs exactly that mix under
// ThreadSanitizer). Each node carries its own mutex — ingest and drain on
// the same node serialise, different nodes proceed in parallel — and the
// node table is guarded by a shared_mutex so add_node can grow a live
// fleet without invalidating in-flight ingestion. Removal tombstones the
// slot instead of erasing it, so node indices stay stable for the engine's
// lifetime and a thread racing the removal sees either the live node or a
// named "node removed" error, never a dangling reference. Per-call
// ordering is the only guarantee: a drain racing an ingest returns either
// side of that batch's signatures, never a torn vector. The stream()
// accessor returns a reference into a node's live state and is safe only
// while no other thread is feeding or removing that node.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/matrix.hpp"
#include "common/matrix_view.hpp"
#include "core/method_stream.hpp"
#include "core/retrain_executor.hpp"
#include "core/signature_method.hpp"
#include "core/stream_counters.hpp"
#include "core/streaming.hpp"

namespace csm::core {

class MethodRegistry;
class ModelPack;

/// Aggregate counters across all nodes of a StreamEngine. Counters are
/// cumulative over the engine's lifetime: removing a node folds its totals
/// into the aggregate instead of subtracting them. The histograms are the
/// per-node ones merged.
struct EngineStats : StreamCounters {
  std::uint64_t nodes = 0;      ///< Live (non-removed) nodes.
  double ingest_seconds = 0.0;  ///< Wall time spent inside ingestion calls.

  /// Samples per second over the accumulated ingestion time (0 if no time
  /// has been accumulated yet).
  double samples_per_second() const noexcept {
    return ingest_seconds > 0.0
               ? static_cast<double>(samples) / ingest_seconds
               : 0.0;
  }
};

/// One live node's counters for the per-node stats scrape (`csmcli
/// fleet-stats`). Tombstones fold into the fleet-wide EngineStats instead.
struct NodeStats : StreamCounters {
  std::string name;
};

/// Multi-node streaming front end over per-node MethodStreams.
class StreamEngine {
 public:
  /// Ingest observer, installed by set_tap() while the engine has no nodes,
  /// so the node indices it sees are the engine's own.
  ///
  /// node_added fires inside add_node() for every node, under the exclusive
  /// table lock and before the node is published, with the index the node
  /// gets, its name and the stream's resolved sensor count (the model's for
  /// a method bound to a sensor count). If it throws, the node is not added
  /// and add_node() rethrows. No batch of a node reaches the tap before its
  /// node_added call returned.
  ///
  /// batch fires once per non-empty batch actually fed to a node, under
  /// that node's mutex, AFTER the batch was pushed — so per-node call order
  /// equals per-node ingest order even when ingest_batch fans nodes out in
  /// parallel (replay::Recorder relies on exactly this). The batch arrives
  /// as the caller passed it, viewed: a column-segment view over csmd's
  /// decode buffer or a replayed batch, a row-major one over a Matrix, and
  /// valid only for the call. It must tolerate concurrent invocations for
  /// different nodes.
  ///
  /// Neither callback may call back into the engine (a lock is held).
  struct IngestTap {
    std::function<void(std::size_t node, std::string_view name,
                       std::size_t n_sensors)>
        node_added;
    std::function<void(std::size_t node, const common::MatrixView& columns)>
        batch;
  };
  /// All nodes share the same windowing/retrain configuration; methods are
  /// per node. Under kAsync the engine owns the bounded retrain worker
  /// pool (options.retrain_threads workers) its nodes' shadow fits run on.
  /// Throws (via StreamOptions/MethodStream validation) on bad options or
  /// bad methods.
  explicit StreamEngine(StreamOptions options) : options_(options) {
    options_.validate();
    // kOnDrift fits inline like kSync, so only kAsync gets a worker pool.
    if (options_.retrain_policy == RetrainPolicy::kAsync) {
      retrain_pool_ =
          std::make_unique<RetrainExecutor>(options_.retrain_threads);
    }
  }

  /// Registers a node driven by any trained signature method and returns
  /// its index. `n_sensors` is required for sensor-count-agnostic methods
  /// (see MethodStream). Node names are labels only and need not be unique.
  /// An installed tap's node_added announces the node first; if it throws,
  /// the node is not added.
  std::size_t add_node(std::string name,
                       std::shared_ptr<const SignatureMethod> method,
                       std::size_t n_sensors = 0);

  /// Fleet-store convenience: lazily deserialises node `id`'s record from a
  /// mapped ModelPack through `registry` (the node keeps `id` as its name).
  /// Throws std::runtime_error when the id is absent or its record is
  /// corrupt.
  std::size_t add_node(const ModelPack& pack, std::string_view id,
                       const MethodRegistry& registry,
                       std::size_t n_sensors = 0);

  /// Number of node slots ever created, INCLUDING removed tombstones —
  /// node indices are stable for the engine's lifetime, so this is the
  /// exclusive upper bound on valid indices (check alive() per slot).
  std::size_t n_nodes() const noexcept;
  const StreamOptions& options() const noexcept { return options_; }
  const std::string& node_name(std::size_t node) const;
  /// The underlying per-node stream (e.g. to inspect the live method).
  /// Not synchronised: only safe while no other thread feeds this node.
  const MethodStream& stream(std::size_t node) const;

  /// False once the slot has been remove_node()d (or for an out-of-range
  /// index).
  bool alive(std::size_t node) const noexcept;

  /// Removes a node from the live fleet and returns its undrained
  /// signature queue. The slot becomes a tombstone: indices of every other
  /// node are unchanged, ingest/drain/stream() on the removed index throw,
  /// and ingest_batch expects an EMPTY batch for the slot. The node's
  /// history buffer is released immediately; its cumulative counters stay
  /// in stats(). Safe to call concurrently with ingestion on other nodes.
  std::vector<std::vector<double>> remove_node(std::size_t node);

  /// Feeds a batch of columns to one node; emitted feature vectors are
  /// appended to that node's queue. A column-major batch (ColumnBatch or a
  /// column-segment view) reaches the ring with one copy per column; a
  /// row-major Matrix converts implicitly and is gathered column by column.
  /// A failed refit never throws: the node counts it in retrain_failures,
  /// keeps its model, and consumes every column.
  void ingest(std::size_t node, const common::MatrixView& columns);

  /// Feeds one batch per node (batches.size() must equal n_nodes(); batches
  /// may have different column counts, rows must match each node's sensor
  /// count). Nodes are processed concurrently with common::parallel_for.
  /// Shapes are validated up front; failed refits are counted, as in
  /// ingest(), and any other mid-flight failure in a node (a throwing tap,
  /// say) is re-thrown after the batch completes. Nodes added concurrently
  /// with this call are not part of the batch.
  void ingest_batch(std::span<const common::MatrixView> batches);
  /// Same, over row-major batches.
  void ingest_batch(std::span<const common::Matrix> batches);

  /// Number of feature vectors waiting in a node's queue.
  std::size_t pending(std::size_t node) const;

  /// Takes (moves out) all feature vectors queued for a node.
  std::vector<std::vector<double>> drain(std::size_t node);

  /// Signatures this node has shed under the StreamOptions::max_pending
  /// backpressure policy (cumulative; still reported after removal).
  std::uint64_t dropped(std::size_t node) const;

  /// Aggregate counters summed over all nodes (including removed ones),
  /// plus accumulated wall time and the merged latency histograms.
  EngineStats stats() const;

  /// Per-node counter snapshot of every LIVE node, in node-index order
  /// (tombstones are skipped — their totals live on in stats()). Safe to
  /// call concurrently with ingestion; each row is internally consistent
  /// (taken under that node's mutex).
  std::vector<NodeStats> node_stats() const;

  /// Installs the ingest tap, or removes it when both callbacks are empty.
  /// A tap with a callback can only be installed while the engine has no
  /// nodes (std::logic_error otherwise), so node_added announces every node
  /// the tap will see. Removing is allowed at any time, also concurrently
  /// with ingestion: in-flight ingest calls finish with whichever tap they
  /// loaded, subsequent ones see none.
  void set_tap(IngestTap tap);

 private:
  struct Node {
    std::string name;  ///< Immutable after construction.
    /// Engaged while the node is live; remove_node() releases it (and the
    /// ring history inside) under the node mutex. The Node shell itself is
    /// never destroyed while the engine lives, so references and the mutex
    /// stay valid for threads racing a removal.
    std::optional<MethodStream> stream;
    /// Drop-oldest under max_pending: deque so eviction at the front is
    /// O(1) per dropped signature.
    std::deque<std::vector<double>> queue;
    /// Kept outside the stream's record so dropped(node) outlives
    /// remove_node.
    std::uint64_t dropped = 0;
    mutable std::mutex mutex;  ///< Guards stream + queue + counters above.

    Node(std::string name_, MethodStream stream_)
        : name(std::move(name_)), stream(std::move(stream_)) {}
  };

  /// Looks a node up under the table lock; throws std::out_of_range for a
  /// bad index. `live` additionally rejects removed slots with
  /// std::invalid_argument naming the node.
  Node& node_at(std::size_t node, bool live = true) const;
  void add_ingest_seconds(double seconds) noexcept;
  /// Appends signatures to a node's queue and applies the max_pending
  /// drop-oldest policy. Caller holds the node mutex.
  void enqueue(Node& n, std::vector<std::vector<double>>&& sigs);
  /// Runs one node's ingest under its mutex and records its latency;
  /// `index` is the node's table index (the tap reports it).
  void ingest_locked(std::size_t index, Node& n,
                     const common::MatrixView& columns);
  std::shared_ptr<const IngestTap> current_tap() const;

  StreamOptions options_;
  /// Bounded worker pool the nodes' kAsync shadow fits run on (null under
  /// the inline policies). Declared before nodes_ so it is destroyed after
  /// them: a stream's destructor cancels its in-flight fit, then the pool
  /// joins.
  std::unique_ptr<RetrainExecutor> retrain_pool_;
  /// unique_ptr keeps node addresses (and their mutexes) stable while
  /// add_node grows the table under the exclusive lock.
  std::vector<std::unique_ptr<Node>> nodes_;
  mutable std::shared_mutex nodes_mutex_;  ///< Guards the nodes_ table.
  /// Counters of removed nodes, folded in at removal so stats() stays
  /// cumulative. Guarded by nodes_mutex_ (exclusive on write).
  StreamCounters removed_;
  std::atomic<double> ingest_seconds_{0.0};
  /// Ingest tap behind a shared_ptr so a concurrent set_tap never frees a
  /// function an in-flight ingest is still calling. Guarded by tap_mutex_
  /// (read: one lock per ingest call, trivial next to push_all).
  std::shared_ptr<const IngestTap> tap_;
  mutable std::mutex tap_mutex_;
};

}  // namespace csm::core
