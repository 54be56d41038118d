#include "core/stream_engine.hpp"

#include <exception>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/model_pack.hpp"

namespace csm::core {

StreamEngine::Node& StreamEngine::node_at(std::size_t node, bool live) const {
  std::shared_lock lock(nodes_mutex_);
  if (node >= nodes_.size()) {
    throw std::out_of_range("StreamEngine: node index " +
                            std::to_string(node) + " out of range (fleet has " +
                            std::to_string(nodes_.size()) + " nodes)");
  }
  Node& n = *nodes_[node];
  if (live) {
    // The removed check needs the node mutex (remove_node resets the
    // stream under it); take it briefly so a racing removal is seen.
    std::lock_guard node_lock(n.mutex);
    if (!n.stream.has_value()) {
      throw std::invalid_argument("StreamEngine: node " +
                                  std::to_string(node) + " (\"" + n.name +
                                  "\") has been removed");
    }
  }
  return n;
}

void StreamEngine::add_ingest_seconds(double seconds) noexcept {
  // compare_exchange loop instead of fetch_add: portable across standard
  // libraries that predate atomic<double>::fetch_add.
  double current = ingest_seconds_.load(std::memory_order_relaxed);
  while (!ingest_seconds_.compare_exchange_weak(current, current + seconds,
                                                std::memory_order_relaxed)) {
  }
}

void StreamEngine::enqueue(Node& n, std::vector<std::vector<double>>&& sigs) {
  n.queue.insert(n.queue.end(), std::make_move_iterator(sigs.begin()),
                 std::make_move_iterator(sigs.end()));
  const std::size_t cap = options_.max_pending;
  if (cap != 0 && n.queue.size() > cap) {
    const std::size_t excess = n.queue.size() - cap;
    n.queue.erase(n.queue.begin(),
                  n.queue.begin() + static_cast<std::ptrdiff_t>(excess));
    n.dropped += excess;
  }
}

void StreamEngine::ingest_locked(std::size_t index, Node& n,
                                 const common::MatrixView& columns) {
  // Caller holds n.mutex. The timer covers processing only (push_all +
  // queue append), not lock wait — that is the per-call ingest latency the
  // histogram records.
  const common::Timer timer;
  if (!n.stream.has_value()) {
    throw std::invalid_argument("StreamEngine: node \"" + n.name +
                                "\" has been removed");
  }
  enqueue(n, n.stream->push_all(columns));
  const double seconds = timer.seconds();
  n.stream->counters_.ingest_latency_us.add(seconds * 1e6);
  add_ingest_seconds(seconds);
  if (columns.cols() == 0) return;
  // Tap AFTER the push, still under the node mutex: a recorder sees each
  // node's batches in exactly the order the node's stream consumed them.
  const std::shared_ptr<const IngestTap> tap = current_tap();
  if (tap && tap->batch) tap->batch(index, columns);
}

std::shared_ptr<const StreamEngine::IngestTap> StreamEngine::current_tap()
    const {
  const std::lock_guard<std::mutex> tap_lock(tap_mutex_);
  return tap_;
}

void StreamEngine::set_tap(IngestTap tap) {
  auto next = tap.node_added || tap.batch
                  ? std::make_shared<const IngestTap>(std::move(tap))
                  : std::shared_ptr<const IngestTap>();
  // The table lock orders this against add_node, so a tap installed on an
  // empty table hears of every node the engine will hold.
  std::shared_lock lock(nodes_mutex_);
  if (next && !nodes_.empty()) {
    throw std::logic_error(
        "StreamEngine::set_tap: the engine already has " +
        std::to_string(nodes_.size()) +
        " nodes; install a tap before the first add_node");
  }
  const std::lock_guard<std::mutex> tap_lock(tap_mutex_);
  tap_ = std::move(next);
}

std::size_t StreamEngine::add_node(
    std::string name, std::shared_ptr<const SignatureMethod> method,
    std::size_t n_sensors) {
  // Construct (and let MethodStream validate) outside the exclusive lock so
  // a bad method never stalls concurrent ingestion.
  auto node = std::make_unique<Node>(
      std::move(name), MethodStream(std::move(method), options_, n_sensors,
                                    retrain_pool_.get()));
  std::unique_lock lock(nodes_mutex_);
  const std::size_t index = nodes_.size();
  nodes_.push_back(std::move(node));
  // Announced before the lock publishes the node, so its first batch
  // reaches the tap after this; a throwing announcement takes it back.
  const std::shared_ptr<const IngestTap> tap = current_tap();
  if (tap && tap->node_added) {
    const Node& added = *nodes_.back();
    try {
      tap->node_added(index, added.name, added.stream->n_sensors());
    } catch (...) {
      nodes_.pop_back();
      throw;
    }
  }
  return index;
}

std::size_t StreamEngine::add_node(const ModelPack& pack, std::string_view id,
                                   const MethodRegistry& registry,
                                   std::size_t n_sensors) {
  return add_node(std::string(id), pack.load(id, registry), n_sensors);
}

std::size_t StreamEngine::n_nodes() const noexcept {
  std::shared_lock lock(nodes_mutex_);
  return nodes_.size();
}

const std::string& StreamEngine::node_name(std::size_t node) const {
  return node_at(node, /*live=*/false).name;
}

const MethodStream& StreamEngine::stream(std::size_t node) const {
  return *node_at(node).stream;
}

bool StreamEngine::alive(std::size_t node) const noexcept {
  std::shared_lock lock(nodes_mutex_);
  if (node >= nodes_.size()) return false;
  Node& n = *nodes_[node];
  std::lock_guard node_lock(n.mutex);
  return n.stream.has_value();
}

std::vector<std::vector<double>> StreamEngine::remove_node(std::size_t node) {
  // Exclusive table lock: stats() and a racing remove of the same node
  // serialise against the removed_ fold below. The Node shell survives so
  // threads already holding a reference merely observe the tombstone.
  std::unique_lock lock(nodes_mutex_);
  if (node >= nodes_.size()) {
    throw std::out_of_range("StreamEngine: node index " +
                            std::to_string(node) + " out of range (fleet has " +
                            std::to_string(nodes_.size()) + " nodes)");
  }
  Node& n = *nodes_[node];
  std::lock_guard node_lock(n.mutex);
  if (!n.stream.has_value()) {
    throw std::invalid_argument("StreamEngine: node " + std::to_string(node) +
                                " (\"" + n.name + "\") has been removed");
  }
  removed_ += n.stream->counters();
  removed_.dropped += n.dropped;
  n.stream.reset();  // Frees the ring history; the tombstone stays.
  std::vector<std::vector<double>> remaining(
      std::make_move_iterator(n.queue.begin()),
      std::make_move_iterator(n.queue.end()));
  n.queue.clear();
  n.queue.shrink_to_fit();
  return remaining;
}

void StreamEngine::ingest(std::size_t node,
                          const common::MatrixView& columns) {
  Node& n = node_at(node);
  std::lock_guard node_lock(n.mutex);
  ingest_locked(node, n, columns);
}

void StreamEngine::ingest_batch(std::span<const common::Matrix> batches) {
  const std::vector<common::MatrixView> views(batches.begin(), batches.end());
  ingest_batch(views);
}

void StreamEngine::ingest_batch(
    std::span<const common::MatrixView> batches) {
  // The shared table lock pins the batch's node set for the whole call:
  // concurrent add_node/remove_node wait, concurrent ingest/drain proceed.
  std::shared_lock lock(nodes_mutex_);
  if (batches.size() != nodes_.size()) {
    throw std::invalid_argument(
        "StreamEngine::ingest_batch: one batch per node required");
  }
  for (std::size_t i = 0; i < batches.size(); ++i) {
    std::lock_guard node_lock(nodes_[i]->mutex);
    if (!nodes_[i]->stream.has_value()) {
      // Removed slots keep their index; the caller signals "nothing for
      // this tombstone" with an empty batch.
      if (batches[i].cols() != 0) {
        throw std::invalid_argument(
            "StreamEngine::ingest_batch: batch " + std::to_string(i) +
            " targets a removed node (pass an empty batch for its slot)");
      }
    } else if (batches[i].rows() != nodes_[i]->stream->n_sensors()) {
      throw std::invalid_argument("StreamEngine::ingest_batch: batch " +
                                  std::to_string(i) +
                                  " has wrong sensor count");
    }
  }
  // parallel_for bodies must not throw; capture the first node failure and
  // surface it once the whole batch has run.
  std::vector<std::exception_ptr> errors(nodes_.size());
  common::parallel_for(nodes_.size(), [&](std::size_t i) {
    try {
      Node& n = *nodes_[i];
      std::lock_guard node_lock(n.mutex);
      if (!n.stream.has_value()) return;  // Tombstone, empty batch: no-op.
      ingest_locked(i, n, batches[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::size_t StreamEngine::pending(std::size_t node) const {
  Node& n = node_at(node);
  std::lock_guard node_lock(n.mutex);
  return n.queue.size();
}

std::vector<std::vector<double>> StreamEngine::drain(std::size_t node) {
  Node& n = node_at(node);
  std::lock_guard node_lock(n.mutex);
  std::vector<std::vector<double>> out(
      std::make_move_iterator(n.queue.begin()),
      std::make_move_iterator(n.queue.end()));
  n.queue.clear();
  return out;
}

std::uint64_t StreamEngine::dropped(std::size_t node) const {
  Node& n = node_at(node, /*live=*/false);
  std::lock_guard node_lock(n.mutex);
  return n.dropped;
}

EngineStats StreamEngine::stats() const {
  EngineStats s;
  s.ingest_seconds = ingest_seconds_.load(std::memory_order_relaxed);
  std::shared_lock lock(nodes_mutex_);
  s += removed_;
  for (const auto& n : nodes_) {
    std::lock_guard node_lock(n->mutex);
    if (!n->stream.has_value()) continue;
    ++s.nodes;
    s += n->stream->counters();
    s.dropped += n->dropped;
  }
  return s;
}

std::vector<NodeStats> StreamEngine::node_stats() const {
  std::shared_lock lock(nodes_mutex_);
  std::vector<NodeStats> rows;
  rows.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    std::lock_guard node_lock(n->mutex);
    if (!n->stream.has_value()) continue;  // Tombstone: folded into stats().
    rows.push_back({n->stream->counters(), n->name});
    rows.back().dropped = n->dropped;
  }
  return rows;
}

}  // namespace csm::core
