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
                                 const common::Matrix& columns) {
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
  n.latency_us.add(seconds * 1e6);
  add_ingest_seconds(seconds);
  if (columns.cols() == 0) return;
  // Tap AFTER the push, still under the node mutex: a recorder sees each
  // node's batches in exactly the order the node's stream consumed them.
  std::shared_ptr<const IngestTap> tap;
  {
    const std::lock_guard<std::mutex> tap_lock(tap_mutex_);
    tap = tap_;
  }
  if (tap) (*tap)(index, columns);
}

void StreamEngine::set_tap(IngestTap tap) {
  auto next = tap ? std::make_shared<const IngestTap>(std::move(tap))
                  : std::shared_ptr<const IngestTap>();
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
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
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
  // serialise against the retired_ fold below. The Node shell survives so
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
  retired_.samples += n.stream->samples_seen();
  retired_.signatures += n.stream->signatures_emitted();
  retired_.retrains += n.stream->retrain_count();
  retired_.retrain_aborts += n.stream->retrain_aborts();
  retired_.drift_windows += n.stream->drift_windows();
  retired_.drift_flags += n.stream->drift_flags();
  retired_.drift_retrains += n.stream->drift_retrains();
  retired_.dropped += n.dropped;
  retired_.latency_us.merge(n.latency_us);
  retired_.retrain_latency_us.merge(n.stream->retrain_latency_us());
  n.stream.reset();  // Frees the ring history; the tombstone stays.
  std::vector<std::vector<double>> remaining(
      std::make_move_iterator(n.queue.begin()),
      std::make_move_iterator(n.queue.end()));
  n.queue.clear();
  n.queue.shrink_to_fit();
  return remaining;
}

void StreamEngine::ingest(std::size_t node, const common::Matrix& columns) {
  Node& n = node_at(node);
  std::lock_guard node_lock(n.mutex);
  ingest_locked(node, n, columns);
}

void StreamEngine::ingest_batch(std::span<const common::Matrix> batches) {
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
  s.samples = retired_.samples;
  s.signatures = retired_.signatures;
  s.retrains = retired_.retrains;
  s.retrain_aborts = retired_.retrain_aborts;
  s.drift_windows = retired_.drift_windows;
  s.drift_flags = retired_.drift_flags;
  s.drift_retrains = retired_.drift_retrains;
  s.dropped = retired_.dropped;
  s.ingest_latency_us.merge(retired_.latency_us);
  s.retrain_latency_us.merge(retired_.retrain_latency_us);
  for (const auto& n : nodes_) {
    std::lock_guard node_lock(n->mutex);
    if (!n->stream.has_value()) continue;
    ++s.nodes;
    s.samples += n->stream->samples_seen();
    s.signatures += n->stream->signatures_emitted();
    s.retrains += n->stream->retrain_count();
    s.retrain_aborts += n->stream->retrain_aborts();
    s.drift_windows += n->stream->drift_windows();
    s.drift_flags += n->stream->drift_flags();
    s.drift_retrains += n->stream->drift_retrains();
    s.dropped += n->dropped;
    s.ingest_latency_us.merge(n->latency_us);
    s.retrain_latency_us.merge(n->stream->retrain_latency_us());
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
    NodeStats row;
    row.name = n->name;
    row.samples = n->stream->samples_seen();
    row.signatures = n->stream->signatures_emitted();
    row.retrains = n->stream->retrain_count();
    row.retrain_aborts = n->stream->retrain_aborts();
    row.drift_windows = n->stream->drift_windows();
    row.drift_flags = n->stream->drift_flags();
    row.drift_retrains = n->stream->drift_retrains();
    row.dropped = n->dropped;
    row.ingest_latency_us = n->latency_us;
    row.retrain_latency_us = n->stream->retrain_latency_us();
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace csm::core
