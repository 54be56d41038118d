// EngineRecorder: glue between a StreamEngine ingest tap and a Recorder.
//
// The engine's tap hands over (engine node index, batch); a CSMR recording
// wants (recorder table index, batch) with every node declared by id. This
// class owns that translation: register each engine node as it is added
// (directly after StreamEngine::add_node, or from FleetServerOptions::
// on_node_add when the adds arrive over the wire), then install tap() as
// the engine's ingest tap. Batches for engine indices that were never
// registered throw RecordingError — a capture that silently dropped nodes
// would replay as a different run.
//
// Thread-safe: tap() may fire concurrently from parallel ingest (the index
// map has its own mutex; the Recorder serialises batches internally).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/matrix_view.hpp"
#include "replay/recording.hpp"

namespace csm::replay {

class EngineRecorder {
 public:
  /// File-backed capture; truncates `file`. Throws RecordingError when the
  /// file cannot be opened.
  explicit EngineRecorder(std::filesystem::path file);

  /// Declares the node behind `engine_index`. Call once per add_node, in
  /// any index order; re-registering a live index throws RecordingError.
  void on_node_add(std::size_t engine_index, std::string_view id,
                   std::uint32_t n_sensors);

  /// The ingest tap body: records `columns` against the node registered
  /// for `engine_index`. Matches core::StreamEngine::IngestTap.
  void tap(std::size_t engine_index, const common::MatrixView& columns);

  /// Seals the recording (node table + trailing CRC). The engine's tap
  /// must be cleared (or the engine quiesced) first.
  void finish();

  std::size_t n_nodes() const { return recorder_.n_nodes(); }
  std::size_t batch_count() const { return recorder_.batch_count(); }

 private:
  static constexpr std::uint32_t kUnmapped = 0xFFFFFFFFu;

  Recorder recorder_;
  mutable std::mutex mutex_;              ///< Guards map_.
  std::vector<std::uint32_t> map_;        ///< Engine index -> table index.
};

}  // namespace csm::replay
