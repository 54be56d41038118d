#include "replay/engine_recorder.hpp"

#include <string>
#include <utility>

namespace csm::replay {

EngineRecorder::EngineRecorder(std::filesystem::path file)
    : recorder_(std::move(file)) {}

void EngineRecorder::on_node_add(std::size_t engine_index,
                                 std::string_view id,
                                 std::uint32_t n_sensors) {
  // Declare the node first: add_node validates the id and sensor count and
  // may throw, in which case the map must stay untouched.
  const std::uint32_t table_index = recorder_.add_node(id, n_sensors);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (map_.size() <= engine_index) map_.resize(engine_index + 1, kUnmapped);
  if (map_[engine_index] != kUnmapped) {
    throw RecordingError("Recording: engine index " +
                         std::to_string(engine_index) +
                         " registered twice (\"" + std::string(id) + "\")");
  }
  map_[engine_index] = table_index;
}

void EngineRecorder::tap(std::size_t engine_index,
                         const common::MatrixView& columns) {
  std::uint32_t table_index = kUnmapped;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (engine_index < map_.size()) table_index = map_[engine_index];
  }
  if (table_index == kUnmapped) {
    throw RecordingError("Recording: batch for unregistered engine index " +
                         std::to_string(engine_index) +
                         " (node added without on_node_add?)");
  }
  recorder_.record(table_index, columns);
}

void EngineRecorder::finish() { recorder_.finish(); }

}  // namespace csm::replay
