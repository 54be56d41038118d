// Read-only bytes of a whole file: the one file reader behind the mmap-able
// formats (core::ModelPack, replay::ReplayReader). It maps the file where
// the platform has mmap and reads it whole elsewhere, or owns an in-memory
// image (fuzzing, a pack received over a transport). Move-only; moves keep
// the bytes at their address, so a reader may point into them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

namespace csm::common {

class MappedFile {
 public:
  MappedFile() = default;  ///< No bytes.

  /// Owns an in-memory image.
  explicit MappedFile(std::vector<std::uint8_t> bytes) noexcept
      : bytes_(std::move(bytes)) {}

  /// Maps `file` read-only. Throws std::runtime_error "cannot open <file>",
  /// "cannot stat <file>" or "mmap failed for <file>"; readers rethrow it
  /// under their own name.
  static MappedFile open(const std::filesystem::path& file);

  const std::uint8_t* data() const noexcept {
    return mapped_ ? static_cast<const std::uint8_t*>(mapped_.get())
                   : bytes_.data();
  }
  std::size_t size() const noexcept {
    return mapped_ ? mapped_.get_deleter().size : bytes_.size();
  }

 private:
  /// Unmaps a mapped region of `size` bytes.
  struct Unmap {
    std::size_t size;  // No `= 0`: unique_ptr needs Unmap default-
                       // constructible while MappedFile is incomplete.
    void operator()(void* base) const noexcept;
  };

  std::vector<std::uint8_t> bytes_;      ///< Owned image; empty when mapped.
  std::unique_ptr<void, Unmap> mapped_;  ///< Mapped region, or null.
};

}  // namespace csm::common
