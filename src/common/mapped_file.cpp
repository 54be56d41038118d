#include "common/mapped_file.hpp"

#include <stdexcept>
#include <string>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <fstream>
#include <iterator>
#endif

namespace csm::common {

void MappedFile::Unmap::operator()(void* base) const noexcept {
#if !defined(_WIN32)
  ::munmap(base, size);
#else
  (void)base;  // Nothing is ever mapped without mmap.
#endif
}

MappedFile MappedFile::open(const std::filesystem::path& file) {
#if !defined(_WIN32)
  const int fd = ::open(file.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + file.string());
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat " + file.string());
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  // mmap refuses a zero length; an empty file maps to no bytes.
  void* base =
      size == 0 ? nullptr : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    throw std::runtime_error("mmap failed for " + file.string());
  }
  MappedFile out;
  out.mapped_ = std::unique_ptr<void, Unmap>(base, Unmap{size});
  return out;
#else
  std::ifstream in(file, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + file.string());
  return MappedFile(std::vector<std::uint8_t>(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()));
#endif
}

}  // namespace csm::common
