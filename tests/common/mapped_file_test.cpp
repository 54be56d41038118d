#include "common/mapped_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace csm::common {
namespace {

std::filesystem::path write_file(const std::string& name,
                                 const std::string& content) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::ofstream(path, std::ios::binary) << content;
  return path;
}

std::string text(const MappedFile& f) {
  return {reinterpret_cast<const char*>(f.data()), f.size()};
}

TEST(MappedFile, MapsAWholeFile) {
  const auto path = write_file("csm_mapped_file_test.bin", "CSMR bytes");
  const MappedFile f = MappedFile::open(path);
  EXPECT_EQ(text(f), "CSMR bytes");
  std::filesystem::remove(path);
}

TEST(MappedFile, EmptyFileHasNoBytes) {
  const auto path = write_file("csm_mapped_file_empty.bin", "");
  const MappedFile f = MappedFile::open(path);
  EXPECT_EQ(f.size(), 0u);
  std::filesystem::remove(path);
}

TEST(MappedFile, MissingFileThrowsNamingIt) {
  const auto path =
      std::filesystem::temp_directory_path() / "csm_mapped_file_missing.bin";
  std::filesystem::remove(path);
  try {
    (void)MappedFile::open(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open " + path.string());
  }
}

TEST(MappedFile, MovesKeepTheBytesInPlace) {
  const auto path = write_file("csm_mapped_file_move.bin", "mapped");
  MappedFile a = MappedFile::open(path);
  const std::uint8_t* mapped = a.data();
  MappedFile b = std::move(a);
  EXPECT_EQ(b.data(), mapped);
  EXPECT_EQ(text(b), "mapped");
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)

  MappedFile owned(std::vector<std::uint8_t>{'o', 'w', 'n'});
  const std::uint8_t* image = owned.data();
  b = std::move(owned);  // Unmaps the file.
  EXPECT_EQ(b.data(), image);
  EXPECT_EQ(text(b), "own");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace csm::common
