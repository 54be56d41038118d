#include "replay/recording.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/stream_engine.hpp"
#include "replay/engine_recorder.hpp"

namespace csm::replay {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory: gtest_discover_tests runs TESTs of one
// binary as separate (possibly concurrent) ctest entries, so paths must not
// be shared across tests.
fs::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::temp_directory_path() / "csm_recording_test" /
                       (std::string(info->test_suite_name()) + "_" +
                        info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

common::Matrix numbered_matrix(std::size_t n, std::size_t t, double base) {
  common::Matrix m(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      m(r, c) = base + static_cast<double>(r * 100 + c);
    }
  }
  return m;
}

std::vector<std::uint8_t> file_bytes(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Recorder, InMemoryRoundTrip) {
  Recorder rec;
  const std::uint32_t a = rec.add_node("alpha", 3);
  const std::uint32_t b = rec.add_node("beta", 2);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  const common::Matrix batch_a0 = numbered_matrix(3, 4, 0.5);
  const common::Matrix batch_b0 = numbered_matrix(2, 7, -3.0);
  const common::Matrix batch_a1 = numbered_matrix(3, 2, 9.0);
  rec.record(a, batch_a0);
  rec.record(b, batch_b0);
  rec.record(a, batch_a1);
  rec.finish();

  ReplayReader reader = ReplayReader::open_bytes(rec.bytes());
  ASSERT_EQ(reader.n_nodes(), 2u);
  EXPECT_EQ(reader.node(0).id, "alpha");
  EXPECT_EQ(reader.node(0).n_sensors, 3u);
  EXPECT_EQ(reader.node(1).id, "beta");
  EXPECT_EQ(reader.node(1).n_sensors, 2u);
  ASSERT_EQ(reader.batch_count(), 3u);

  auto first = reader.next();
  ASSERT_TRUE(first);
  EXPECT_EQ(first->node, a);
  EXPECT_EQ(first->timestamp, 0u);  // Node-cumulative sample offsets.
  EXPECT_EQ(first->columns, batch_a0);
  auto second = reader.next();
  ASSERT_TRUE(second);
  EXPECT_EQ(second->node, b);
  EXPECT_EQ(second->timestamp, 0u);
  EXPECT_EQ(second->columns, batch_b0);
  auto third = reader.next();
  ASSERT_TRUE(third);
  EXPECT_EQ(third->node, a);
  EXPECT_EQ(third->timestamp, 4u);  // After alpha's 4-column first batch.
  EXPECT_EQ(third->columns, batch_a1);
  EXPECT_FALSE(reader.next());
  EXPECT_FALSE(reader.next());  // Stays exhausted.
}

TEST(Recorder, FileBackedMatchesInMemory) {
  const fs::path file = test_dir() / "run.csmr";
  Recorder mem;
  Recorder disk(file);
  for (Recorder* rec : {&mem, &disk}) {
    const std::uint32_t n = rec->add_node("node", 2);
    rec->record(n, numbered_matrix(2, 5, 1.0));
    rec->finish();
  }
  EXPECT_EQ(file_bytes(file), mem.bytes());

  ReplayReader reader = ReplayReader::open(file);
  EXPECT_EQ(reader.n_nodes(), 1u);
  EXPECT_EQ(reader.batch_count(), 1u);
  EXPECT_NO_THROW(reader.verify());
}

TEST(Recorder, ExplicitTimestampKeepsCumulativeCursor) {
  // An explicit timestamp rebases the node's cursor: the next
  // default-timestamp batch follows it contiguously (7777 + 3 columns),
  // so replayed streams stay monotone after a jump.
  Recorder rec;
  const std::uint32_t n = rec.add_node("n", 1);
  rec.record(n, numbered_matrix(1, 3, 0.0), 7777);
  rec.record(n, numbered_matrix(1, 2, 0.0));  // Default: cumulative offset.
  rec.finish();
  ReplayReader reader = ReplayReader::open_bytes(rec.bytes());
  EXPECT_EQ(reader.next()->timestamp, 7777u);
  EXPECT_EQ(reader.next()->timestamp, 7780u);
}

TEST(Recorder, DropsEmptyBatches) {
  Recorder rec;
  const std::uint32_t n = rec.add_node("n", 4);
  rec.record(n, common::Matrix(4, 0));
  rec.finish();
  EXPECT_EQ(rec.batch_count(), 0u);
  ReplayReader reader = ReplayReader::open_bytes(rec.bytes());
  EXPECT_EQ(reader.batch_count(), 0u);
  EXPECT_FALSE(reader.next());
}

TEST(Recorder, RewindRestartsIteration) {
  Recorder rec;
  const std::uint32_t n = rec.add_node("n", 2);
  rec.record(n, numbered_matrix(2, 3, 0.0));
  rec.record(n, numbered_matrix(2, 4, 5.0));
  rec.finish();
  ReplayReader reader = ReplayReader::open_bytes(rec.bytes());
  std::vector<RecordedBatch> first_pass;
  while (auto batch = reader.next()) first_pass.push_back(std::move(*batch));
  reader.rewind();
  std::vector<RecordedBatch> second_pass;
  while (auto batch = reader.next()) second_pass.push_back(std::move(*batch));
  ASSERT_EQ(first_pass.size(), 2u);
  ASSERT_EQ(second_pass.size(), 2u);
  for (std::size_t i = 0; i < first_pass.size(); ++i) {
    EXPECT_EQ(first_pass[i].node, second_pass[i].node);
    EXPECT_EQ(first_pass[i].timestamp, second_pass[i].timestamp);
    EXPECT_EQ(first_pass[i].columns, second_pass[i].columns);
  }
}

TEST(Recorder, ValidatesWriterMisuse) {
  Recorder rec;
  EXPECT_THROW(rec.add_node("", 2), RecordingError);
  EXPECT_THROW(rec.add_node(std::string(kMaxNodeIdBytes + 1, 'x'), 2),
               RecordingError);
  const std::uint32_t n = rec.add_node("n", 2);
  EXPECT_THROW(rec.record(n + 1, numbered_matrix(2, 2, 0.0)),
               RecordingError);
  EXPECT_THROW(rec.record(n, numbered_matrix(3, 2, 0.0)), RecordingError);
  rec.finish();
  EXPECT_THROW(rec.finish(), RecordingError);
  EXPECT_THROW(rec.record(n, numbered_matrix(2, 2, 0.0)), RecordingError);
  EXPECT_THROW(rec.add_node("late", 1), RecordingError);
}

std::vector<std::uint8_t> small_recording() {
  Recorder rec;
  const std::uint32_t n = rec.add_node("n", 2);
  rec.record(n, numbered_matrix(2, 3, 0.0));
  rec.finish();
  return rec.bytes();
}

TEST(ReplayReader, RejectsCorruptInputs) {
  const std::vector<std::uint8_t> good = small_recording();

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(ReplayReader::open_bytes(bad_magic), RecordingError);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = 9;
  EXPECT_THROW(ReplayReader::open_bytes(bad_version), RecordingError);

  // A header bitflip breaks the header CRC, caught at open.
  std::vector<std::uint8_t> header_flip = good;
  header_flip[16] ^= 0x01;  // batch_count low byte.
  EXPECT_THROW(ReplayReader::open_bytes(header_flip), RecordingError);

  EXPECT_THROW(ReplayReader::open_bytes(std::vector<std::uint8_t>(
                   good.begin(), good.begin() + 12)),
               RecordingError);

  // A payload bitflip passes open (the header is intact) and is caught by
  // the trailing CRC when the last batch is consumed.
  std::vector<std::uint8_t> payload_flip = good;
  payload_flip[kRecordingHeaderSize + 20] ^= 0x40;
  ReplayReader reader = ReplayReader::open_bytes(payload_flip);
  EXPECT_THROW(
      {
        while (reader.next()) {
        }
      },
      RecordingError);
}

TEST(ReplayReader, MissingFileThrows) {
  EXPECT_THROW(ReplayReader::open(test_dir() / "nope.csmr"), RecordingError);
}

TEST(EngineRecorder, CapturesEngineIngestExactly) {
  const fs::path file = test_dir() / "engine.csmr";
  core::StreamOptions opts;
  opts.window_length = 10;
  opts.window_step = 5;
  opts.history_length = 64;
  core::StreamEngine engine(opts);

  common::Rng rng(5);
  common::Matrix train_a(3, 80);
  common::Matrix train_b(2, 80);
  for (std::size_t c = 0; c < 80; ++c) {
    for (std::size_t r = 0; r < 3; ++r) train_a(r, c) = rng.gaussian();
    for (std::size_t r = 0; r < 2; ++r) train_b(r, c) = rng.gaussian();
  }

  EngineRecorder recorder(file);
  const core::CsSignatureMethod cs_all{core::CsOptions{}};
  const std::size_t a = engine.add_node("alpha", cs_all.fit(train_a));
  recorder.on_node_add(a, "alpha", 3);
  const std::size_t b = engine.add_node("beta", cs_all.fit(train_b));
  recorder.on_node_add(b, "beta", 2);
  engine.set_tap([&recorder](std::size_t node, const common::Matrix& cols) {
    recorder.tap(node, cols);
  });

  const common::Matrix batch_a = train_a.sub_cols(0, 12);
  const common::Matrix batch_b = train_b.sub_cols(4, 9);
  engine.ingest(a, batch_a);
  engine.ingest(b, batch_b);
  engine.set_tap(nullptr);
  recorder.finish();
  EXPECT_EQ(recorder.n_nodes(), 2u);
  EXPECT_EQ(recorder.batch_count(), 2u);

  ReplayReader reader = ReplayReader::open(file);
  EXPECT_EQ(reader.node(0).id, "alpha");
  EXPECT_EQ(reader.node(1).id, "beta");
  auto first = reader.next();
  ASSERT_TRUE(first);
  EXPECT_EQ(first->columns, batch_a);
  auto second = reader.next();
  ASSERT_TRUE(second);
  EXPECT_EQ(second->columns, batch_b);
}

TEST(EngineRecorder, RejectsUnregisteredAndDoubleRegistration) {
  const fs::path file = test_dir() / "engine.csmr";
  EngineRecorder recorder(file);
  recorder.on_node_add(0, "n", 2);
  EXPECT_THROW(recorder.on_node_add(0, "again", 2), RecordingError);
  EXPECT_THROW(recorder.tap(1, numbered_matrix(2, 2, 0.0)), RecordingError);
  recorder.tap(0, numbered_matrix(2, 2, 0.0));
  recorder.finish();
}

}  // namespace
}  // namespace csm::replay
