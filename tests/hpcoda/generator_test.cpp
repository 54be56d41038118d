#include "hpcoda/generator.hpp"
#include "hpcoda/types.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace csm::hpcoda {
namespace {

GeneratorConfig small() {
  GeneratorConfig cfg;
  cfg.scale = 0.35;  // Keep the test fast.
  return cfg;
}

void check_common_invariants(const Segment& seg) {
  ASSERT_FALSE(seg.blocks.empty());
  const std::size_t t = seg.length();
  ASSERT_GT(t, 0u);
  for (const ComponentBlock& block : seg.blocks) {
    EXPECT_EQ(block.sensors.cols(), t) << block.name;
    EXPECT_EQ(block.sensor_names.size(), block.sensors.rows());
    if (seg.task == data::TaskKind::kRegression) {
      EXPECT_EQ(block.target.size(), t);
    } else {
      EXPECT_TRUE(block.target.empty());
    }
  }
  // Runs tile the timeline without gaps or overlap.
  std::size_t cursor = 0;
  for (const RunInfo& run : seg.runs) {
    EXPECT_EQ(run.begin, cursor);
    EXPECT_LT(run.begin, run.end);
    cursor = run.end;
    if (seg.task == data::TaskKind::kClassification) {
      EXPECT_GE(run.label, 0);
      EXPECT_LT(static_cast<std::size_t>(run.label),
                seg.class_names.size());
    }
  }
  EXPECT_EQ(cursor, t);
  EXPECT_GT(seg.feature_set_count(), 0u);
}

TEST(FaultSegment, MatchesTableOne) {
  const Segment seg = make_fault_segment(small());
  EXPECT_EQ(seg.name, "Fault");
  EXPECT_EQ(seg.n_blocks(), 1u);
  EXPECT_EQ(seg.n_sensors_per_block(), 128u);
  EXPECT_EQ(seg.window.length, 60u);
  EXPECT_EQ(seg.window.step, 10u);
  EXPECT_EQ(seg.interval_ms, 1000);
  EXPECT_EQ(seg.class_names.size(), 9u);  // healthy + 8 faults.
  check_common_invariants(seg);
}

TEST(FaultSegment, AllClassesPresent) {
  const Segment seg = make_fault_segment(small());
  std::set<int> labels;
  for (const RunInfo& run : seg.runs) labels.insert(run.label);
  EXPECT_EQ(labels.size(), 9u);
}

TEST(ApplicationSegment, MatchesTableOne) {
  const Segment seg = make_application_segment(small());
  EXPECT_EQ(seg.name, "Application");
  EXPECT_EQ(seg.n_blocks(), 16u);
  EXPECT_EQ(seg.n_sensors_per_block(), 52u);
  EXPECT_EQ(seg.window.length, 30u);
  EXPECT_EQ(seg.window.step, 5u);
  EXPECT_EQ(seg.class_names.size(), 7u);  // 6 apps + idle.
  check_common_invariants(seg);
}

TEST(ApplicationSegment, EveryAppAndIdleScheduled) {
  const Segment seg = make_application_segment(small());
  std::set<int> labels;
  for (const RunInfo& run : seg.runs) labels.insert(run.label);
  EXPECT_EQ(labels.size(), 7u);
}

TEST(PowerSegment, MatchesTableOne) {
  const Segment seg = make_power_segment(small());
  EXPECT_EQ(seg.name, "Power");
  EXPECT_EQ(seg.task, data::TaskKind::kRegression);
  EXPECT_EQ(seg.n_blocks(), 1u);
  EXPECT_EQ(seg.n_sensors_per_block(), 47u);
  EXPECT_EQ(seg.window.length, 10u);
  EXPECT_EQ(seg.window.step, 5u);
  EXPECT_EQ(seg.target_horizon, 3u);
  EXPECT_EQ(seg.interval_ms, 100);
  check_common_invariants(seg);
}

TEST(PowerSegment, TargetIsPowerSensorRow) {
  const Segment seg = make_power_segment(small());
  const ComponentBlock& node = seg.blocks.front();
  for (std::size_t t = 0; t < 20; ++t) {
    EXPECT_DOUBLE_EQ(node.target[t], node.sensors(0, t));
  }
}

TEST(InfrastructureSegment, MatchesTableOne) {
  const Segment seg = make_infrastructure_segment(small());
  EXPECT_EQ(seg.name, "Infrastructure");
  EXPECT_EQ(seg.task, data::TaskKind::kRegression);
  EXPECT_EQ(seg.n_blocks(), 4u);
  EXPECT_EQ(seg.n_sensors_per_block(), 31u);
  EXPECT_EQ(seg.window.length, 30u);
  EXPECT_EQ(seg.window.step, 6u);
  EXPECT_EQ(seg.target_horizon, 30u);
  EXPECT_EQ(seg.interval_ms, 10'000);
  check_common_invariants(seg);
}

TEST(InfrastructureSegment, HeatTargetIsPositive) {
  const Segment seg = make_infrastructure_segment(small());
  for (const ComponentBlock& rack : seg.blocks) {
    double mean = 0.0;
    for (double v : rack.target) mean += v;
    mean /= static_cast<double>(rack.target.size());
    EXPECT_GT(mean, 0.0) << rack.name;
  }
}

TEST(CrossArchSegment, MatchesPaperSetup) {
  const Segment seg = make_cross_arch_segment(small());
  EXPECT_EQ(seg.name, "Cross-Architecture");
  ASSERT_EQ(seg.n_blocks(), 3u);
  EXPECT_EQ(seg.blocks[0].sensors.rows(), 52u);
  EXPECT_EQ(seg.blocks[1].sensors.rows(), 46u);
  EXPECT_EQ(seg.blocks[2].sensors.rows(), 39u);
  EXPECT_EQ(seg.class_names.size(), 6u);  // No idle class.
  // Blocks have heterogeneous sensor counts, so only shared-schedule
  // invariants apply.
  std::size_t cursor = 0;
  for (const RunInfo& run : seg.runs) {
    EXPECT_EQ(run.begin, cursor);
    cursor = run.end;
  }
  EXPECT_EQ(cursor, seg.length());
}

TEST(CrossArchSegment, BlocksAreNamedAfterTheirArchitecture) {
  const Segment seg = make_cross_arch_segment(small());
  ASSERT_EQ(seg.n_blocks(), 3u);
  const Architecture archs[] = {Architecture::kSkylake, Architecture::kKnl,
                                Architecture::kRome};
  EXPECT_EQ(architecture_name(archs[0]), "Skylake");
  EXPECT_EQ(architecture_name(archs[1]), "KnightsLanding");
  EXPECT_EQ(architecture_name(archs[2]), "Rome");
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(seg.blocks[b].name, architecture_name(archs[b]));
    EXPECT_EQ(seg.blocks[b].sensors.rows(),
              architecture_sensor_count(archs[b]));
    EXPECT_EQ(seg.blocks[b].sensor_names.size(),
              architecture_sensor_count(archs[b]));
  }
  EXPECT_THROW(architecture_name(static_cast<Architecture>(99)),
               std::invalid_argument);
}

TEST(Generator, DeterministicForSeed) {
  const Segment a = make_power_segment(small());
  const Segment b = make_power_segment(small());
  EXPECT_EQ(a.blocks.front().sensors, b.blocks.front().sensors);
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig cfg_a = small();
  GeneratorConfig cfg_b = small();
  cfg_b.seed = 9999;
  const Segment a = make_power_segment(cfg_a);
  const Segment b = make_power_segment(cfg_b);
  EXPECT_NE(a.blocks.front().sensors, b.blocks.front().sensors);
}

TEST(Generator, ScaleGrowsTimeline) {
  GeneratorConfig small_cfg = small();
  GeneratorConfig big_cfg = small();
  big_cfg.scale = 0.7;
  EXPECT_GT(make_fault_segment(big_cfg).length(),
            make_fault_segment(small_cfg).length());
}

TEST(Generator, NonPositiveScaleThrows) {
  GeneratorConfig bad;
  bad.scale = 0.0;
  EXPECT_THROW(make_fault_segment(bad), std::invalid_argument);
}

TEST(Generator, PrimarySegmentsInPaperOrder) {
  const auto segments = make_primary_segments(small());
  ASSERT_EQ(segments.size(), 4u);
  EXPECT_EQ(segments[0].name, "Fault");
  EXPECT_EQ(segments[1].name, "Application");
  EXPECT_EQ(segments[2].name, "Power");
  EXPECT_EQ(segments[3].name, "Infrastructure");
}

TEST(Segment, DataPointsAccumulatesAllBlocks) {
  const Segment seg = make_infrastructure_segment(small());
  EXPECT_EQ(seg.data_points(),
            4u * 31u * seg.length());
}

}  // namespace
}  // namespace csm::hpcoda
