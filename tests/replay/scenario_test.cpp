#include "replay/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/matrix.hpp"
#include "common/matrix_view.hpp"
#include "common/rng.hpp"

namespace csm::replay {
namespace {

common::Matrix noise_matrix(std::size_t n, std::size_t t,
                            std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix m(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) m(r, c) = rng.gaussian();
  }
  return m;
}

// Runs `s` over a row-major matrix through the column-major batch that
// Scenario::apply mutates in place.
void apply(Scenario& s, std::size_t node, std::uint64_t start,
           common::Matrix& m) {
  common::ColumnBatch batch(m);
  s.apply(node, start, batch);
  m = common::MatrixView(batch).materialize();
}

// Element-wise equality that treats NaN == NaN as equal: the nan injector
// writes NaNs, and two identically-mutated streams must still compare equal.
bool same_stream(const common::Matrix& a, const common::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const bool both_nan = std::isnan(a(r, c)) && std::isnan(b(r, c));
      if (!both_nan && a(r, c) != b(r, c)) return false;
    }
  }
  return true;
}

TEST(ScenarioParse, CanonicalFormIsAFixpoint) {
  const char* specs[] = {
      "dropout",
      "nan:p=0.5",
      "skew:every=100",
      "drift:at=500,mix=0.25,gain=2",
      "cascade:p=0.1,len=10,span=4,mag=3",
      "dropout:p=0.02,len=25+drift:at=2000,mix=0.5+cascade",
  };
  for (const char* spec : specs) {
    const Scenario once = Scenario::parse(spec, 7);
    const std::string canon = once.to_string();
    const Scenario twice = Scenario::parse(canon, 7);
    EXPECT_EQ(twice.to_string(), canon) << spec;
    EXPECT_EQ(twice.injectors().size(), once.injectors().size()) << spec;
  }
}

TEST(ScenarioParse, RejectsBadSpecs) {
  EXPECT_THROW(Scenario::parse(""), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("unknown"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("dropout:bogus=1"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("dropout:p=2"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("dropout:p=-0.5"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("drift:mix=1.5"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("drift:gain=0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("skew:every=1"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("dropout+"), std::invalid_argument);
}

TEST(Scenario, EmptyScenarioIsIdentity) {
  Scenario identity;
  EXPECT_TRUE(identity.empty());
  EXPECT_EQ(identity.to_string(), "");
  common::Matrix data = noise_matrix(4, 50, 1);
  const common::Matrix original = data;
  apply(identity, 0, 0, data);
  EXPECT_EQ(data, original);
}

TEST(Scenario, SameSeedSameStreamIsDeterministic) {
  const char* spec =
      "dropout:p=0.1,len=10+nan:p=0.05,len=5+skew:every=30"
      "+drift:at=100,mix=0.5,gain=1.5+cascade:p=0.1,len=20,span=3,mag=2";
  Scenario a = Scenario::parse(spec, 42);
  Scenario b = Scenario::parse(spec, 42);
  common::Matrix data_a = noise_matrix(8, 300, 3);
  common::Matrix data_b = data_a;
  apply(a, 0, 0, data_a);
  apply(b, 0, 0, data_b);
  EXPECT_TRUE(same_stream(data_a, data_b));

  // A different seed must make different choices somewhere in 300 columns.
  Scenario c = Scenario::parse(spec, 43);
  common::Matrix data_c = noise_matrix(8, 300, 3);
  apply(c, 0, 0, data_c);
  EXPECT_FALSE(same_stream(data_c, data_a));
}

TEST(Scenario, BatchSizeInvariant) {
  // The same stream fed in one 240-column batch and in ragged chunks must
  // mutate identically: injector decisions key on the node's absolute
  // sample index, never on batch boundaries.
  const char* spec =
      "dropout:p=0.1,len=10+nan:p=0.05,len=5+skew:every=30"
      "+drift:at=100,mix=0.5,gain=1.5+cascade:p=0.1,len=20,span=3,mag=2";
  const common::Matrix source = noise_matrix(6, 240, 9);

  Scenario whole = Scenario::parse(spec, 11);
  common::Matrix one_shot = source;
  apply(whole, 0, 0, one_shot);

  Scenario chunked_scenario = Scenario::parse(spec, 11);
  common::Matrix chunked(6, 240);
  const std::size_t chunks[] = {1, 7, 32, 100, 60, 40};
  std::size_t at = 0;
  for (const std::size_t len : chunks) {
    common::Matrix piece = source.sub_cols(at, len);
    apply(chunked_scenario, 0, at, piece);
    for (std::size_t r = 0; r < 6; ++r) {
      for (std::size_t c = 0; c < len; ++c) {
        chunked(r, at + c) = piece(r, c);
      }
    }
    at += len;
  }
  ASSERT_EQ(at, 240u);
  EXPECT_TRUE(same_stream(chunked, one_shot));
}

TEST(Scenario, NodesAreIndependentStreams) {
  Scenario s = Scenario::parse("dropout:p=0.3,len=10", 5);
  common::Matrix node0 = noise_matrix(4, 100, 21);
  common::Matrix node1 = node0;
  apply(s, 0, 0, node0);
  apply(s, 1, 0, node1);
  // Same input, same seed, different node: different epoch draws.
  EXPECT_NE(node0, node1);
}

TEST(Scenario, DriftStartsAtOnsetOnly) {
  Scenario s = Scenario::parse("drift:at=50,mix=0.5,gain=2", 13);
  const common::Matrix source = noise_matrix(5, 100, 17);
  common::Matrix mutated = source;
  apply(s, 0, 0, mutated);
  for (std::size_t c = 0; c < 50; ++c) {
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(mutated(r, c), source(r, c)) << r << "," << c;
    }
  }
  bool changed = false;
  for (std::size_t c = 50; c < 100 && !changed; ++c) {
    for (std::size_t r = 0; r < 5; ++r) {
      changed = changed || mutated(r, c) != source(r, c);
    }
  }
  EXPECT_TRUE(changed);
}

TEST(Scenario, NanInjectorWritesNaNs) {
  Scenario s = Scenario::parse("nan:p=1,len=10", 3);
  common::Matrix data = noise_matrix(3, 40, 23);
  apply(s, 0, 0, data);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 40; ++c) {
      EXPECT_TRUE(std::isnan(data(r, c))) << r << "," << c;
    }
  }
}

TEST(Scenario, DropoutRailsAtPreviousValue) {
  Scenario s = Scenario::parse("dropout:p=1,len=8", 3);
  common::Matrix data = noise_matrix(2, 32, 29);
  apply(s, 0, 0, data);
  // With p=1 every epoch holds: within each 8-sample epoch after the
  // first, every sensor repeats one railed value.
  for (std::size_t epoch = 1; epoch < 4; ++epoch) {
    for (std::size_t r = 0; r < 2; ++r) {
      const double held = data(r, epoch * 8);
      for (std::size_t c = epoch * 8; c < (epoch + 1) * 8; ++c) {
        EXPECT_EQ(data(r, c), held) << r << "," << c;
      }
    }
  }
}

TEST(Scenario, NonContiguousFeedResetsNodeState) {
  // Feeding a node non-contiguously restarts its stream: the injector
  // memory (railed holds) must not leak across the gap. Determinism is the
  // testable part — a restarted stream equals a fresh scenario fed the
  // same columns at the same offsets.
  Scenario s = Scenario::parse("dropout:p=0.5,len=10", 31);
  const common::Matrix source = noise_matrix(4, 60, 37);

  common::Matrix head = source.sub_cols(0, 30);
  apply(s, 0, 0, head);
  common::Matrix restarted = source.sub_cols(0, 30);
  apply(s, 0, 0, restarted);  // start 0 again: non-contiguous, state reset.
  EXPECT_EQ(restarted, head);

  s.reset();
  common::Matrix after_reset = source.sub_cols(0, 30);
  apply(s, 0, 0, after_reset);
  EXPECT_EQ(after_reset, head);
}

TEST(Scenario, GrammarMentionsEveryInjector) {
  const std::string grammar = Scenario::grammar();
  for (const char* name : {"dropout", "nan", "skew", "drift", "cascade"}) {
    EXPECT_NE(grammar.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace csm::replay
