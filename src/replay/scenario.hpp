// Adversarial streaming scenarios: deterministic seeded fault injection.
//
// A production fleet never feeds the engine the clean correlated segments
// hpcoda generates: sensors die, samplers hiccup, workloads change regime
// mid-stream and faults cascade across neighbouring sensors. A Scenario is
// a composition of such fault injectors, applied as a transform over any
// sample source (generator output or a CSMR recording) BEFORE ingestion —
// the engine under test sees only the mutated stream.
//
// Scenarios are configured by spec string, one injector per '+'-separated
// chunk in MethodSpec grammar (`name[:key=value,...]`), e.g.
//
//   "dropout:p=0.02,len=25+drift:at=2000,mix=0.5"
//
// Injectors (see Scenario::grammar() for the full parameter list):
//
//   dropout   sensors rail at their last value for whole epochs
//   nan       sensors report NaN for whole epochs (sampler gaps)
//   skew      the node's clock slips: every Nth column re-delivers the
//             previous one (a duplicated/dropped sample)
//   drift     mid-stream regime change: from sample `at` on, each sensor is
//             re-mixed with a seeded partner sensor and re-scaled, which
//             shifts both levels and the correlation structure
//   cascade   correlated fault bursts: a contiguous seeded sensor block
//             spikes together and decays over the epoch
//
// Every random decision derives from (seed, injector index, node, epoch,
// sensor) through a counter-based hash, so a scenario is a deterministic
// function of the seed and each node's sample index: the same seed produces
// the same mutated stream regardless of how the feed is chunked into
// batches (the determinism tests pin exactly this). Injectors that need
// memory (dropout holds, skew's previous column) keep per-node state inside
// the Scenario, so apply() is stateful and NOT thread-safe — drive each
// Scenario from one thread (the CLI feeds nodes sequentially).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/matrix_view.hpp"

namespace csm::replay {

/// One parsed fault injector (see the header comment for semantics).
struct Injector {
  enum class Kind { kDropout, kNan, kSkew, kDrift, kCascade };

  Kind kind = Kind::kDropout;
  double p = 0.0;         ///< dropout/nan: per-epoch per-sensor probability;
                          ///< cascade: per-epoch per-node burst probability.
  std::size_t len = 0;    ///< dropout/nan/cascade: epoch length in samples.
  std::size_t every = 0;  ///< skew: slip period in samples.
  std::size_t at = 0;     ///< drift: first drifted sample index.
  double mix = 0.0;       ///< drift: partner blend weight in [0, 1].
  double gain = 1.0;      ///< drift: post-mix scale factor.
  std::size_t span = 0;   ///< cascade: sensors per burst.
  double mag = 0.0;       ///< cascade: relative spike magnitude.
};

/// A seeded composition of fault injectors over per-node sample streams.
class Scenario {
 public:
  /// Empty scenario: apply() is the identity, to_string() is "".
  Scenario() = default;

  /// Parses a '+'-separated injector spec. Throws std::invalid_argument on
  /// unknown injector names, unknown or out-of-range parameters, or an
  /// empty spec. `seed` drives every random decision.
  static Scenario parse(std::string_view spec, std::uint64_t seed = 0);

  /// Canonical round-trippable form: every parameter printed explicitly, in
  /// fixed order (parse(to_string()) is a fixpoint).
  std::string to_string() const;

  /// Human-readable injector grammar for CLI listings and docs.
  static std::string grammar();

  bool empty() const noexcept { return injectors_.empty(); }
  std::uint64_t seed() const noexcept { return seed_; }
  const std::vector<Injector>& injectors() const noexcept {
    return injectors_;
  }

  /// Mutates `columns` (n_sensors x n_cols) in place, one contiguous column
  /// at a time, as the samples [start, start + n_cols) of `node`'s stream.
  /// Feeding a node non-contiguously (start != previous start + previous
  /// n_cols) resets that node's injector memory, as if its stream
  /// restarted.
  void apply(std::size_t node, std::uint64_t start,
             common::ColumnBatch& columns);

  /// Drops all per-node injector memory (every stream restarts at its next
  /// apply()).
  void reset();

 private:
  /// Per-injector, per-node memory.
  struct State {
    std::vector<double> hold;               ///< dropout: railed values.
    std::vector<std::uint64_t> hold_epoch;  ///< epoch+1 a hold belongs to.
    std::vector<double> prev;               ///< skew: previous column.
    bool has_prev = false;
    std::vector<std::size_t> perm;          ///< drift: partner permutation.
  };

  void apply_one(std::size_t k, std::size_t node, std::uint64_t t,
                 std::span<double> col, std::vector<double>& scratch);
  State& state(std::size_t k, std::size_t node);

  std::uint64_t seed_ = 0;
  std::vector<Injector> injectors_;
  std::vector<std::vector<State>> state_;      ///< [injector][node].
  std::vector<std::uint64_t> next_start_;      ///< Per-node stream cursor.
};

}  // namespace csm::replay
