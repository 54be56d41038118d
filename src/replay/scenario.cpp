#include "replay/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/method_registry.hpp"

#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
#include <charconv>
#define CSM_SCENARIO_FP_CHARCONV 1
#else
#include <cstdio>
#include <cstdlib>
#define CSM_SCENARIO_FP_CHARCONV 0
#endif

namespace csm::replay {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("Scenario: " + what);
}

// Counter-based hash: every random decision is a pure function of the seed
// and its coordinates, so the mutated stream is independent of batching.
// splitmix64 finalizer per fold — the same mixer common::Rng seeds with.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h += 0x9e3779b97f4a7c15ULL + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// Uniform double in [0, 1) from a hashed coordinate tuple.
double chance(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Spec doubles are a transport format: parse and print locale-blind
// (<charconv> where available, the C-locale fallbacks elsewhere — the same
// split the model codec uses).
double parse_param(std::string_view injector, std::string_view key,
                   const std::string& text) {
  if (text.empty()) {
    fail(std::string(injector) + ": parameter \"" + std::string(key) +
         "\" needs a value");
  }
  double v = 0.0;
#if CSM_SCENARIO_FP_CHARCONV
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  const bool ok = ec == std::errc() && ptr == end;
#else
  char* end = nullptr;
  v = std::strtod(text.c_str(), &end);
  const bool ok = end == text.c_str() + text.size();
#endif
  if (!ok || !std::isfinite(v)) {
    fail(std::string(injector) + ": parameter \"" + std::string(key) +
         "\" is not a finite number (got \"" + text + "\")");
  }
  return v;
}

std::string format_param(double v) {
  std::string out(40, '\0');
#if CSM_SCENARIO_FP_CHARCONV
  const auto [ptr, ec] = std::to_chars(out.data(), out.data() + out.size(), v);
  out.resize(static_cast<std::size_t>(ptr - out.data()));
#else
  const int n = std::snprintf(out.data(), out.size(), "%.17g", v);
  out.resize(static_cast<std::size_t>(n));
#endif
  return out;
}

double probability(std::string_view injector, const core::MethodSpec& spec,
                   std::string_view key, double fallback) {
  if (!spec.has(key)) return fallback;
  const double v = parse_param(injector, key, spec.get(key));
  if (v < 0.0 || v > 1.0) {
    fail(std::string(injector) + ": parameter \"" + std::string(key) +
         "\" must be in [0, 1]");
  }
  return v;
}

}  // namespace

Scenario Scenario::parse(std::string_view spec, std::uint64_t seed) {
  if (spec.empty()) {
    fail("empty spec (omit the scenario instead)");
  }
  Scenario out;
  out.seed_ = seed;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find('+', begin);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view chunk = spec.substr(begin, end - begin);
    begin = end + 1;
    // MethodSpec supplies the house `name:key=value,...` grammar (lowering,
    // duplicate-key rejection); the injector table interprets the values.
    const core::MethodSpec parsed = core::MethodSpec::parse(chunk);
    Injector inj;
    if (parsed.name == "dropout" || parsed.name == "nan") {
      parsed.expect_only({"p", "len"});
      inj.kind = parsed.name == "dropout" ? Injector::Kind::kDropout
                                          : Injector::Kind::kNan;
      inj.p = probability(parsed.name, parsed, "p", 0.01);
      inj.len = parsed.get_size_t("len", 25);
      if (inj.len == 0) fail(parsed.name + ": len must be >= 1");
    } else if (parsed.name == "skew") {
      parsed.expect_only({"every"});
      inj.kind = Injector::Kind::kSkew;
      inj.every = parsed.get_size_t("every", 250);
      if (inj.every < 2) fail("skew: every must be >= 2");
    } else if (parsed.name == "drift") {
      parsed.expect_only({"at", "mix", "gain"});
      inj.kind = Injector::Kind::kDrift;
      inj.at = parsed.get_size_t("at", 0);
      inj.mix = probability(parsed.name, parsed, "mix", 0.5);
      inj.gain =
          parsed.has("gain") ? parse_param("drift", "gain", parsed.get("gain"))
                             : 1.25;
      if (inj.gain <= 0.0) fail("drift: gain must be positive");
    } else if (parsed.name == "cascade") {
      parsed.expect_only({"p", "len", "span", "mag"});
      inj.kind = Injector::Kind::kCascade;
      inj.p = probability(parsed.name, parsed, "p", 0.05);
      inj.len = parsed.get_size_t("len", 50);
      inj.span = parsed.get_size_t("span", 8);
      inj.mag = parsed.has("mag")
                    ? parse_param("cascade", "mag", parsed.get("mag"))
                    : 2.0;
      if (inj.len == 0) fail("cascade: len must be >= 1");
      if (inj.span == 0) fail("cascade: span must be >= 1");
      if (inj.mag < 0.0) fail("cascade: mag must be >= 0");
    } else {
      fail("unknown injector \"" + parsed.name +
           "\" (known: dropout, nan, skew, drift, cascade)");
    }
    out.injectors_.push_back(inj);
  }
  out.state_.resize(out.injectors_.size());
  return out;
}

std::string Scenario::to_string() const {
  std::string out;
  for (const Injector& inj : injectors_) {
    if (!out.empty()) out += '+';
    switch (inj.kind) {
      case Injector::Kind::kDropout:
      case Injector::Kind::kNan:
        out += inj.kind == Injector::Kind::kDropout ? "dropout" : "nan";
        out += ":p=" + format_param(inj.p);
        out += ",len=" + std::to_string(inj.len);
        break;
      case Injector::Kind::kSkew:
        out += "skew:every=" + std::to_string(inj.every);
        break;
      case Injector::Kind::kDrift:
        out += "drift:at=" + std::to_string(inj.at);
        out += ",mix=" + format_param(inj.mix);
        out += ",gain=" + format_param(inj.gain);
        break;
      case Injector::Kind::kCascade:
        out += "cascade:p=" + format_param(inj.p);
        out += ",len=" + std::to_string(inj.len);
        out += ",span=" + std::to_string(inj.span);
        out += ",mag=" + format_param(inj.mag);
        break;
    }
  }
  return out;
}

std::string Scenario::grammar() {
  return "dropout:p=P,len=N   sensors rail at their held value for N-sample\n"
         "                    epochs, each epoch/sensor dropped with prob P\n"
         "nan:p=P,len=N       like dropout, but the sensor reports NaN\n"
         "skew:every=N        clock slip: every Nth column re-delivers the\n"
         "                    previous one\n"
         "drift:at=T,mix=M,gain=G\n"
         "                    from sample T on, each sensor is blended with a\n"
         "                    seeded partner (weight M) and scaled by G —\n"
         "                    a mid-stream regime change\n"
         "cascade:p=P,len=N,span=S,mag=X\n"
         "                    with prob P per N-sample epoch, S contiguous\n"
         "                    sensors spike together by factor (1 + X),\n"
         "                    decaying over the epoch\n"
         "Injectors compose with '+', e.g. \"dropout:p=0.02+drift:at=2000\".";
}

Scenario::State& Scenario::state(std::size_t k, std::size_t node) {
  if (state_[k].size() <= node) state_[k].resize(node + 1);
  return state_[k][node];
}

void Scenario::reset() {
  for (auto& per_injector : state_) per_injector.clear();
  next_start_.clear();
}

void Scenario::apply(std::size_t node, std::uint64_t start,
                     common::ColumnBatch& columns) {
  if (injectors_.empty() || columns.cols() == 0) return;
  if (next_start_.size() <= node) next_start_.resize(node + 1, 0);
  if (start != next_start_[node]) {
    // Non-contiguous feed: this node's stream restarted — drop its memory.
    for (std::size_t k = 0; k < injectors_.size(); ++k) {
      if (state_[k].size() > node) state_[k][node] = State{};
    }
  }
  next_start_[node] = start + columns.cols();

  std::vector<double> scratch(columns.rows());
  for (std::size_t c = 0; c < columns.cols(); ++c) {
    const std::uint64_t t = start + c;
    for (std::size_t k = 0; k < injectors_.size(); ++k) {
      apply_one(k, node, t, columns.col(c), scratch);
    }
  }
}

void Scenario::apply_one(std::size_t k, std::size_t node, std::uint64_t t,
                         std::span<double> col,
                         std::vector<double>& scratch) {
  const Injector& inj = injectors_[k];
  const std::size_t n = col.size();
  const std::uint64_t base = mix(mix(seed_, k), node);
  switch (inj.kind) {
    case Injector::Kind::kDropout: {
      State& st = state(k, node);
      if (st.hold.size() < n) {
        st.hold.resize(n, 0.0);
        st.hold_epoch.resize(n, 0);
      }
      const std::uint64_t epoch = t / inj.len;
      for (std::size_t s = 0; s < n; ++s) {
        if (chance(mix(mix(base, epoch), s)) >= inj.p) continue;
        if (st.hold_epoch[s] != epoch + 1) {
          // First dropped column of this epoch we have seen: the sensor
          // rails at the value it was about to report.
          st.hold[s] = col[s];
          st.hold_epoch[s] = epoch + 1;
        }
        col[s] = st.hold[s];
      }
      break;
    }
    case Injector::Kind::kNan: {
      const std::uint64_t epoch = t / inj.len;
      for (std::size_t s = 0; s < n; ++s) {
        if (chance(mix(mix(base, epoch), s)) < inj.p) {
          col[s] = std::numeric_limits<double>::quiet_NaN();
        }
      }
      break;
    }
    case Injector::Kind::kSkew: {
      State& st = state(k, node);
      if (t > 0 && t % inj.every == 0 && st.has_prev &&
          st.prev.size() == n) {
        std::copy(st.prev.begin(), st.prev.end(), col.begin());
      }
      st.prev.assign(col.begin(), col.end());
      st.has_prev = true;
      break;
    }
    case Injector::Kind::kDrift: {
      if (t < inj.at) break;
      State& st = state(k, node);
      if (st.perm.size() != n) {
        // Seeded partner permutation, fixed per node for the whole run.
        common::Rng rng(mix(base, 0x64726966 /* 'drif' */));
        st.perm = rng.permutation(n);
      }
      std::copy(col.begin(), col.end(), scratch.begin());
      for (std::size_t s = 0; s < n; ++s) {
        col[s] = inj.gain *
                 ((1.0 - inj.mix) * scratch[s] + inj.mix * scratch[st.perm[s]]);
      }
      break;
    }
    case Injector::Kind::kCascade: {
      const std::uint64_t epoch = t / inj.len;
      const std::uint64_t h = mix(base, epoch);
      if (chance(h) >= inj.p) break;
      const std::size_t offset =
          static_cast<std::size_t>(mix(h, 1) % static_cast<std::uint64_t>(n));
      const std::size_t pos = static_cast<std::size_t>(t % inj.len);
      const double decay =
          std::exp(-3.0 * static_cast<double>(pos) /
                   static_cast<double>(inj.len));
      const double factor = 1.0 + inj.mag * decay;
      for (std::size_t i = 0; i < inj.span && i < n; ++i) {
        col[(offset + i) % n] *= factor;
      }
      break;
    }
  }
}

}  // namespace csm::replay
