// csm_perfbench: one command for every workload of BENCHMARK.json.
//
//   csm_perfbench --workload daemon-fleet|engine-drift|offline-fig3
//                 --seed N --seconds S --trace 0|1
//
// Human-readable progress and the traced run's per-layer table go to
// stdout; the last stdout line is the JSON result. The exit code is 0 when
// every output check passed and no operation failed, 1 otherwise, 2 on a
// usage error or an exception.
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "hpcoda/generator.hpp"

namespace perfbench {

void Outcome::fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

CyclingInputs::CyclingInputs(std::uint64_t seed, std::uint64_t salt,
                             std::size_t nodes, std::size_t batch_cols)
    : batch_cols(batch_cols) {
  csm::hpcoda::GeneratorConfig config;
  config.seed = seed;
  app = csm::hpcoda::make_application_segment(config);
  cycle = app.length() - app.length() % batch_cols;
  csm::common::Rng rng(seed ^ salt);
  for (std::size_t i = 0; i < nodes; ++i) {
    offset.push_back(batch_cols * rng.uniform_int(cycle / batch_cols));
  }
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void RateWindows::add(double items, double seconds) {
  items_ += items;
  seconds_ += seconds;
  if (seconds_ >= window_s_) {
    rates_.push_back(items_ / seconds_);
    items_ = 0.0;
    seconds_ = 0.0;
  }
}

double RateWindows::median_rate() const {
  if (rates_.empty()) return seconds_ > 0.0 ? items_ / seconds_ : 0.0;
  return median(rates_);
}

void print_windows(const char* workload, const RateWindows& rate) {
  std::printf("%s: samples/s per %zu-window:", workload, rate.rates().size());
  for (const double r : rate.rates()) std::printf(" %.0f", r);
  std::printf(" -> median %.0f\n", rate.median_rate());
}

void LoopPhase::print_latency() const {
  std::printf("rounds: %zu, latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms "
              "(%zu samples; closed loop, so not gated)\n",
              round_s.size(), 1e3 * quantile(round_s, 0.5),
              1e3 * quantile(round_s, 0.9), 1e3 * quantile(round_s, 0.99),
              round_s.size());
}

Snapshot snapshot(const csm::core::StreamEngine& engine) {
  return {now(), totals(), engine.stats(), process_cpu(),
          span_total_seconds()};
}

namespace {

double status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::stod(line.substr(len + 1));
    }
  }
  throw std::runtime_error(std::string("no ") + key + " in /proc/self/status");
}

}  // namespace

double rss_mib() { return status_kib("VmRSS") / 1024.0; }
double hwm_mib() { return status_kib("VmHWM") / 1024.0; }

std::uint64_t hash_doubles(std::uint64_t h, const std::vector<double>& v) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

void report(Outcome& out, const char* workload, const EndToEnd& e) {
  std::printf("%s: %.0f samples in %.4f CPU s; op_p50_ms is the median of %zu "
              "%s\n",
              workload, e.samples, e.cpu_s, e.op_ms.size(), e.op_name);
  out.metrics.push_back({"samples_per_cpu_s", e.samples / e.cpu_s, "1/s"});
  out.metrics.push_back({"op_p50_ms", median(e.op_ms), "ms"});
  out.metrics.push_back({"setup_s", e.setup_s, "s"});
  out.metrics.push_back({"peak_rss_mb", e.peak_rss_mb, "MiB"});
}

void report(Outcome& out, const PerLayer& p) {
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  out.metrics.push_back({"core.method.fit_s", p.fit_s, "s"});
  out.metrics.push_back({"core.method.fit_calls", n(p.fit_calls), "count"});
  out.metrics.push_back({"core.method.compute_s", p.compute_s, "s"});
  out.metrics.push_back(
      {"core.method.compute_calls", n(p.compute_calls), "count"});
  out.metrics.push_back({"process.cpu_s", p.cpu_s, "s"});
  out.metrics.push_back({"process.cores_busy", p.cpu_s / p.wall_s, "cores"});
  out.metrics.push_back({"trace.overhead_pct", p.overhead_pct, "%"});
}

void print_layer_table(const std::string& title, double wall_s,
                       const std::vector<Row>& rows) {
  std::printf("\n%s (wall %.4f s)\n", title.c_str(), wall_s);
  std::printf("  %-40s %12s %8s\n", "row", "seconds", "share");
  double sum = 0.0;
  for (const Row& r : rows) {
    if (!r.counted) continue;
    sum += r.seconds;
    std::printf("  %-40s %12.4f %7.1f%%\n", r.name.c_str(), r.seconds,
                100.0 * r.seconds / wall_s);
  }
  std::printf("  %-40s %12.4f %7.1f%%\n", "unattributed", wall_s - sum,
              100.0 * (wall_s - sum) / wall_s);
  std::printf("  %-40s %12.4f %7.1f%%\n", "= wall", wall_s, 100.0);
  bool header = false;
  for (const Row& r : rows) {
    if (r.counted) continue;
    if (!header) {
      std::printf("  detail rows (already inside a row above, not summed):\n");
      header = true;
    }
    std::printf("    %-38s %12.4f %7.1f%%\n", r.name.c_str(), r.seconds,
                100.0 * r.seconds / wall_s);
  }
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "csm_perfbench: %s\nusage: csm_perfbench --workload "
               "daemon-fleet|engine-drift|offline-fig3 --seed N --seconds S "
               "--trace 0|1\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The OpenMP runtime reads OMP_WAIT_POLICY when it is loaded, before
  // main, so the driver sets it and runs itself again.
  if (std::getenv("OMP_WAIT_POLICY") == nullptr) {
    ::setenv("OMP_WAIT_POLICY", kOmpWaitPolicy, 1);
    ::execv("/proc/self/exe", argv);
    std::perror("csm_perfbench: cannot run again with OMP_WAIT_POLICY set");
    return 2;
  }
  const Args args = parse(argc, argv);
  omp_set_num_threads(kOmpThreads);
  std::printf("csm_perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "omp_threads=%d omp_wait_policy=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, omp_get_max_threads(),
              std::getenv("OMP_WAIT_POLICY"));
  std::fflush(stdout);
  Outcome out;
  try {
    if (args.workload == "daemon-fleet") {
      out = run_daemon_fleet(args);
    } else if (args.workload == "engine-drift") {
      out = run_engine_drift(args);
    } else if (args.workload == "offline-fig3") {
      out = run_offline_fig3(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csm_perfbench: %s\n", e.what());
    return 2;
  }
  if (!out.details.empty()) {
    std::printf("\n%s detail metrics (this workload's layers only):\n",
                args.workload.c_str());
  }
  for (const Metric& m : out.details) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::vector<std::string> names;
  for (const Metric& m : out.metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    names.push_back(m.name);
  }
  if (names != (args.trace ? kPerLayerNames : kEndToEndNames)) {
    std::fprintf(stderr, "csm_perfbench: %s reported another metric set than "
                 "BENCHMARK.json lists\n", args.workload.c_str());
    return 2;
  }
  std::printf("operations: %llu attempted, %llu failed; output checks %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.correct() ? "passed" : "FAILED");
  print_result(out);
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
