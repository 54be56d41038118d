#include "trace.hpp"

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr int kStats = static_cast<int>(Stat::kCount);

// One thread's accumulators and spans. Only the owning thread writes; the
// atomics let the benchmark thread snapshot them mid-run without a race.
struct ThreadState {
  std::atomic<double> seconds[kStats] = {};
  std::atomic<std::uint64_t> calls[kStats] = {};
  std::vector<SpanRecord> spans;
  std::vector<int> open;  ///< Stack of open span indices.
  int id = 0;
};

std::mutex g_threads_mutex;
// Never shrinks: a thread's state outlives the thread so its spans and
// counts still reach the report.
std::vector<std::unique_ptr<ThreadState>> g_threads;
thread_local ThreadState* t_state = nullptr;
std::atomic<bool> g_tracing{false};

ThreadState& state() {
  if (t_state == nullptr) {
    const std::lock_guard<std::mutex> lock(g_threads_mutex);
    g_threads.push_back(std::make_unique<ThreadState>());
    g_threads.back()->id = static_cast<int>(g_threads.size()) - 1;
    t_state = g_threads.back().get();
  }
  return *t_state;
}

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double process_cpu() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

void add(Stat stat, double seconds, std::uint64_t calls) {
  ThreadState& s = state();
  const int i = static_cast<int>(stat);
  s.seconds[i].store(s.seconds[i].load(std::memory_order_relaxed) + seconds,
                     std::memory_order_relaxed);
  s.calls[i].store(s.calls[i].load(std::memory_order_relaxed) + calls,
                   std::memory_order_relaxed);
}

Totals Totals::since(const Totals& earlier) const {
  Totals out;
  for (int i = 0; i < kStats; ++i) {
    out.seconds[i] = seconds[i] - earlier.seconds[i];
    out.calls[i] = calls[i] - earlier.calls[i];
  }
  return out;
}

Totals totals() {
  Totals out;
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& t : g_threads) {
    for (int i = 0; i < kStats; ++i) {
      out.seconds[i] += t->seconds[i].load(std::memory_order_relaxed);
      out.calls[i] += t->calls[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

Span::Span(const char* name, std::uint32_t round) {
  if (!tracing()) return;
  ThreadState& s = state();
  SpanRecord rec;
  rec.name = name;
  rec.start = now();
  rec.parent = s.open.empty() ? -1 : s.open.back();
  rec.round = round;
  rec.thread = s.id;
  index_ = static_cast<int>(s.spans.size());
  s.spans.push_back(rec);
  s.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadState& s = state();
  s.spans[static_cast<std::size_t>(index_)].end = now();
  s.open.pop_back();
}

std::map<std::string, double> span_total_seconds() {
  std::map<std::string, double> out;
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& t : g_threads) {
    for (const SpanRecord& r : t->spans) out[r.name] += r.end - r.start;
  }
  return out;
}

std::size_t write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::size_t n = 0;
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& t : g_threads) {
    for (const SpanRecord& r : t->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%d,\"round\":%u,"
                   "\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n",
                   r.name, r.thread, r.round, r.parent, r.start, r.end);
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

}  // namespace perfbench
