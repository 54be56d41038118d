// Benchmark-side decorators of the program's public interfaces, installed
// only in the traced run. Each forwards every virtual it overrides to the
// wrapped object (native_handle() included, because the unix listener polls
// by fd, and compute_streaming() included, because CS seeds its derivative
// channel there), so a traced run computes exactly what an untraced one
// does and the only difference is the clock reads.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/method_registry.hpp"
#include "core/signature_method.hpp"
#include "ml/cross_validation.hpp"
#include "ml/model.hpp"
#include "net/transport.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = csm::core;
namespace common = csm::common;
namespace ml = csm::ml;
namespace net = csm::net;

/// A trained signature method, timed. compute() goes to `compute_stat`
/// (core.method or baselines), compute_streaming() to kComputeStreaming and
/// fit() to kFit; a fitted result comes back wrapped too, so refitted
/// models stay traced. With `timed` false it only forwards: offline-fig3
/// uses that to hand its pre-fitted methods to harness::build_dataset in
/// the untraced run.
class TracedMethod final : public core::SignatureMethod {
 public:
  TracedMethod(std::shared_ptr<const core::SignatureMethod> inner,
               Stat compute_stat, bool timed = true)
      : inner_(std::move(inner)), compute_stat_(compute_stat), timed_(timed) {}

  using core::SignatureMethod::compute;
  using core::SignatureMethod::compute_streaming;
  using core::SignatureMethod::fit;

  std::string name() const override { return inner_->name(); }
  std::size_t signature_length(std::size_t n) const override {
    return inner_->signature_length(n);
  }
  std::vector<double> compute(const common::MatrixView& window) const override {
    if (!timed_) return inner_->compute(window);
    const Timed t(compute_stat_);
    return inner_->compute(window);
  }
  bool trained() const override { return inner_->trained(); }
  std::size_t n_sensors() const override { return inner_->n_sensors(); }
  std::unique_ptr<core::SignatureMethod> fit(
      const common::MatrixView& train) const override {
    return wrap(timed_ ? timed_fit([&] { return inner_->fit(train); })
                       : inner_->fit(train));
  }
  std::unique_ptr<core::SignatureMethod> fit(
      const common::MatrixView& train, core::TrainContext& ctx) const override {
    return wrap(timed_ ? timed_fit([&] { return inner_->fit(train, ctx); })
                       : inner_->fit(train, ctx));
  }
  std::string codec_key() const override { return inner_->codec_key(); }
  void save(core::codec::Sink& sink) const override { inner_->save(sink); }
  std::vector<double> compute_streaming(
      const common::MatrixView& window,
      const std::span<const double>* seed_col) const override {
    if (!timed_) return inner_->compute_streaming(window, seed_col);
    const Timed t(Stat::kComputeStreaming);
    return inner_->compute_streaming(window, seed_col);
  }

 private:
  template <typename Fit>
  static std::unique_ptr<core::SignatureMethod> timed_fit(Fit&& fit) {
    const Timed t(Stat::kFit);
    return fit();
  }
  std::unique_ptr<core::SignatureMethod> wrap(
      std::unique_ptr<core::SignatureMethod> fitted) const {
    return std::make_unique<TracedMethod>(std::move(fitted), compute_stat_,
                                          timed_);
  }

  std::shared_ptr<const core::SignatureMethod> inner_;
  Stat compute_stat_;
  bool timed_;
};

/// The accumulator a method's offline compute() time belongs to: CS is the
/// core layer, everything else in the line-up is a baseline.
inline Stat compute_stat_for(const core::SignatureMethod& method) {
  return method.codec_key() == "cs" ? Stat::kCsCompute
                                    : Stat::kBaselineCompute;
}

/// A copy of `base` whose readers time every decode into kPackLoad and wrap
/// the decoded model in a TracedMethod (so pack-loaded fleet nodes are
/// traced from their first window on).
core::MethodRegistry traced_registry(const core::MethodRegistry& base);

/// A server-side connection, timed. Tracks whether its last write left
/// bytes unsent, which is how the listener decorator recognises a stalled
/// wait.
class TracedConnection final : public net::Connection {
 public:
  explicit TracedConnection(std::unique_ptr<net::Connection> inner)
      : inner_(std::move(inner)) {}

  std::size_t read_some(std::span<std::uint8_t> out) override {
    const Timed t(Stat::kTransportRead);
    const std::size_t n = inner_->read_some(out);
    add(Stat::kBytesIn, 0.0, n);
    return n;
  }
  std::size_t write_some(std::span<const std::uint8_t> data) override {
    std::size_t n = 0;
    {
      const Timed t(Stat::kTransportWrite);
      n = inner_->write_some(data);
    }
    add(Stat::kBytesOut, 0.0, n);
    if (n < data.size()) add(Stat::kPartialWrites, 0.0, 1);
    unflushed_ = n < data.size();
    return n;
  }
  bool is_open() const noexcept override { return inner_->is_open(); }
  void close() noexcept override {
    unflushed_ = false;
    inner_->close();
  }
  bool wait_readable(int timeout_ms) override {
    return inner_->wait_readable(timeout_ms);
  }
  bool wait_writable(int timeout_ms) override {
    return inner_->wait_writable(timeout_ms);
  }
  int native_handle() const noexcept override {
    return inner_->native_handle();
  }
  std::string peer_name() const override { return inner_->peer_name(); }

  /// True while a reply is only partly written.
  bool unflushed() const noexcept { return unflushed_; }

 private:
  std::unique_ptr<net::Connection> inner_;
  bool unflushed_ = false;
};

/// The server's listener, timed. Accepted connections come back wrapped
/// in TracedConnection. A wait that times out while any connection still
/// holds an unflushed reply is a stalled wait: the server asks the poll for
/// readability only, so nothing wakes it to write the rest.
class TracedListener final : public net::Listener {
 public:
  explicit TracedListener(std::unique_ptr<net::Listener> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<net::Connection> accept() override {
    std::unique_ptr<net::Connection> conn = inner_->accept();
    if (!conn) return conn;
    return std::make_unique<TracedConnection>(std::move(conn));
  }
  bool wait(std::span<net::Connection* const> conns, int timeout_ms) override {
    bool unflushed = false;
    for (net::Connection* c : conns) {
      const auto* traced = dynamic_cast<const TracedConnection*>(c);
      if (traced != nullptr && traced->unflushed()) unflushed = true;
    }
    const double start = now();
    waiting_since_.store(start, std::memory_order_relaxed);
    const bool ready = inner_->wait(conns, timeout_ms);
    waiting_since_.store(-1.0, std::memory_order_relaxed);
    const double waited = now() - start;
    add(Stat::kListenerWait, waited);
    if (!ready && unflushed) add(Stat::kListenerStall, waited);
    return ready;
  }
  void close() noexcept override { inner_->close(); }
  std::string address() const override { return inner_->address(); }

  /// Seconds the server has spent in the wait it is in right now (0 when
  /// it is not waiting), so an interval boundary can split a wait.
  double current_wait() const {
    const double since = waiting_since_.load(std::memory_order_relaxed);
    return since < 0.0 ? 0.0 : now() - since;
  }

 private:
  std::unique_ptr<net::Listener> inner_;
  std::atomic<double> waiting_since_{-1.0};
};

/// A classifier from the CV model factory, timed.
class TracedClassifier final : public ml::Classifier {
 public:
  explicit TracedClassifier(std::unique_ptr<ml::Classifier> inner)
      : inner_(std::move(inner)) {}
  void fit(const common::Matrix& x, std::span<const int> y) override {
    const Timed t(Stat::kMlFit);
    inner_->fit(x, y);
  }
  int predict_one(std::span<const double> x) const override {
    const Timed t(Stat::kMlPredict);
    return inner_->predict_one(x);
  }
  std::vector<int> predict(const common::Matrix& x) const override {
    const Timed t(Stat::kMlPredict);
    return inner_->predict(x);
  }

 private:
  std::unique_ptr<ml::Classifier> inner_;
};

/// A regressor from the CV model factory, timed.
class TracedRegressor final : public ml::Regressor {
 public:
  explicit TracedRegressor(std::unique_ptr<ml::Regressor> inner)
      : inner_(std::move(inner)) {}
  void fit(const common::Matrix& x, std::span<const double> y) override {
    const Timed t(Stat::kMlFit);
    inner_->fit(x, y);
  }
  double predict_one(std::span<const double> x) const override {
    const Timed t(Stat::kMlPredict);
    return inner_->predict_one(x);
  }
  std::vector<double> predict(const common::Matrix& x) const override {
    const Timed t(Stat::kMlPredict);
    return inner_->predict(x);
  }

 private:
  std::unique_ptr<ml::Regressor> inner_;
};

/// `base` with both products wrapped in the timed decorators.
ml::ModelFactories traced_factories(ml::ModelFactories base);

}  // namespace perfbench
