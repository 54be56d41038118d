#include "core/retrain_executor.hpp"

#include <utility>

namespace csm::core {

RetrainExecutor::RetrainExecutor(std::size_t threads) {
  const std::size_t count = threads == 0 ? 1 : threads;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

RetrainExecutor::~RetrainExecutor() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Queued-but-unstarted jobs are dropped: their shadow-fit state simply
    // never reaches done, and nobody blocks on it.
    queue_.clear();
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void RetrainExecutor::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void RetrainExecutor::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void RetrainExecutor::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    job();
    job = nullptr;  // Release the job's captures before reporting idle.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace csm::core
