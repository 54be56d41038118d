// Bounded worker pool for background model retrains.
//
// StreamEngine owns one of these (sized by StreamOptions::retrain_threads /
// `csmd --retrain-threads`) and shares it across every node's MethodStream,
// so a thousand-node fleet retrains on a handful of workers instead of a
// thousand ad-hoc threads. Jobs are fire-and-forget closures over shared
// shadow-fit state: they must not reference the submitting stream or engine
// directly, which is what makes shutdown trivially safe — the destructor
// drops jobs that have not started, finishes the ones that have, and joins.
// Cancellation is cooperative and lives inside the job (common::CancelToken
// threaded through core::TrainContext); the pool never kills a thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csm::core {

/// Fixed-size FIFO thread pool for retrain jobs.
class RetrainExecutor {
 public:
  /// Spins up `threads` workers (at least one). Throws std::system_error if
  /// thread creation fails.
  explicit RetrainExecutor(std::size_t threads);

  /// Drops every job still queued, lets running jobs finish, joins.
  ~RetrainExecutor();

  RetrainExecutor(const RetrainExecutor&) = delete;
  RetrainExecutor& operator=(const RetrainExecutor&) = delete;

  /// Enqueues a job. The job must not throw (wrap fallible work in its own
  /// try/catch and park the failure in shared state, as MethodStream does).
  void submit(std::function<void()> job);

  /// Blocks until no job is queued or running, including jobs submitted
  /// while waiting. Lets a caller reach a point where every fit it launched
  /// has finished (e.g. a bench that needs the last shadow fit swapped in).
  void drain();

  std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;  ///< Signalled when running_ drops.
  std::deque<std::function<void()>> queue_;
  std::size_t running_ = 0;  ///< Jobs taken off the queue, not yet done.
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace csm::core
