#include "core/retrain_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace csm::core {
namespace {

TEST(RetrainExecutor, DrainWaitsForRunningAndQueuedJobs) {
  RetrainExecutor pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::atomic<bool> running_done{false};
  std::atomic<bool> queued_done{false};
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    running_done = true;
  });
  pool.submit([&] { queued_done = true; });  // Queued behind the first.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }

  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    pool.drain();
    drained = true;
  });
  // One job running, one queued: drain() must still be waiting.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  waiter.join();
  // drain() returned, so both jobs had finished by then.
  EXPECT_TRUE(running_done.load());
  EXPECT_TRUE(queued_done.load());
}

TEST(RetrainExecutor, DrainCoversEveryJobSubmittedBeforeIt) {
  RetrainExecutor pool(2);
  pool.drain();  // Idle pool: returns at once.
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++ran;
    });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 16);
}

TEST(RetrainExecutor, ZeroThreadsStillStartsOneWorker) {
  EXPECT_EQ(RetrainExecutor(3).thread_count(), 3u);
  RetrainExecutor pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.drain();
  EXPECT_TRUE(ran.load());
}

TEST(RetrainExecutor, JobsRunOffTheSubmittingThread) {
  RetrainExecutor pool(2);
  std::mutex mu;
  std::vector<std::thread::id> ids;
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      const std::lock_guard<std::mutex> lock(mu);
      ids.push_back(std::this_thread::get_id());
    });
  }
  pool.drain();
  ASSERT_EQ(ids.size(), 8u);
  for (const std::thread::id& id : ids) {
    EXPECT_NE(id, std::this_thread::get_id());
  }
}

TEST(RetrainExecutor, OneWorkerRunsJobsInSubmissionOrder) {
  RetrainExecutor pool(1);
  std::vector<int> order;  // Only the single worker writes it.
  for (int i = 0; i < 32; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.drain();
  ASSERT_EQ(order.size(), 32u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
}

TEST(RetrainExecutor, DestructorDropsQueuedJobsAndFinishesTheRunningOne) {
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  std::atomic<bool> running_done{false};
  std::atomic<int> queued_ran{0};
  {
    auto pool = std::make_unique<RetrainExecutor>(1);
    pool->submit([&] {
      {
        std::unique_lock<std::mutex> lock(mu);
        started = true;
        cv.notify_all();
      }
      // Still running when the pool is torn down just below.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      running_done = true;
    });
    for (int i = 0; i < 4; ++i) pool->submit([&queued_ran] { ++queued_ran; });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return started; });
    }
    pool.reset();  // Joins: returns only once the running job is done.
  }
  EXPECT_TRUE(running_done.load());
  EXPECT_EQ(queued_ran.load(), 0);
}

}  // namespace
}  // namespace csm::core
