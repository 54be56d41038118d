#include "core/retrain_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

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

}  // namespace
}  // namespace csm::core
