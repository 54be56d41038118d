#include "common/cancel.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace csm::common {
namespace {

TEST(CancelToken, CopiesShareOneFlag) {
  const CancelToken requester;
  const CancelToken worker = requester;  // The copy a background job holds.
  EXPECT_FALSE(worker.cancelled());
  EXPECT_NO_THROW(worker.throw_if_cancelled());
  EXPECT_EQ(worker.flag(), requester.flag());

  // Fired from another thread, seen through every copy.
  std::thread([requester] { requester.cancel(); }).join();
  EXPECT_TRUE(worker.cancelled());
  EXPECT_TRUE(worker.flag()->load());
  EXPECT_THROW(worker.throw_if_cancelled(), OperationCancelled);
  requester.cancel();  // Idempotent.
  EXPECT_TRUE(requester.cancelled());
}

TEST(CancelToken, FreshTokensAreIndependent) {
  const CancelToken a;
  const CancelToken b;
  EXPECT_NE(a.flag(), b.flag());
  a.cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_FALSE(b.cancelled());
  EXPECT_NO_THROW(b.throw_if_cancelled());
  try {
    a.throw_if_cancelled();
    FAIL() << "a fired token did not throw";
  } catch (const OperationCancelled& e) {
    EXPECT_STREQ(e.what(), "operation cancelled");
  }
}

}  // namespace
}  // namespace csm::common
