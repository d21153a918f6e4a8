// RingFifo: FIFO order across wrap-around and growth, mid-queue erase,
// and element lifetime (a popped or cleared element is destroyed at once,
// which is what releases a queued frame's buffer).
#include "common/ring.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace netclone {
namespace {

TEST(RingFifo, KeepsFifoOrderAcrossWrapAndGrowth) {
  RingFifo<int> ring;
  std::vector<int> model;
  int next = 0;
  // Push/pop in uneven bursts so the head wraps and the ring grows while
  // wrapped.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < round % 7 + 3; ++i) {
      ring.push_back(next);
      model.push_back(next);
      ++next;
    }
    for (int i = 0; i < round % 5 + 1 && !model.empty(); ++i) {
      ASSERT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.erase(model.begin());
    }
    ASSERT_EQ(ring.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(ring[i], model[i]);
    }
  }
  EXPECT_EQ(ring.capacity() & (ring.capacity() - 1), 0U);  // power of two
}

TEST(RingFifo, EraseAtKeepsOrder) {
  RingFifo<int> ring;
  for (int i = 0; i < 6; ++i) {
    ring.push_back(i);
  }
  ring.pop_front();
  ring.pop_front();
  for (int i = 6; i < 10; ++i) {
    ring.push_back(i);  // wraps inside the 8-slot array
  }
  ring.erase_at(3);  // removes 5
  const std::vector<int> want = {2, 3, 4, 6, 7, 8, 9};
  ASSERT_EQ(ring.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(ring[i], want[i]);
  }
}

TEST(RingFifo, DestroysElementsWhenPoppedOrCleared) {
  auto tracked = std::make_shared<int>(1);
  RingFifo<std::shared_ptr<int>> ring;
  for (int i = 0; i < 20; ++i) {
    ring.push_back(tracked);
  }
  EXPECT_EQ(tracked.use_count(), 21);
  ring.pop_front();
  EXPECT_EQ(tracked.use_count(), 20);
  ring.erase_at(5);
  EXPECT_EQ(tracked.use_count(), 19);
  const std::size_t capacity = ring.capacity();
  ring.clear();
  EXPECT_EQ(tracked.use_count(), 1);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), capacity);  // storage kept for reuse
  {
    RingFifo<std::shared_ptr<int>> scoped;
    scoped.push_back(tracked);
    EXPECT_EQ(tracked.use_count(), 2);
  }
  EXPECT_EQ(tracked.use_count(), 1);  // the destructor destroys elements
}

}  // namespace
}  // namespace netclone
