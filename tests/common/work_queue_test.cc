#include "common/work_queue.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace otfair::common {
namespace {

TEST(BoundedWorkQueueTest, FifoThroughTryPushTryPop) {
  BoundedWorkQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    size_t size_after = 0;
    EXPECT_TRUE(queue.TryPush(int(i), &size_after));
    EXPECT_EQ(size_after, static_cast<size_t>(i + 1));
  }
  std::vector<int> out;
  EXPECT_EQ(queue.TryPopBatch(3, &out), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.TryPopBatch(10, &out), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(queue.TryPopBatch(1, &out), 0u);
}

TEST(BoundedWorkQueueTest, CapacityBoundsPushes) {
  BoundedWorkQueue<int> queue(3);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.TryPush(int(i)));
  EXPECT_FALSE(queue.TryPush(99));  // full -> backpressure
  std::vector<int> out;
  EXPECT_EQ(queue.TryPopBatch(1, &out), 1u);
  EXPECT_TRUE(queue.TryPush(99));  // slot freed
  EXPECT_EQ(queue.size(), 3u);
}

TEST(BoundedWorkQueueTest, RingWrapsAroundManyTimes) {
  BoundedWorkQueue<std::string> queue(4);
  std::vector<std::string> out;
  for (int round = 0; round < 25; ++round) {
    std::string a = "a";
    a += std::to_string(round);
    std::string b = "b";
    b += std::to_string(round);
    EXPECT_TRUE(queue.TryPush(std::string(a)));
    EXPECT_TRUE(queue.TryPush(std::string(b)));
    out.clear();
    ASSERT_EQ(queue.TryPopBatch(2, &out), 2u);
    EXPECT_EQ(out[0], a);
    EXPECT_EQ(out[1], b);
  }
}

TEST(BoundedWorkQueueTest, CloseWakesBlockedConsumerAndDrains) {
  BoundedWorkQueue<int> queue(8);
  queue.TryPush(5);
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.TryPush(6));
  std::vector<int> out;
  // Accepted items survive the close.
  EXPECT_EQ(queue.TryPopBatch(8, &out), 1u);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(queue.TryPopBatch(8, &out), 0u);
}

TEST(BoundedWorkQueueTest, ConcurrentProducersLoseNothing) {
  BoundedWorkQueue<int> queue(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i;
        while (!queue.TryPush(std::move(value))) std::this_thread::yield();
        accepted.fetch_add(1);
      }
    });
  }
  std::vector<int> drained;
  while (drained.size() < kProducers * kPerProducer) {
    std::vector<int> out;
    if (queue.TryPopBatch(32, &out) > 0)
      drained.insert(drained.end(), out.begin(), out.end());
    else
      std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
  std::vector<bool> seen(kProducers * kPerProducer, false);
  for (int v : drained) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kProducers * kPerProducer);
    EXPECT_FALSE(seen[v]) << "duplicate " << v;
    seen[v] = true;
  }
}

}  // namespace
}  // namespace otfair::common
