// The Queue<T> contract (stream/queue.h), checked on every implementation:
// typed tests run each single-producer case over both lock-free rings, and
// the multi-producer cases run over the MPMC ring (the SPSC ring is only
// ever given one producer). Ring-specific stress — wraparound, randomized
// batch sizes, close races at scale — lives in ring_queue_test.cc.
#include "stream/ring_queue.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dssj::stream {
namespace {

template <typename Q>
class QueueContractTest : public ::testing::Test {};

struct Spsc {
  template <typename T>
  using Of = SpscRingQueue<T>;
};
struct Mpmc {
  template <typename T>
  using Of = RingQueue<T>;
};

class QueueKindNames {
 public:
  template <typename Q>
  static std::string GetName(int) {
    return std::is_same_v<Q, Spsc> ? "Spsc" : "Mpmc";
  }
};

using QueueKinds = ::testing::Types<Spsc, Mpmc>;
TYPED_TEST_SUITE(QueueContractTest, QueueKinds, QueueKindNames);

TYPED_TEST(QueueContractTest, FifoSingleThread) {
  typename TypeParam::template Of<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.Push(i), static_cast<size_t>(i + 1));
  EXPECT_EQ(q.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.Pop(), i);
  EXPECT_EQ(q.size(), 0u);
}

TYPED_TEST(QueueContractTest, TryPopOnEmpty) {
  typename TypeParam::template Of<int> q(2);
  int out = -1;
  EXPECT_FALSE(q.TryPop(&out));
  q.Push(7);
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.TryPop(&out));
}

TYPED_TEST(QueueContractTest, PushBlocksAtCapacityUntilPop) {
  typename TypeParam::template Of<int> q(1);
  EXPECT_EQ(q.Push(1), 1u);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(2);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load()) << "push did not block at capacity";
  EXPECT_EQ(q.size(), 1u) << "occupancy exceeded the configured capacity";
  EXPECT_EQ(q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop(), 2);
}

TYPED_TEST(QueueContractTest, PushBatchDrainsInputAndReportsDepth) {
  typename TypeParam::template Of<int> q(8);
  std::vector<int> batch{1, 2, 3};
  EXPECT_EQ(q.PushBatch(&batch), 3u);
  EXPECT_TRUE(batch.empty()) << "PushBatch must drain the input vector";
  std::vector<int> more{4, 5};
  EXPECT_EQ(q.PushBatch(&more), 5u) << "depth counts items already queued";
  std::vector<int> none;
  EXPECT_EQ(q.PushBatch(&none), 5u) << "an empty batch reports the current depth";
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(q.Pop(), i);
}

TYPED_TEST(QueueContractTest, PushBatchLargerThanCapacityBackpressures) {
  typename TypeParam::template Of<int> q(4);
  constexpr int kItems = 100;
  std::thread producer([&q] {
    std::vector<int> batch;
    for (int i = 0; i < kItems; ++i) batch.push_back(i);
    q.PushBatch(&batch);  // must chunk: batch is 25x the capacity
    EXPECT_TRUE(batch.empty());
  });
  for (int i = 0; i < kItems; ++i) {
    ASSERT_LE(q.size(), 4u) << "occupancy exceeded the configured capacity";
    ASSERT_EQ(q.Pop(), i) << "chunked batch must stay in order";
  }
  producer.join();
  EXPECT_EQ(q.size(), 0u);
}

TYPED_TEST(QueueContractTest, PopBatchRespectsMaxItemsAndOrder) {
  typename TypeParam::template Of<int> q(16);
  for (int i = 0; i < 10; ++i) q.Push(i);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.PopBatch(&out, 100), 6u) << "PopBatch takes at most what is queued";
  EXPECT_EQ(out.size(), 10u) << "PopBatch appends to the output vector";
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TYPED_TEST(QueueContractTest, DrainIsNonBlockingAndEmptiesTheQueue) {
  typename TypeParam::template Of<int> q(8);
  std::vector<int> out;
  EXPECT_EQ(q.Drain(&out), 0u) << "Drain on empty must not block";
  for (int i = 0; i < 5; ++i) q.Push(i);
  EXPECT_EQ(q.Drain(&out), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
}

TYPED_TEST(QueueContractTest, CloseUnblocksBlockedProducerAndKeepsAcceptedItems) {
  typename TypeParam::template Of<int> q(1);
  q.Push(1);
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_EQ(q.Push(2), 0u) << "Push into a closed queue must report rejection";
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load()) << "push should be blocked at capacity";
  q.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_TRUE(q.closed());
  // The item accepted before Close stays poppable.
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 8), 1u);
  EXPECT_EQ(out, (std::vector<int>{1}));
  EXPECT_EQ(q.PopBatch(&out, 8), 0u) << "closed and drained: PopBatch returns 0";
}

TYPED_TEST(QueueContractTest, CloseUnblocksBlockedConsumer) {
  typename TypeParam::template Of<int> q(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(q.PopBatch(&out, 8), 0u);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load()) << "pop should be blocked on empty";
  q.Close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TYPED_TEST(QueueContractTest, PushBatchLeavesUnacceptedRemainder) {
  typename TypeParam::template Of<int> q(2);
  q.Close();
  std::vector<int> batch{1, 2, 3};
  EXPECT_EQ(q.PushBatch(&batch), 0u);
  EXPECT_EQ(batch.size(), 3u) << "nothing accepted into a closed queue";

  typename TypeParam::template Of<int> q2(2);
  std::vector<int> batch2{1, 2, 3, 4, 5};
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q2.Close();
  });
  EXPECT_EQ(q2.PushBatch(&batch2), 2u);  // accepts 2, blocks, then unblocks on Close
  closer.join();
  EXPECT_EQ(batch2, (std::vector<int>{3, 4, 5})) << "unaccepted tail must remain in order";
  std::vector<int> out;
  EXPECT_EQ(q2.PopBatch(&out, 8), 2u) << "accepted prefix must not be lost";
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(q2.PopBatch(&out, 8), 0u);
}

TYPED_TEST(QueueContractTest, CloseDuringChunkedPushBatchWakesLateConsumers) {
  // Wakeup-protocol regression: a producer whose chunked PushBatch is
  // interrupted by Close can exit with items from an earlier chunk still
  // queued, while a consumer only starts waiting *after* Close's wake has
  // come and gone. That consumer must still drain them, or it sleeps
  // forever (the test then hangs and trips the ctest timeout). Many rounds
  // to vary the interleaving of the three threads around chunk boundaries.
  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    typename TypeParam::template Of<int> q(2);
    std::atomic<int> accepted{0};
    std::thread producer([&] {
      std::vector<int> batch{0, 1, 2, 3, 4, 5, 6};  // 3.5x capacity: must chunk
      const size_t before = batch.size();
      q.PushBatch(&batch);
      accepted.store(static_cast<int>(before - batch.size()));
    });
    std::thread closer([&] { q.Close(); });
    std::vector<int> popped;
    std::thread consumer([&] {
      std::vector<int> out;
      while (q.PopBatch(&out, 3) > 0) {
      }
      popped = std::move(out);
    });
    producer.join();
    closer.join();
    consumer.join();
    ASSERT_EQ(static_cast<int>(popped.size()), accepted.load())
        << "round " << round << ": accepted items lost";
    for (size_t i = 0; i < popped.size(); ++i) {
      ASSERT_EQ(popped[i], static_cast<int>(i)) << "accepted prefix must be contiguous";
    }
  }
}

TYPED_TEST(QueueContractTest, HealthGaugesAreInertUntilEnabled) {
  typename TypeParam::template Of<int> q(2);
  q.Push(1);
  q.Push(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const QueueHealth h = q.Health();
  EXPECT_EQ(h.depth, 2u);
  EXPECT_EQ(h.capacity, 2u);
  EXPECT_EQ(h.depth_ewma, 0.0);
  EXPECT_EQ(h.oldest_age_micros, 0);
  EXPECT_EQ(h.at_capacity_stretch_micros, 0);
  EXPECT_EQ(h.time_at_capacity_micros, 0);
  EXPECT_FALSE(h.force_shed);
}

// ---------------------------------------------------------------------------
// Multi-producer cases (MPMC ring only).
// ---------------------------------------------------------------------------

TEST(MpmcQueueContractTest, PerProducerOrderPreservedWithSingleConsumer) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 10000;
  RingQueue<std::pair<int, int>> q(32);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push({p, i});
    });
  }
  std::vector<int> next(kProducers, 0);
  for (int n = 0; n < kProducers * kPerProducer; ++n) {
    const auto [p, i] = q.Pop();
    ASSERT_EQ(i, next[p]) << "per-producer FIFO violated";
    ++next[p];
  }
  for (auto& t : producers) t.join();
}

TEST(MpmcQueueContractTest, ShutdownRaceLosesNoAcceptedBatchItems) {
  // The failed-task scenario: producers blocked in PushBatch and consumers
  // blocked in PopBatch while the queue is closed mid-flight. Every item a
  // producer reports as accepted must be popped by exactly one consumer,
  // each producer's accepted items must form a contiguous prefix, and both
  // sides must unblock.
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    RingQueue<std::pair<int, int>> q(4);
    std::vector<int> accepted(kProducers, 0);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<std::pair<int, int>> batch;
        for (int i = 0; i < 50; ++i) batch.push_back({p, i});
        const size_t before = batch.size();
        while (!batch.empty()) {
          const size_t prev = batch.size();
          q.PushBatch(&batch);
          if (batch.size() == prev) break;  // closed: nothing more accepted
        }
        accepted[p] = static_cast<int>(before - batch.size());
      });
    }
    std::mutex mu;
    std::vector<std::vector<int>> popped(kProducers);
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        std::vector<std::pair<int, int>> out;
        while (true) {
          out.clear();
          if (q.PopBatch(&out, 8) == 0) return;  // closed and drained
          std::lock_guard<std::mutex> lock(mu);
          for (const auto& [p, i] : out) popped[p].push_back(i);
        }
      });
    }
    q.Close();
    for (auto& t : producers) t.join();
    // Consumers must still drain items accepted before the close.
    for (auto& t : consumers) t.join();
    for (int p = 0; p < kProducers; ++p) {
      std::sort(popped[p].begin(), popped[p].end());
      ASSERT_EQ(popped[p].size(), static_cast<size_t>(accepted[p]))
          << "round " << round << ": accepted items lost or duplicated";
      for (int i = 0; i < accepted[p]; ++i) {
        ASSERT_EQ(popped[p][i], i) << "accepted prefix must be contiguous";
      }
    }
  }
}

}  // namespace
}  // namespace dssj::stream
