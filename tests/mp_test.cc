// Tests for the message-passing layer: the latch-free SPSC queue (FIFO
// order, capacity behaviour, wraparound, batched push/pop, and
// true-concurrency stress on the native platform) and the QueueMesh that
// wires full sender x receiver matrices of queues.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "hal/native_platform.h"
#include "hal/sim_platform.h"
#include "mp/queue_mesh.h"
#include "mp/spsc_queue.h"

namespace orthrus::mp {
namespace {

// Drain pops at most one line per sender per call; loop it until the
// receiver's queues are empty. Returns messages delivered.
template <typename Mesh, typename Fn, typename... Args>
std::size_t DrainAll(Mesh& mesh, int receiver, Fn&& fn, Args... args) {
  std::size_t total = 0;
  while (const std::size_t n = mesh.Drain(receiver, fn, args...)) total += n;
  return total;
}

TEST(SpscQueue, FifoOrder) {
  SpscQueue<std::uint64_t> q(8);
  for (std::uint64_t i = 1; i <= 5; ++i) EXPECT_TRUE(q.TryEnqueue(i));
  std::uint64_t v;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(q.TryDequeue(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryDequeue(&v));
}

TEST(SpscQueue, FullRejectsEnqueue) {
  SpscQueue<std::uint64_t> q(4);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(q.TryEnqueue(i));
  EXPECT_FALSE(q.TryEnqueue(99));
  std::uint64_t v;
  EXPECT_TRUE(q.TryDequeue(&v));
  EXPECT_TRUE(q.TryEnqueue(99));  // space freed
}

TEST(SpscQueue, EmptyProbe) {
  SpscQueue<std::uint64_t> q(4);
  EXPECT_TRUE(q.Empty());
  q.TryEnqueue(1);
  EXPECT_FALSE(q.Empty());
  std::uint64_t v;
  q.TryDequeue(&v);
  EXPECT_TRUE(q.Empty());
}

TEST(SpscQueue, WraparoundManyTimes) {
  SpscQueue<std::uint64_t> q(4);
  std::uint64_t v;
  for (std::uint64_t round = 0; round < 1000; ++round) {
    EXPECT_TRUE(q.TryEnqueue(round));
    EXPECT_TRUE(q.TryEnqueue(round + 1000000));
    ASSERT_TRUE(q.TryDequeue(&v));
    EXPECT_EQ(v, round);
    ASSERT_TRUE(q.TryDequeue(&v));
    EXPECT_EQ(v, round + 1000000);
  }
  EXPECT_EQ(q.SizeRaw(), 0u);
}

TEST(SpscQueue, CapacityMustBePowerOfTwo) {
  EXPECT_DEATH(SpscQueue<std::uint64_t>(3), "CHECK");
  EXPECT_DEATH(SpscQueue<std::uint64_t>(0), "CHECK");
}

TEST(SpscQueue, NativeTwoThreadStress) {
  // Real producer/consumer threads: every value must arrive exactly once,
  // in order.
  constexpr std::uint64_t kN = 200000;
  SpscQueue<std::uint64_t> q(1024);
  hal::NativePlatform platform(2);
  bool ok = true;
  platform.Spawn(0, [&] {
    for (std::uint64_t i = 0; i < kN; ++i) {
      while (!q.TryEnqueue(i)) hal::CpuRelax();
    }
  });
  platform.Spawn(1, [&] {
    std::uint64_t expect = 0;
    while (expect < kN) {
      std::uint64_t v;
      if (q.TryDequeue(&v)) {
        if (v != expect) {
          ok = false;
          return;
        }
        expect++;
      } else {
        hal::CpuRelax();
      }
    }
  });
  platform.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(q.SizeRaw(), 0u);
}

TEST(SpscQueue, SimulatedProducerConsumer) {
  constexpr std::uint64_t kN = 2000;
  SpscQueue<std::uint64_t> q(64);
  hal::SimPlatform sim(2);
  std::uint64_t received = 0, sum = 0;
  sim.Spawn(0, [&] {
    for (std::uint64_t i = 1; i <= kN; ++i) {
      while (!q.TryEnqueue(i)) hal::CpuRelax();
      hal::ConsumeCycles(10);
    }
  });
  sim.Spawn(1, [&] {
    while (received < kN) {
      std::uint64_t v;
      if (q.TryDequeue(&v)) {
        received++;
        sum += v;
      } else {
        hal::CpuRelax();
      }
    }
  });
  sim.Run();
  EXPECT_EQ(received, kN);
  EXPECT_EQ(sum, kN * (kN + 1) / 2);
}

TEST(SpscQueue, SimulatedSteadyStatePollingIsCheap) {
  // Polling an idle queue should cost L1 hits, not remote transfers, once
  // the consumer's cached view is warm.
  hal::SimPlatform sim(1);
  SpscQueue<std::uint64_t> q(16);
  hal::Cycles cost = 0;
  sim.Spawn(0, [&] {
    std::uint64_t v;
    (void)q.TryDequeue(&v);  // warm the tail line
    const hal::Cycles t0 = hal::Now();
    for (int i = 0; i < 100; ++i) (void)q.TryDequeue(&v);
    cost = hal::Now() - t0;
  });
  sim.Run();
  EXPECT_LT(cost, 100 * 20);  // ~L1-hit scale per poll
}

// ------------------------------------------------------------- batched API

TEST(SpscQueueBatch, PushPopRoundTrip) {
  SpscQueue<std::uint64_t> q(64);
  std::uint64_t in[10], out[10];
  for (int i = 0; i < 10; ++i) in[i] = 100 + i;
  EXPECT_EQ(q.PushBatch(in, 10), 10u);
  EXPECT_EQ(q.SizeRaw(), 10u);
  EXPECT_EQ(q.PopBatch(out, 10), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], in[i]);
  EXPECT_EQ(q.SizeRaw(), 0u);
}

TEST(SpscQueueBatch, ZeroSizedBatchesAreNoops) {
  SpscQueue<std::uint64_t> q(8);
  std::uint64_t v = 7;
  EXPECT_EQ(q.PushBatch(&v, 0), 0u);
  EXPECT_EQ(q.PopBatch(&v, 0), 0u);
  EXPECT_EQ(q.SizeRaw(), 0u);
}

TEST(SpscQueueBatch, PartialPushWhenNearlyFull) {
  SpscQueue<std::uint64_t> q(8);
  std::uint64_t in[8];
  for (int i = 0; i < 8; ++i) in[i] = i;
  EXPECT_EQ(q.PushBatch(in, 6), 6u);
  // Only 2 slots remain: an 8-element batch is truncated.
  EXPECT_EQ(q.PushBatch(in, 8), 2u);
  // Ring full: next batch pushes nothing.
  EXPECT_EQ(q.PushBatch(in, 4), 0u);
  std::uint64_t out[8];
  EXPECT_EQ(q.PopBatch(out, 8), 8u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], in[i]);
  EXPECT_EQ(out[6], in[0]);
  EXPECT_EQ(out[7], in[1]);
}

TEST(SpscQueueBatch, PartialPopWhenNearlyEmpty) {
  SpscQueue<std::uint64_t> q(16);
  std::uint64_t in[3] = {5, 6, 7};
  EXPECT_EQ(q.PushBatch(in, 3), 3u);
  std::uint64_t out[8];
  EXPECT_EQ(q.PopBatch(out, 8), 3u);  // fewer waiting than asked
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(out[1], 6u);
  EXPECT_EQ(out[2], 7u);
  EXPECT_EQ(q.PopBatch(out, 8), 0u);  // empty
}

TEST(SpscQueueBatch, WraparoundAtCapacityBoundary) {
  // Offset the ring so every batch straddles the index wraparound point,
  // including rings both smaller and larger than one payload line.
  for (std::size_t cap : {4u, 8u, 16u, 64u}) {
    SpscQueue<std::uint64_t> q(cap);
    std::uint64_t v;
    // Leave the head/tail 3 short of a multiple of capacity.
    for (std::size_t i = 0; i + 3 < cap; ++i) {
      ASSERT_TRUE(q.TryEnqueue(i));
      ASSERT_TRUE(q.TryDequeue(&v));
    }
    std::uint64_t next = 1000;
    std::uint64_t expect = 1000;
    for (int round = 0; round < 200; ++round) {
      std::uint64_t in[4], out[4];
      for (int i = 0; i < 4; ++i) in[i] = next++;
      ASSERT_EQ(q.PushBatch(in, 4), 4u) << "cap=" << cap;
      std::size_t got = 0;
      while (got < 4) got += q.PopBatch(out + got, 4 - got);
      for (int i = 0; i < 4; ++i) ASSERT_EQ(out[i], expect++);
    }
    EXPECT_EQ(q.SizeRaw(), 0u);
  }
}

TEST(SpscQueueBatch, MixedBatchedAndUnbatchedInterleave) {
  SpscQueue<std::uint64_t> q(8);
  std::uint64_t in[4] = {1, 2, 3, 4};
  EXPECT_EQ(q.PushBatch(in, 4), 4u);
  EXPECT_TRUE(q.TryEnqueue(5));
  std::uint64_t v;
  ASSERT_TRUE(q.TryDequeue(&v));
  EXPECT_EQ(v, 1u);
  std::uint64_t out[8];
  EXPECT_EQ(q.PopBatch(out, 8), 4u);
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[3], 5u);
}

TEST(SpscQueueBatch, NativeTwoThreadStress) {
  // Batched producer vs batched consumer with coprime batch sizes: every
  // value must arrive exactly once, in FIFO order.
  constexpr std::uint64_t kN = 300000;
  SpscQueue<std::uint64_t> q(256);
  hal::NativePlatform platform(2);
  bool ok = true;
  platform.Spawn(0, [&] {
    std::uint64_t buf[7];
    std::uint64_t next = 0;
    while (next < kN) {
      std::size_t n = 0;
      while (n < 7 && next + n < kN) {
        buf[n] = next + n;
        n++;
      }
      std::size_t pushed = 0;
      while (pushed < n) {
        const std::size_t k = q.PushBatch(buf + pushed, n - pushed);
        if (k == 0) hal::CpuRelax();
        pushed += k;
      }
      next += n;
    }
  });
  platform.Spawn(1, [&] {
    std::uint64_t buf[5];
    std::uint64_t expect = 0;
    while (expect < kN) {
      const std::size_t k = q.PopBatch(buf, 5);
      if (k == 0) {
        hal::CpuRelax();
        continue;
      }
      for (std::size_t i = 0; i < k; ++i) {
        if (buf[i] != expect) {
          ok = false;
          return;
        }
        expect++;
      }
    }
  });
  platform.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(q.SizeRaw(), 0u);
}

TEST(SpscQueueBatch, SimBatchedCostsFewerCyclesThanUnbatched) {
  // Same message count, same single core: the batched path publishes the
  // tail/head once per batch instead of once per message, so it must be
  // strictly cheaper in modeled cycles.
  constexpr int kMsgs = 64;
  const auto run = [](bool batched) {
    hal::SimPlatform sim(1);
    SpscQueue<std::uint64_t> q(128);
    hal::Cycles cost = 0;
    sim.Spawn(0, [&] {
      std::uint64_t buf[kMsgs];
      for (int i = 0; i < kMsgs; ++i) buf[i] = i;
      const hal::Cycles t0 = hal::Now();
      if (batched) {
        ASSERT_EQ(q.PushBatch(buf, kMsgs), static_cast<std::size_t>(kMsgs));
        ASSERT_EQ(q.PopBatch(buf, kMsgs), static_cast<std::size_t>(kMsgs));
      } else {
        for (int i = 0; i < kMsgs; ++i) ASSERT_TRUE(q.TryEnqueue(buf[i]));
        std::uint64_t v;
        for (int i = 0; i < kMsgs; ++i) ASSERT_TRUE(q.TryDequeue(&v));
      }
      cost = hal::Now() - t0;
    });
    sim.Run();
    return cost;
  };
  const hal::Cycles batched = run(true);
  const hal::Cycles unbatched = run(false);
  EXPECT_LT(batched, unbatched);
}

// --------------------------------------------------------------- QueueMesh

TEST(QueueMesh, RoutesPairsIndependently) {
  QueueMesh<std::uint64_t> mesh(3, 2, 16);
  EXPECT_EQ(mesh.senders(), 3);
  EXPECT_EQ(mesh.receivers(), 2);
  for (int s = 0; s < 3; ++s) {
    for (int r = 0; r < 2; ++r) {
      mesh.Send(s, r, static_cast<std::uint64_t>(10 * s + r));
    }
  }
  EXPECT_EQ(mesh.SizeRawTotal(), 6u);
  for (int r = 0; r < 2; ++r) {
    std::vector<std::uint64_t> got;
    mesh.Drain(r, [&](std::uint64_t v) { got.push_back(v); });
    ASSERT_EQ(got.size(), 3u);
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(got[s], static_cast<std::uint64_t>(10 * s + r));
    }
  }
  EXPECT_EQ(mesh.SizeRawTotal(), 0u);
}

TEST(QueueMesh, DrainPreservesPerSenderFifo) {
  QueueMesh<std::uint64_t> mesh(2, 1, 64);
  for (std::uint64_t i = 0; i < 20; ++i) {
    mesh.Send(0, 0, i);
    mesh.Send(1, 0, 1000 + i);
  }
  std::vector<std::uint64_t> got;
  const std::size_t n =
      DrainAll(mesh, 0, [&](std::uint64_t v) { got.push_back(v); });
  EXPECT_EQ(n, 40u);
  std::uint64_t expect0 = 0, expect1 = 1000;
  for (std::uint64_t v : got) {
    if (v < 1000) {
      EXPECT_EQ(v, expect0++);
    } else {
      EXPECT_EQ(v, expect1++);
    }
  }
  EXPECT_EQ(expect0, 20u);
  EXPECT_EQ(expect1, 1020u);
}

TEST(QueueMesh, UnbatchedDrainDeliversTheSameMessages) {
  // One message per sender per call: repeated drains interleave the
  // senders round-robin, each sender's stream still in FIFO order.
  QueueMesh<std::uint64_t> mesh(4, 1, 32);
  for (int s = 0; s < 4; ++s) {
    for (std::uint64_t i = 0; i < 9; ++i) mesh.Send(s, 0, s * 100 + i);
  }
  std::vector<std::uint64_t> got;
  const std::size_t n = DrainAll(
      mesh, 0, [&](std::uint64_t v) { got.push_back(v); }, /*max_batch=*/1);
  EXPECT_EQ(n, 36u);
  std::size_t idx = 0;
  for (std::uint64_t i = 0; i < 9; ++i) {
    for (std::uint64_t s = 0; s < 4; ++s) {
      EXPECT_EQ(got[idx++], s * 100 + i);
    }
  }
}

// The fairness bound: a sender that keeps publishing while the receiver
// drains (here sender 0, refilled from inside the callback up to
// 1000 times) must not hold the receiver on its queue. One Drain call
// takes at most one line from it and still delivers the other sender.
template <typename Mesh, typename SendFn>
void ExpectDrainBoundedPerSender(Mesh& mesh, SendFn send) {
  constexpr std::size_t kLine = Mesh::kDefaultBatch;
  constexpr std::uint64_t kOther = 1ull << 40;  // sender 1's message
  for (std::uint64_t i = 0; i < kLine; ++i) send(0, i);
  send(1, kOther);
  int refills = 0;
  std::size_t from0 = 0;
  std::vector<std::uint64_t> from1;
  const std::size_t n = mesh.Drain(0, [&](std::uint64_t v) {
    if (v == kOther) {
      from1.push_back(v);
      return;
    }
    from0++;
    if (refills < 1000) {
      refills++;
      send(0, v + kLine);
    }
  });
  EXPECT_LE(from0, kLine);
  EXPECT_EQ(from1, (std::vector<std::uint64_t>{kOther}));
  EXPECT_EQ(n, from0 + 1);
}

TEST(QueueMesh, DrainTakesAtMostOneLinePerSender) {
  QueueMesh<std::uint64_t> mesh(2, 1, 64);
  ExpectDrainBoundedPerSender(mesh, [&](int s, std::uint64_t v) {
    mesh.Send(s, 0, v);
  });
}

TEST(QueueMesh, NativeManyToOneStress) {
  // Three producers, one consumer draining through the mesh: per-sender
  // FIFO with nothing lost or duplicated.
  constexpr int kSenders = 3;
  constexpr std::uint64_t kPer = 50000;
  QueueMesh<std::uint64_t> mesh(kSenders, 1, 128);
  hal::NativePlatform platform(kSenders + 1);
  for (int s = 0; s < kSenders; ++s) {
    platform.Spawn(s, [&mesh, s] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        mesh.Send(s, 0, static_cast<std::uint64_t>(s) * kPer + i);
      }
    });
  }
  std::uint64_t received = 0;
  std::uint64_t next_from[kSenders] = {0, 0, 0};
  bool ok = true;
  platform.Spawn(kSenders, [&] {
    while (received < kSenders * kPer) {
      const std::size_t n = mesh.Drain(0, [&](std::uint64_t v) {
        const int s = static_cast<int>(v / kPer);
        if (s >= kSenders || v % kPer != next_from[s]) ok = false;
        next_from[s]++;
      });
      received += n;
      if (n == 0) hal::CpuRelax();
    }
  });
  platform.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(received, kSenders * kPer);
  EXPECT_EQ(mesh.SizeRawTotal(), 0u);
}

// ------------------------------------------------- Drain delivery semantics

// A zero max_batch used to clamp to 0 and silently deliver nothing forever,
// wedging any caller that loops until Drain makes progress. Release builds
// clamp up to 1; debug builds DCHECK the misuse loudly.
TEST(QueueMesh, DrainZeroMaxBatchStillDelivers) {
  QueueMesh<std::uint64_t> mesh(2, 1, 16);
  for (std::uint64_t i = 0; i < 5; ++i) mesh.Send(0, 0, i);
  mesh.Send(1, 0, 100);
#ifdef NDEBUG
  std::vector<std::uint64_t> got;
  const std::size_t n = DrainAll(
      mesh, 0, [&](std::uint64_t v) { got.push_back(v); }, /*max_batch=*/0);
  EXPECT_EQ(n, 6u);
  const std::vector<std::uint64_t> want = {0, 100, 1, 2, 3, 4};
  EXPECT_EQ(got, want);
  EXPECT_EQ(mesh.SizeRawTotal(), 0u);
#else
  EXPECT_DEATH(mesh.Drain(0, [](std::uint64_t) {}, /*max_batch=*/0), "CHECK");
#endif
}

// ------------------------------------------------------- stall accounting

// Blocking sends that hit a full ring charge the core's registered
// hal::SpinStallSink: one stall per blocked Send call, plus the cycles the
// wedge-spin waited. Sends that never block charge nothing — the sink is
// pure observability (WorkerPool installs one per worker and folds it into
// WorkerStats::send_stalls).
TEST(QueueMesh, BlockingSendChargesTheStallSink) {
  constexpr std::size_t kCap = 16;
  constexpr hal::Cycles kConsumerDelay = 20000;
  hal::SimPlatform sim(2);
  QueueMesh<std::uint64_t> mesh(1, 1, kCap);
  hal::SpinStallSink sink;
  std::uint64_t received = 0;
  sim.Spawn(0, [&] {
    hal::CurrentCore()->send_stall_sink = &sink;
    // Fill the ring without blocking: a never-blocked send charges nothing
    // (it never even reads the clock).
    for (std::uint64_t i = 0; i < kCap; ++i) mesh.Send(0, 0, i);
    EXPECT_EQ(sink.stalls, 0u);
    EXPECT_EQ(sink.stall_cycles, 0u);
    // One more send against the full ring: it must wait out the consumer's
    // delay, and however long it spins, it counts as exactly one stall.
    mesh.Send(0, 0, kCap);
    hal::CurrentCore()->send_stall_sink = nullptr;
  });
  sim.Spawn(1, [&] {
    hal::ConsumeCycles(kConsumerDelay);
    while (received < kCap + 1) {
      received += mesh.Drain(0, [&](std::uint64_t) {});
      hal::CpuRelax();
    }
  });
  sim.Run();
  EXPECT_EQ(received, kCap + 1);
  EXPECT_EQ(sink.stalls, 1u);
  // The blocked send waited for most of the consumer's delay.
  EXPECT_GT(sink.stall_cycles, kConsumerDelay / 2);
}

}  // namespace
}  // namespace orthrus::mp
