// Tests for the message-passing layer, mp::QueueMesh: per-pair FIFO order,
// capacity checks, ring wraparound, the per-sender Drain bound, line-packed
// payload costs on the simulator, stall accounting, and true-concurrency
// stress on the native platform.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "hal/native_platform.h"
#include "hal/sim_platform.h"
#include "mp/queue_mesh.h"
#include "sim_env.h"

namespace orthrus::mp {
namespace {

using Mesh = QueueMesh<std::uint64_t>;

// Drain pops at most one line per sender per call; loop it until the
// receiver's rings are empty. Returns messages delivered.
template <typename Fn>
std::size_t DrainAll(Mesh& mesh, int receiver, Fn&& fn) {
  std::size_t total = 0;
  while (const std::size_t n = mesh.Drain(receiver, fn)) total += n;
  return total;
}

TEST(QueueMesh, FifoOrder) {
  Mesh mesh(1, 1, 8);
  for (std::uint64_t i = 1; i <= 5; ++i) mesh.Send(0, 0, i);
  std::vector<std::uint64_t> got;
  // Fewer messages waiting than a line: one Drain delivers them all.
  EXPECT_EQ(mesh.Drain(0, [&](std::uint64_t v) { got.push_back(v); }), 5u);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(mesh.Drain(0, [](std::uint64_t) {}), 0u);
  EXPECT_EQ(mesh.SizeRawTotal(), 0u);
}

TEST(QueueMesh, CapacityMustBePowerOfTwo) {
  EXPECT_DEATH(Mesh(1, 1, 3), "CHECK");
  EXPECT_DEATH(Mesh(1, 1, 0), "CHECK");
}

TEST(QueueMesh, WraparoundManyTimes) {
  // Bursts of 1..capacity messages move the head and tail across the
  // index wraparound point at every offset, for rings under a payload line
  // (1, 2, 4), at one (8) and over one (16).
  for (std::size_t cap : {1u, 2u, 4u, 8u, 16u}) {
    Mesh mesh(1, 1, cap);
    std::uint64_t next = 0;
    std::uint64_t expect = 0;
    for (std::size_t round = 0; round < 500; ++round) {
      const std::size_t burst = 1 + round % cap;
      for (std::size_t i = 0; i < burst; ++i) mesh.Send(0, 0, next++);
      const std::size_t n = DrainAll(mesh, 0, [&](std::uint64_t v) {
        EXPECT_EQ(v, expect) << "cap=" << cap;
        expect++;
      });
      ASSERT_EQ(n, burst) << "cap=" << cap;
    }
    EXPECT_EQ(expect, next);
    EXPECT_EQ(mesh.SizeRawTotal(), 0u);
  }
}

TEST(QueueMesh, RoutesPairsIndependently) {
  Mesh mesh(3, 2, 16);
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
  Mesh mesh(2, 1, 64);
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

// The fairness bound: a sender that keeps publishing while the receiver
// drains (here sender 0, refilled from inside the callback up to
// 1000 times) must not hold the receiver on its ring. One Drain call
// takes at most one line from it and still delivers the other sender.
TEST(QueueMesh, DrainTakesAtMostOneLinePerSender) {
  constexpr std::size_t kLine = Mesh::kMsgsPerLine;
  constexpr std::uint64_t kOther = 1ull << 40;  // sender 1's message
  Mesh mesh(2, 1, 64);
  for (std::uint64_t i = 0; i < kLine; ++i) mesh.Send(0, 0, i);
  mesh.Send(1, 0, kOther);
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
      mesh.Send(0, 0, v + kLine);
    }
  });
  EXPECT_LE(from0, kLine);
  EXPECT_EQ(from1, (std::vector<std::uint64_t>{kOther}));
  EXPECT_EQ(n, from0 + 1);
}

TEST(QueueMesh, SimulatedProducerConsumer) {
  constexpr std::uint64_t kN = 2000;
  Mesh mesh(1, 1, 64);
  hal::SimPlatform sim(2, SimConfigFromEnv());
  std::uint64_t received = 0, sum = 0;
  sim.Spawn(0, [&] {
    for (std::uint64_t i = 1; i <= kN; ++i) {
      mesh.Send(0, 0, i);
      hal::ConsumeCycles(10);
    }
  });
  sim.Spawn(1, [&] {
    while (received < kN) {
      const std::size_t n = mesh.Drain(0, [&](std::uint64_t v) {
        received++;
        sum += v;
      });
      if (n == 0) hal::CpuRelax();
    }
  });
  sim.Run();
  EXPECT_EQ(received, kN);
  EXPECT_EQ(sum, kN * (kN + 1) / 2);
}

TEST(QueueMesh, SimulatedEmptyDrainIsCheap) {
  // Polling an idle mesh should cost L1 hits, not remote transfers, once
  // the receiver's cached view of each tail is warm.
  hal::SimPlatform sim(1, SimConfigFromEnv());
  Mesh mesh(1, 1, 16);
  hal::Cycles cost = 0;
  sim.Spawn(0, [&] {
    (void)mesh.Drain(0, [](std::uint64_t) {});  // warm the tail line
    const hal::Cycles t0 = hal::Now();
    for (int i = 0; i < 100; ++i) (void)mesh.Drain(0, [](std::uint64_t) {});
    cost = hal::Now() - t0;
  });
  sim.Run();
  EXPECT_LT(cost, 100 * 20);  // ~L1-hit scale per poll
}

// Payload words are packed kMsgsPerLine to a modeled line, so moving a
// full line of messages from one core to another costs the same line
// transfers as moving one: the payload line and the tail the sender
// publishes, and the head the receiver publishes. Unpacked, each further
// message would add a payload transfer.
TEST(QueueMesh, SimulatedLineOfMessagesCostsOnePayloadTransfer) {
  const auto run_transfers = [](std::size_t msgs) {
    hal::SimPlatform sim(2, SimConfigFromEnv());
    Mesh mesh(1, 1, 2 * Mesh::kMsgsPerLine);
    std::size_t delivered = 0;
    sim.Spawn(0, [&] {
      for (std::size_t i = 0; i < msgs; ++i) mesh.Send(0, 0, i);
    });
    sim.Spawn(1, [&] {
      hal::ConsumeCycles(100000);  // let every send land first
      delivered = mesh.Drain(0, [](std::uint64_t) {});
    });
    sim.Run();
    EXPECT_EQ(delivered, msgs);
    return sim.stats().remote_transfers;
  };
  EXPECT_EQ(run_transfers(Mesh::kMsgsPerLine), run_transfers(1));
}

// Blocking sends that hit a full ring charge the core's registered
// hal::SpinStallSink: one stall per blocked Send call, plus the cycles the
// wedge-spin waited. Sends that never block charge nothing — the sink is
// pure observability (WorkerPool installs one per worker and folds it into
// WorkerStats::send_stalls).
TEST(QueueMesh, BlockingSendChargesTheStallSink) {
  constexpr std::size_t kCap = 16;
  constexpr hal::Cycles kConsumerDelay = 20000;
  hal::SimPlatform sim(2, SimConfigFromEnv());
  Mesh mesh(1, 1, kCap);
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

TEST(QueueMesh, NativeOneToOneStress) {
  // Real sender/receiver threads: every value must arrive exactly once,
  // in order.
  constexpr std::uint64_t kN = 200000;
  Mesh mesh(1, 1, 1024);
  hal::NativePlatform platform(2);
  bool ok = true;
  platform.Spawn(0, [&] {
    for (std::uint64_t i = 0; i < kN; ++i) mesh.Send(0, 0, i);
  });
  platform.Spawn(1, [&] {
    std::uint64_t expect = 0;
    while (expect < kN) {
      const std::size_t n = mesh.Drain(0, [&](std::uint64_t v) {
        if (v != expect) ok = false;
        expect++;
      });
      if (n == 0) hal::CpuRelax();
    }
  });
  platform.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(mesh.SizeRawTotal(), 0u);
}

TEST(QueueMesh, NativeManyToOneStress) {
  // Three senders, one receiver draining through the mesh: per-sender
  // FIFO with nothing lost or duplicated.
  constexpr int kSenders = 3;
  constexpr std::uint64_t kPer = 50000;
  Mesh mesh(kSenders, 1, 128);
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
        if (s >= kSenders) {
          ok = false;
          return;
        }
        if (v % kPer != next_from[s]) ok = false;
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

}  // namespace
}  // namespace orthrus::mp
