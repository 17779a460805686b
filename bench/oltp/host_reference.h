// Host-speed reference for the native OLTP benchmark.
//
// On a shared host the engines' throughput drifts by up to 2x over
// minutes, and both engines drift together with three simple probes of the
// host, each run on the benchmark's worker-thread count: a contended atomic
// increment, random reads from a 32 MiB array, and integer arithmetic. The
// benchmark reports each timing both as measured and scaled by Measure(),
// taken between its segments. In two sets of ten runs per workload the
// scaling cut the widest run-to-run spread of the engines' timings from 31%
// to 19%; in two sets taken while the host slowed by a third, it cut the
// largest difference between the sets' medians from 58% to 14%.
#ifndef ORTHRUS_BENCH_OLTP_HOST_REFERENCE_H_
#define ORTHRUS_BENCH_OLTP_HOST_REFERENCE_H_

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace orthrus::bench::oltp {

class HostReference {
 public:
  explicit HostReference(int threads) : threads_(threads), table_(kTableWords) {
    std::uint64_t x = 1;
    for (std::uint64_t& w : table_) {
      x = Lcg(x);
      w = x;
    }
  }

  // Speed of the host now relative to the nominal host: the geometric mean
  // of the three probes' rates, each divided by its nominal rate. Above 1
  // means the host runs faster than nominal.
  double Measure() {
    double log_sum = 0;
    for (int kind = 0; kind < kKinds; ++kind) {
      log_sum += std::log(Rate(kind) / kNominal[kind]);
    }
    return std::exp(log_sum / kKinds);
  }

 private:
  static constexpr int kKinds = 3;
  static constexpr std::size_t kTableWords = std::size_t{1} << 22;  // 32 MiB
  // Typical probe rates in ops/s with three threads on the 4-vCPU KVM guest
  // (Xeon family 6 model 207) the benchmark was tuned on.
  static constexpr double kNominal[kKinds] = {4.7e7, 5.2e8, 2.6e8};
  static constexpr auto kProbeTime = std::chrono::milliseconds(60);

  static std::uint64_t Lcg(std::uint64_t x) {
    return x * 6364136223846793005ull + 1442695040888963407ull;
  }

  // New threads can start on one CPU and spread only later; a probe that
  // short must not measure the scheduler, so each thread gets its own CPU.
  static void Pin(int t) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(static_cast<unsigned>(t) % hw, &mask);
    pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
  }

  // Ops per second of probe `kind` over kProbeTime on threads_ threads.
  double Rate(int kind) {
    struct alignas(64) Line {
      std::atomic<std::uint64_t> v{0};
    };
    Line shared;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> sink{0};
    const auto probe = [&](int t) {
      Pin(t);
      std::uint64_t n = 0;
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      std::uint64_t acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 64; ++i) {
          if (kind == 0) {
            shared.v.fetch_add(1);
          } else if (kind == 1) {
            x = Lcg(x);
            acc += table_[(x >> 20) & (kTableWords - 1)];
          } else {
            for (int j = 0; j < 8; ++j) x = Lcg(x);
          }
        }
        n += 64;
      }
      ops.fetch_add(n);
      sink.fetch_add(acc ^ x);
    };
    std::vector<std::thread> workers;
    const auto join = [&] {
      stop.store(true);
      for (std::thread& w : workers) w.join();
    };
    const auto start = std::chrono::steady_clock::now();
    try {
      for (int t = 0; t < threads_; ++t) workers.emplace_back(probe, t);
    } catch (...) {
      join();
      throw;
    }
    std::this_thread::sleep_for(kProbeTime);
    join();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return static_cast<double>(ops.load()) / s;
  }

  int threads_;
  std::vector<std::uint64_t> table_;
};

}  // namespace orthrus::bench::oltp

#endif  // ORTHRUS_BENCH_OLTP_HOST_REFERENCE_H_
