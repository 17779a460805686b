// Client-side commit-latency recorder for the native OLTP benchmark.
//
// Log-linear buckets: values below 64 get one exact bucket each, and every
// octave above is split into 64 equal sub-buckets, so a reported quantile
// is within 1/128 (0.8%) of a recorded value. common::Histogram has four
// sub-buckets per octave, so each percentile it reports is a bucket edge
// up to 25% away; that step is larger than the bounds the benchmark gates
// latency on.
//
// One recorder per worker thread, sized at construction: Record is an
// index computation and one increment, with no allocation.
#ifndef ORTHRUS_BENCH_OLTP_LATENCY_RECORDER_H_
#define ORTHRUS_BENCH_OLTP_LATENCY_RECORDER_H_

#include <array>
#include <cmath>
#include <cstdint>

namespace orthrus::bench::oltp {

class LatencyRecorder {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kNumBuckets = (64 - kSubBits + 1) * kSub;

  void Record(std::uint64_t v) {
    buckets_[Index(v)]++;
    count_++;
  }

  void Merge(const LatencyRecorder& o) {
    for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  std::uint64_t count() const { return count_; }

  // Value at quantile q in [0, 1]: the midpoint of the bucket holding the
  // sample of rank ceil(q * count). 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return Midpoint(i);
    }
    return Midpoint(kNumBuckets - 1);
  }

  // Samples strictly above quantile q's bucket; tells whether a percentile
  // has enough samples beyond it to be reported.
  std::uint64_t CountAbove(double q) const {
    if (count_ == 0) return 0;
    const double cut = Quantile(q);
    std::uint64_t n = 0;
    for (int i = kNumBuckets - 1; i >= 0 && Midpoint(i) > cut; --i) {
      n += buckets_[i];
    }
    return n;
  }

 private:
  static int Index(std::uint64_t v) {
    if (v < static_cast<std::uint64_t>(kSub)) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    const int sub = static_cast<int>(v >> shift) - kSub;
    return (shift + 1) * kSub + sub;
  }

  static double Midpoint(int i) {
    if (i < kSub) return static_cast<double>(i);
    const int shift = i / kSub - 1;
    const double low =
        static_cast<double>(static_cast<std::uint64_t>(kSub + i % kSub)
                            << shift);
    return low + static_cast<double>((1ull << shift) - 1) / 2.0;
  }

  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace orthrus::bench::oltp

#endif  // ORTHRUS_BENCH_OLTP_LATENCY_RECORDER_H_
