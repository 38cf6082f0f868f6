//===- BenchMath.h - the end-to-end benchmark's arithmetic -----*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The few numbers the benchmark derives from raw measurements, kept in
/// one header so MathTest.cpp can pin them:
///
///   - nearest-rank percentiles and the "at least ten samples beyond the
///     reported percentile" rule;
///   - throughput in decimal MB per second;
///   - span self time: a span's duration minus the part of its interval
///     that its child spans cover;
///   - a seeded SplitMix64 generator and a Zipf sampler over archive
///     ranks, so the serve request sequence is a pure function of the
///     workload seed.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_E2EBENCH_BENCHMATH_H
#define CJPACK_E2EBENCH_BENCHMATH_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace e2ebench {

/// Samples a reported percentile must leave above it.
inline constexpr size_t MinSamplesBeyond = 10;

/// 1-based nearest rank of quantile \p Q (0 < Q <= 1) among \p N
/// samples: ceil(Q * N), clamped to [1, N]. 0 when N is 0.
inline size_t percentileRank(size_t N, double Q) {
  if (N == 0)
    return 0;
  // The epsilon keeps exact products (0.9 * 100) from rounding up.
  auto Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(N) - 1e-9));
  return std::clamp<size_t>(Rank, 1, N);
}

/// Samples strictly above the nearest-rank \p Q percentile of \p N.
inline size_t samplesBeyond(size_t N, double Q) {
  return N - percentileRank(N, Q);
}

/// Smallest sample count whose \p Q percentile has \p Beyond samples
/// above it.
inline size_t minSamplesFor(double Q, size_t Beyond = MinSamplesBeyond) {
  size_t N = 1;
  while (samplesBeyond(N, Q) < Beyond)
    ++N;
  return N;
}

/// Nearest-rank \p Q percentile of \p Samples (sorted in place).
inline double percentile(std::vector<double> &Samples, double Q) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  return Samples[percentileRank(Samples.size(), Q) - 1];
}

/// Decimal megabytes per second.
inline double throughputMBs(uint64_t Bytes, double Seconds) {
  return Seconds > 0 ? static_cast<double>(Bytes) / 1e6 / Seconds : 0;
}

/// Length of the union of \p Intervals clipped to [Lo, Hi].
inline double coveredLength(std::vector<std::pair<double, double>> Intervals,
                            double Lo, double Hi) {
  std::sort(Intervals.begin(), Intervals.end());
  double Covered = 0;
  double Reach = Lo;
  for (auto [Start, End] : Intervals) {
    Start = std::max(Start, Reach);
    End = std::min(End, Hi);
    if (End > Start) {
      Covered += End - Start;
      Reach = End;
    }
  }
  return Covered;
}

/// One recorded span. Parent indexes the same span vector (-1 = root);
/// Op groups the spans of one benchmark operation.
struct Span {
  const char *Name = "";
  double Start = 0;
  double End = 0;
  int64_t Parent = -1;
  uint64_t Op = 0;

  double duration() const { return End - Start; }
};

/// Self time of every span in \p Spans: its duration minus the part of
/// its interval covered by its direct children (overlapping children
/// are counted once).
inline std::vector<double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].emplace_back(S.Start, S.End);
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].duration() -
              coveredLength(std::move(Children[I]), Spans[I].Start,
                            Spans[I].End);
  return Self;
}

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, and the same
/// sequence on every platform.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }

  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [0, N), N > 0.
  size_t below(size_t N) {
    return static_cast<size_t>(uniform() * static_cast<double>(N));
  }

private:
  uint64_t State;
};

/// Zipf(S) over ranks 0..N-1: P(k) is proportional to 1 / (k + 1)^S.
class ZipfSampler {
public:
  explicit ZipfSampler(size_t N, double S = 1.0) : Cdf(N) {
    double Sum = 0;
    for (size_t K = 0; K < N; ++K)
      Cdf[K] = (Sum += 1.0 / std::pow(static_cast<double>(K + 1), S));
    for (double &C : Cdf)
      C /= Sum;
  }

  double probability(size_t K) const {
    return K == 0 ? Cdf[0] : Cdf[K] - Cdf[K - 1];
  }

  size_t sample(SplitMix64 &Rng) const {
    double U = Rng.uniform();
    size_t K = static_cast<size_t>(
        std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    return std::min(K, Cdf.size() - 1);
  }

private:
  std::vector<double> Cdf;
};

} // namespace e2ebench

#endif // CJPACK_E2EBENCH_BENCHMATH_H
