//===- MathTest.cpp - tests of the benchmark's arithmetic ----------------===//
//
// Part of cjpack. MIT license.
//
// Pins the numbers the end-to-end benchmark derives from raw samples:
// percentile ranks and the ten-samples-beyond rule, throughput, span
// self time, and the seeded Zipf request sampler. Run it with
// `python3 e2ebench/run.py --test`.
//
//===----------------------------------------------------------------------===//

#include "BenchMath.h"
#include <gtest/gtest.h>

using namespace e2ebench;

namespace {

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentileRank(100, 0.5), 50u);
  EXPECT_EQ(percentileRank(100, 0.9), 90u);
  EXPECT_EQ(percentileRank(101, 0.9), 91u); // ceil(90.9)
  EXPECT_EQ(percentileRank(1, 0.99), 1u);
  EXPECT_EQ(percentileRank(10, 1.0), 10u);
  EXPECT_EQ(percentileRank(0, 0.5), 0u);

  std::vector<double> V = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(V, 0.5), 3);
  EXPECT_EQ(percentile(V, 0.75), 4);
  EXPECT_EQ(percentile(V, 0.99), 5);
  std::vector<double> Empty;
  EXPECT_EQ(percentile(Empty, 0.5), 0);
}

TEST(Percentile, TenSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(minSamplesFor(0.5), 20u);
  EXPECT_EQ(minSamplesFor(0.75), 40u);
  EXPECT_EQ(minSamplesFor(0.9), 100u);
  EXPECT_EQ(minSamplesFor(0.99), 1000u);
  for (double Q : {0.5, 0.75, 0.9, 0.99}) {
    size_t N = minSamplesFor(Q);
    EXPECT_GE(samplesBeyond(N, Q), MinSamplesBeyond) << Q;
    EXPECT_LT(samplesBeyond(N - 1, Q), MinSamplesBeyond) << Q;
  }
}

TEST(Throughput, DecimalMegabytesPerSecond) {
  EXPECT_DOUBLE_EQ(throughputMBs(10'000'000, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(throughputMBs(1'500'000, 0.5), 3.0);
  EXPECT_EQ(throughputMBs(123, 0), 0);
}

TEST(SelfTime, SubtractsChildCoverage) {
  // op [0,100] with children [10,30] and [50,60]; the first child has
  // a grandchild that must not count against op.
  std::vector<Span> S = {
      {"op", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 50, 60, 0, 1},
      {"a.inner", 12, 20, 1, 1},
  };
  std::vector<double> Self = selfTimes(S);
  EXPECT_DOUBLE_EQ(Self[0], 70);
  EXPECT_DOUBLE_EQ(Self[1], 12);
  EXPECT_DOUBLE_EQ(Self[2], 10);
  EXPECT_DOUBLE_EQ(Self[3], 8);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  std::vector<Span> S = {
      {"op", 0, 100, -1, 1},
      {"x", 10, 40, 0, 1},
      {"y", 30, 50, 0, 1},   // overlaps x by 10
      {"z", 90, 120, 0, 1},  // runs past its parent's end
      {"w", -5, 5, 0, 1},    // starts before its parent
  };
  EXPECT_DOUBLE_EQ(selfTimes(S)[0], 100 - 40 - 10 - 5);
}

TEST(Zipf, SeededAndSkewed) {
  ZipfSampler Z(8);
  double Harmonic = 0;
  for (int K = 1; K <= 8; ++K)
    Harmonic += 1.0 / K;
  for (size_t K = 0; K < 8; ++K)
    EXPECT_NEAR(Z.probability(K), 1.0 / static_cast<double>(K + 1) / Harmonic,
                1e-12);

  SplitMix64 A(9001), B(9001), C(9002);
  std::vector<size_t> SeqA, SeqB, SeqC;
  for (int I = 0; I < 64; ++I) {
    SeqA.push_back(Z.sample(A));
    SeqB.push_back(Z.sample(B));
    SeqC.push_back(Z.sample(C));
  }
  EXPECT_EQ(SeqA, SeqB);
  EXPECT_NE(SeqA, SeqC);

  // Frequencies converge on 1/k: 200k draws put each within 1% abs.
  SplitMix64 R(1);
  std::vector<double> Count(8);
  constexpr int Draws = 200000;
  for (int I = 0; I < Draws; ++I)
    ++Count[Z.sample(R)];
  for (size_t K = 0; K < 8; ++K)
    EXPECT_NEAR(Count[K] / Draws, Z.probability(K), 0.01) << K;
}

TEST(SplitMix64, KnownSequenceAndRanges) {
  // First outputs for seed 0, as published with the algorithm.
  SplitMix64 R(0);
  EXPECT_EQ(R.next(), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(R.next(), 0x6E789E6AA1B965F4ull);
  SplitMix64 U(5);
  for (int I = 0; I < 1000; ++I) {
    double X = U.uniform();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
    EXPECT_LT(U.below(7), 7u);
  }
}

} // namespace
