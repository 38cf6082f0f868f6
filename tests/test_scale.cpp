//===- test_scale.cpp - shard autotuning and 10k-class smoke --------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Two things live here: unit tests for autoShardCount (the resolver
// behind PackOptions::Shards = 0), and the scale smoke — a 10k-class
// corpus packed with autotuned shards and round-tripped, so the whole
// zero-copy pipeline is exercised at modern-jar scale under ctest, not
// just in benchmarks.
//
//===----------------------------------------------------------------------===//

#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/Packer.h"
#include "pack/Streams.h"
#include <gtest/gtest.h>
#include <map>
#include <thread>

using namespace cjpack;

//===----------------------------------------------------------------------===//
// autoShardCount
//===----------------------------------------------------------------------===//

TEST(AutoShard, SerialFloorKeepsTinyCorporaSingleShard) {
  EXPECT_EQ(autoShardCount(0), 1u);
  EXPECT_EQ(autoShardCount(1), 1u);
  EXPECT_EQ(autoShardCount(AutoShardClassesPerShard), 1u);
  EXPECT_EQ(autoShardCount(2 * AutoShardClassesPerShard - 1), 1u);
}

TEST(AutoShard, ScalesWithClassCountUpToHardware) {
  size_t Hw = std::max(1u, std::thread::hardware_concurrency());
  size_t At2 = autoShardCount(2 * AutoShardClassesPerShard);
  EXPECT_EQ(At2, std::min<size_t>(2, Hw));
  // Monotonic in the class count, and never past the hardware or the
  // wire-format cap.
  size_t Prev = 0;
  for (size_t N : {size_t(512), size_t(1000), size_t(10000),
                   size_t(1000000), size_t(100000000)}) {
    size_t S = autoShardCount(N);
    EXPECT_GE(S, Prev);
    EXPECT_LE(S, Hw);
    EXPECT_LE(S, MaxShards);
    Prev = S;
  }
}

TEST(AutoShard, IsDeterministic) {
  for (size_t N : {size_t(0), size_t(300), size_t(5000), size_t(20000)})
    EXPECT_EQ(autoShardCount(N), autoShardCount(N));
}

TEST(AutoShard, ShardsZeroMatchesExplicitCount) {
  // Shards = 0 must behave exactly like spelling out the autotuned
  // count: the archive stays a pure function of (input, options,
  // shard count).
  CorpusSpec Spec = scaleBenchmark(600);
  std::vector<ClassFile> Classes = generateCorpusClasses(Spec);
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));

  PackOptions Auto;
  Auto.Shards = 0;
  auto A = packClasses(Classes, Auto);
  ASSERT_TRUE(static_cast<bool>(A)) << A.message();

  PackOptions Explicit;
  Explicit.Shards = static_cast<unsigned>(autoShardCount(Classes.size()));
  auto E = packClasses(Classes, Explicit);
  ASSERT_TRUE(static_cast<bool>(E)) << E.message();

  EXPECT_EQ(A->Archive, E->Archive);
  EXPECT_EQ(A->Trace.Shards.size(), autoShardCount(Classes.size()));
}

//===----------------------------------------------------------------------===//
// 10k-class scale smoke
//===----------------------------------------------------------------------===//

TEST(Scale, TenThousandClassRoundTrip) {
  CorpusSpec Spec = scaleBenchmark(10000);
  std::vector<ClassFile> Classes = generateCorpusClasses(Spec);
  ASSERT_EQ(Classes.size(), 10000u);
  size_t TotalBytes = 0;
  for (const ClassFile &CF : Classes)
    TotalBytes += writeClassFile(CF).size();
  EXPECT_GT(TotalBytes, 50u * 1024 * 1024)
      << "scale corpus shrank below the 50 MB campaign floor";

  std::map<std::string, std::vector<uint8_t>> Want;
  for (ClassFile &CF : Classes) {
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
    Want[std::string(CF.thisClassName())] = writeClassFile(CF);
  }

  PackOptions O;
  O.Shards = 0;  // autotune
  O.Threads = 0; // all hardware threads
  auto Packed = packClasses(Classes, O);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  EXPECT_EQ(Packed->ClassCount, Classes.size());
  EXPECT_EQ(Packed->Trace.Shards.size(), autoShardCount(Classes.size()));
  EXPECT_LT(Packed->Archive.size(), TotalBytes / 2)
      << "scale archive compresses poorly";

  auto Restored = unpackClasses(Packed->Archive, /*Threads=*/0u);
  ASSERT_TRUE(static_cast<bool>(Restored)) << Restored.message();
  ASSERT_EQ(Restored->size(), Classes.size());
  // Archive order is the eager-load order, not input order; compare as
  // a name -> bytes map.
  size_t Mismatches = 0;
  for (const ClassFile &CF : *Restored) {
    auto It = Want.find(std::string(CF.thisClassName()));
    if (It == Want.end() || writeClassFile(CF) != It->second)
      ++Mismatches;
  }
  EXPECT_EQ(Mismatches, 0u);
}
