//===- test_archive_reader.cpp - lazy v3 reader behavior ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The PackedArchiveReader contract: correctness (every lazily decoded
// class is byte-identical to the whole-archive decoder's output),
// laziness (single-class access inflates strictly less than a full
// unpack, measured through the shared DecodeBudget), caching (a second
// class from a decoded shard costs no new inflate), and the mmap path
// (InputFile end-to-end through a real file).
//
//===----------------------------------------------------------------------===//

#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/ArchiveReader.h"
#include "pack/Packer.h"
#include "pack/Stats.h"
#include "support/InputFile.h"
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <gtest/gtest.h>
#include <map>
#include <random>
#include <thread>

using namespace cjpack;

namespace {

std::vector<NamedClass> readerCorpus() {
  CorpusSpec Spec;
  Spec.Name = "reader";
  Spec.Seed = 97;
  Spec.NumClasses = 32;
  Spec.NumPackages = 3;
  Spec.MeanMethods = 5;
  Spec.MeanStatements = 8;
  return generateCorpus(Spec);
}

Expected<PackResult> packIndexed(const std::vector<NamedClass> &Classes,
                                 unsigned Shards, bool Compress = true) {
  PackOptions Options;
  Options.Shards = Shards;
  Options.Threads = 2;
  Options.CompressStreams = Compress;
  Options.RandomAccessIndex = true;
  return packClassBytes(Classes, Options);
}

} // namespace

TEST(ArchiveReader, EveryClassMatchesFullDecoder) {
  auto Classes = readerCorpus();
  auto Packed = packIndexed(Classes, 4);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();

  // Reference decode: the same input through the v2 pipeline.
  PackOptions V2;
  V2.Shards = 4;
  V2.Threads = 2;
  auto P2 = packClassBytes(Classes, V2);
  ASSERT_TRUE(static_cast<bool>(P2));
  auto Reference = unpackClasses(P2->Archive, 2u);
  ASSERT_TRUE(static_cast<bool>(Reference));

  auto Reader = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Reader)) << Reader.message();
  ASSERT_EQ(Reader->classCount(), Classes.size());
  ASSERT_EQ(Reader->shardCount(), 4u);

  // unpackClass for every name, against the full decoder in archive
  // order; both pipelines share the §11 eager layout, so positions
  // agree.
  auto Names = Reader->classNames();
  ASSERT_EQ(Names.size(), Reference->size());
  for (size_t I = 0; I < Names.size(); ++I) {
    auto CF = Reader->unpackClass(Names[I]);
    ASSERT_TRUE(static_cast<bool>(CF)) << Names[I] << ": " << CF.message();
    EXPECT_EQ(CF->thisClassName(), Names[I]);
    EXPECT_EQ(writeClassFile(*CF), writeClassFile((*Reference)[I]))
        << Names[I];
  }

  // unpackAll matches too, reusing the now-decoded shards.
  auto All = Reader->unpackAll();
  ASSERT_TRUE(static_cast<bool>(All));
  ASSERT_EQ(All->size(), Reference->size());
  for (size_t I = 0; I < All->size(); ++I)
    EXPECT_EQ(writeClassFile((*All)[I]),
              writeClassFile((*Reference)[I]));
}

// unpackAll decodes shards concurrently. What it restores must not
// depend on the thread count: on fresh readers, on a reader whose
// shards unpackClass already partly decoded (the order fuzz_reader
// uses), and through unpackClasses.
TEST(ArchiveReader, UnpackAllIsIndependentOfThreadCount) {
  auto Classes = readerCorpus();
  auto Packed = packIndexed(Classes, 4);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  auto BytesOf = [](const std::vector<ClassFile> &CFs) {
    std::vector<std::vector<uint8_t>> Out;
    for (const ClassFile &CF : CFs)
      Out.push_back(writeClassFile(CF));
    return Out;
  };

  auto Serial = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Serial)) << Serial.message();
  auto Want = Serial->unpackAll(1);
  ASSERT_TRUE(static_cast<bool>(Want)) << Want.message();
  ASSERT_EQ(Want->size(), Classes.size());

  auto Parallel = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Parallel));
  auto Got = Parallel->unpackAll(4);
  ASSERT_TRUE(static_cast<bool>(Got)) << Got.message();
  EXPECT_EQ(BytesOf(*Got), BytesOf(*Want));
  // Blobs inflate serially either way, so the budget spends the same.
  EXPECT_EQ(Parallel->inflatedBytes(), Serial->inflatedBytes());

  auto Partial = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Partial));
  auto Names = Partial->classNames();
  ASSERT_TRUE(static_cast<bool>(Partial->unpackClass(Names[Names.size() / 2])));
  Got = Partial->unpackAll(4);
  ASSERT_TRUE(static_cast<bool>(Got)) << Got.message();
  EXPECT_EQ(BytesOf(*Got), BytesOf(*Want));

  for (unsigned Threads : {1u, 4u}) {
    auto Out = unpackClasses(Packed->Archive, Threads);
    ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
    EXPECT_EQ(BytesOf(*Out), BytesOf(*Want)) << "threads " << Threads;
  }
}

// The acceptance property of the whole feature: on a multi-shard
// compressed archive, fetching one class inflates strictly fewer bytes
// than a full unpack, as accounted by the DecodeBudget.
TEST(ArchiveReader, SingleClassInflatesStrictlyLess) {
  auto Classes = readerCorpus();
  auto Packed = packIndexed(Classes, 4, /*Compress=*/true);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();

  uint64_t FullInflate = 0;
  {
    auto Reader = PackedArchiveReader::open(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Reader));
    ASSERT_TRUE(static_cast<bool>(Reader->unpackAll()));
    FullInflate = Reader->inflatedBytes();
  }
  ASSERT_GT(FullInflate, 0u);

  auto Reader = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Reader));
  uint64_t AfterOpen = Reader->inflatedBytes();
  auto Names = Reader->classNames();
  auto CF = Reader->unpackClass(Names[Names.size() / 2]);
  ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
  uint64_t AfterOne = Reader->inflatedBytes();
  // Opening inflates at most the dictionary, and the one-class fetch
  // adds exactly one shard's streams — strictly less than all four.
  EXPECT_LT(AfterOpen, AfterOne);
  EXPECT_LT(AfterOne, FullInflate);
}

TEST(ArchiveReader, DecodedShardIsCached) {
  auto Classes = readerCorpus();
  auto Packed = packIndexed(Classes, 2);
  ASSERT_TRUE(static_cast<bool>(Packed));
  auto Reader = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Reader));

  // Decode the last class of shard 0, then earlier ones: the prefix is
  // already decoded and the blob already inflated, so the budget must
  // not move.
  const ArchiveIndex &Index = Reader->index();
  std::vector<std::string> Shard0;
  for (const auto &E : Index.Classes)
    if (E.Shard == 0)
      Shard0.push_back(E.Name);
  ASSERT_GE(Shard0.size(), 2u);
  ASSERT_TRUE(static_cast<bool>(Reader->unpackClass(Shard0.back())));
  uint64_t Spent = Reader->inflatedBytes();
  for (const std::string &Name : Shard0)
    ASSERT_TRUE(static_cast<bool>(Reader->unpackClass(Name)));
  EXPECT_EQ(Reader->inflatedBytes(), Spent);
}

TEST(ArchiveReader, SingleShardAndUnknownName) {
  auto Classes = readerCorpus();
  auto Packed = packIndexed(Classes, 1);
  ASSERT_TRUE(static_cast<bool>(Packed));
  EXPECT_EQ(Packed->Archive[4], FormatVersionIndexed);
  auto Reader = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Reader)) << Reader.message();
  EXPECT_EQ(Reader->shardCount(), 1u);
  auto All = Reader->unpackAll();
  ASSERT_TRUE(static_cast<bool>(All));
  EXPECT_EQ(All->size(), Classes.size());
  EXPECT_FALSE(static_cast<bool>(Reader->unpackClass("no/such/Class")));
}

TEST(ArchiveReader, StatsSumIdentityForIndexed) {
  auto Classes = readerCorpus();
  for (unsigned Shards : {1u, 4u}) {
    auto Packed = packIndexed(Classes, Shards);
    ASSERT_TRUE(static_cast<bool>(Packed));
    auto Stats = statPackedArchive(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Stats)) << Stats.message();
    EXPECT_EQ(Stats->Version, FormatVersionIndexed);
    EXPECT_EQ(Stats->Shards, Shards);
    EXPECT_EQ(Stats->IndexedClasses, Classes.size());
    EXPECT_EQ(Stats->IndexBytes, Packed->IndexBytes);
    EXPECT_GT(Stats->IndexBytes, 0u);
    // Every archive byte is accounted for: header + index + dictionary
    // + per-stream packed == archive size.
    EXPECT_EQ(Stats->HeaderBytes + Stats->IndexBytes +
                  Stats->DictionaryBytes + Stats->Sizes.totalPacked(),
              Packed->Archive.size());
  }
}

TEST(ArchiveReader, DuplicateClassNamesRejectedAtPack) {
  auto Classes = readerCorpus();
  Classes.push_back(Classes.front());
  auto Packed = packIndexed(Classes, 2);
  EXPECT_FALSE(static_cast<bool>(Packed));
  // Without the index the same input still packs (v1/v2 archives are
  // positional, not name-addressed).
  PackOptions V2;
  V2.Shards = 2;
  EXPECT_TRUE(static_cast<bool>(packClassBytes(Classes, V2)));
}

TEST(ArchiveReader, MemoryMappedFileEndToEnd) {
  auto Classes = readerCorpus();
  auto Packed = packIndexed(Classes, 4);
  ASSERT_TRUE(static_cast<bool>(Packed));

  std::string Path =
      ::testing::TempDir() + "cjpack_reader_test.cjp";
  {
    FILE *F = fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(fwrite(Packed->Archive.data(), 1, Packed->Archive.size(), F),
              Packed->Archive.size());
    fclose(F);
  }

  auto File = InputFile::open(Path);
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  ASSERT_EQ(File->size(), Packed->Archive.size());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(File->isMapped());
#endif
  auto Reader = PackedArchiveReader::open(File->data(), File->size());
  ASSERT_TRUE(static_cast<bool>(Reader)) << Reader.message();
  auto Names = Reader->classNames();
  ASSERT_FALSE(Names.empty());
  auto CF = Reader->unpackClass(Names.front());
  ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
  EXPECT_EQ(CF->thisClassName(), Names.front());
  remove(Path.c_str());

  EXPECT_FALSE(static_cast<bool>(InputFile::open(Path + ".missing")));
}

// The thread-safety contract: many threads hammering one shared reader
// (all classes, shuffled per thread) must each see exactly the bytes
// the whole-archive decoder produces, with no torn shard state. Run
// under TSan in CI, this is the proof behind sharing hot readers
// across cjpackd request threads.
TEST(ArchiveReader, ConcurrentUnpackOverSharedReader) {
  auto Classes = readerCorpus();
  auto Packed = packIndexed(Classes, 4);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();

  auto Reader = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Reader)) << Reader.message();
  std::vector<std::string> Names = Reader->classNames();
  ASSERT_EQ(Names.size(), Classes.size());

  // Reference bytes from a fresh, serial reader.
  std::map<std::string, std::vector<uint8_t>> Want;
  {
    auto Ref = PackedArchiveReader::open(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Ref));
    for (const std::string &N : Names) {
      auto CF = Ref->unpackClass(N);
      ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
      Want[N] = writeClassFile(*CF);
    }
  }

  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Mismatches{0};
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      // A different traversal order per thread, so threads contend on
      // different shards at different times.
      std::vector<std::string> Order = Names;
      std::mt19937 Rng(1234 + T);
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (const std::string &N : Order) {
        auto CF = Reader->unpackClass(N);
        if (!CF) {
          Failures.fetch_add(1);
          continue;
        }
        if (writeClassFile(*CF) != Want[N])
          Mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u);
}
