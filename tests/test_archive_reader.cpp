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

std::vector<std::vector<uint8_t>> bytesOf(const std::vector<ClassFile> &CFs) {
  std::vector<std::vector<uint8_t>> Out;
  for (const ClassFile &CF : CFs)
    Out.push_back(writeClassFile(CF));
  return Out;
}

/// unpackClass of \p Name, written out.
Expected<std::vector<uint8_t>> classBytes(PackedArchiveReader &Reader,
                                          const std::string &Name) {
  auto CF = Reader.unpackClass(Name);
  if (!CF)
    return CF.takeError();
  return writeClassFile(*CF);
}

/// Every class of \p Names written out by a fresh, serial reader.
std::map<std::string, std::vector<uint8_t>>
referenceBytes(const std::vector<uint8_t> &Archive,
               const std::vector<std::string> &Names) {
  std::map<std::string, std::vector<uint8_t>> Want;
  auto Ref = PackedArchiveReader::open(Archive);
  EXPECT_TRUE(static_cast<bool>(Ref)) << Ref.message();
  if (!Ref)
    return Want;
  for (const std::string &N : Names) {
    auto Bytes = classBytes(*Ref, N);
    EXPECT_TRUE(static_cast<bool>(Bytes)) << N << ": " << Bytes.message();
    if (Bytes)
      Want[N] = std::move(*Bytes);
  }
  return Want;
}

/// Eight threads each fetch every class of \p Names through \p Fetch
/// (thread number, class name), in a traversal order of their own, so
/// threads contend on different shards at different times. Expects
/// every fetch to give exactly \p Want's bytes.
template <typename FetchFn>
void fetchConcurrently(const std::vector<std::string> &Names,
                       const std::map<std::string, std::vector<uint8_t>> &Want,
                       FetchFn Fetch) {
  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Mismatches{0};
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      std::vector<std::string> Order = Names;
      std::mt19937 Rng(1234 + T);
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (const std::string &N : Order) {
        Expected<std::vector<uint8_t>> Got = Fetch(T, N);
        if (!Got) {
          Failures.fetch_add(1);
          continue;
        }
        if (*Got != Want.at(N))
          Mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u);
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

  auto Serial = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Serial)) << Serial.message();
  auto Want = Serial->unpackAll(1);
  ASSERT_TRUE(static_cast<bool>(Want)) << Want.message();
  ASSERT_EQ(Want->size(), Classes.size());

  auto Parallel = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Parallel));
  auto Got = Parallel->unpackAll(4);
  ASSERT_TRUE(static_cast<bool>(Got)) << Got.message();
  EXPECT_EQ(bytesOf(*Got), bytesOf(*Want));
  // Blobs inflate serially either way, so the budget spends the same.
  EXPECT_EQ(Parallel->inflatedBytes(), Serial->inflatedBytes());

  auto Partial = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Partial));
  auto Names = Partial->classNames();
  ASSERT_TRUE(static_cast<bool>(Partial->unpackClass(Names[Names.size() / 2])));
  Got = Partial->unpackAll(4);
  ASSERT_TRUE(static_cast<bool>(Got)) << Got.message();
  EXPECT_EQ(bytesOf(*Got), bytesOf(*Want));

  for (unsigned Threads : {1u, 4u}) {
    auto Out = unpackClasses(Packed->Archive, Threads);
    ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
    EXPECT_EQ(bytesOf(*Out), bytesOf(*Want)) << "threads " << Threads;
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
  auto Want = referenceBytes(Packed->Archive, Names);
  ASSERT_EQ(Want.size(), Names.size());

  fetchConcurrently(Names, Want, [&](unsigned, const std::string &N) {
    return classBytes(*Reader, N);
  });
}

// unpackClassBytes serves, class by class and in any order, what
// writeClassFile of a fresh reader's unpackClass gives. Once every
// class is served the reader holds bytes only, yet unpackClass and
// unpackAll on it restore the same classes, and nothing inflates again.
TEST(ArchiveReader, ServedBytesMatchUnpackClass) {
  auto Classes = readerCorpus();
  auto Packed = packIndexed(Classes, 4);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  auto Ref = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Ref)) << Ref.message();
  auto Want = Ref->unpackAll(1);
  ASSERT_TRUE(static_cast<bool>(Want)) << Want.message();
  std::vector<std::vector<uint8_t>> WantBytes = bytesOf(*Want);

  auto Reader = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Reader)) << Reader.message();
  std::vector<std::string> Names = Reader->classNames();
  std::vector<std::string> Order = Names;
  std::shuffle(Order.begin(), Order.end(), std::mt19937(77));
  for (size_t I = 0; I < Order.size(); ++I) {
    const std::string &N = Order[I];
    auto Fresh = PackedArchiveReader::open(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Fresh));
    auto Expect = classBytes(*Fresh, N);
    ASSERT_TRUE(static_cast<bool>(Expect)) << N << ": " << Expect.message();
    auto Got = Reader->unpackClassBytes(N);
    ASSERT_TRUE(static_cast<bool>(Got)) << N << ": " << Got.message();
    EXPECT_EQ(*Got, *Expect) << N;
    auto Again = Reader->unpackClassBytes(N);
    ASSERT_TRUE(static_cast<bool>(Again)) << N << ": " << Again.message();
    EXPECT_EQ(*Again, *Expect) << N;
    // Halfway, the shards hold some classes as bytes and the rest as
    // records or not yet decoded; unpackAll reads all three.
    if (I == Order.size() / 2) {
      auto Mixed = Reader->unpackAll(4);
      ASSERT_TRUE(static_cast<bool>(Mixed)) << Mixed.message();
      EXPECT_EQ(bytesOf(*Mixed), WantBytes);
    }
  }
  uint64_t Spent = Reader->inflatedBytes();
  EXPECT_EQ(Spent, Ref->inflatedBytes());

  for (size_t I = 0; I < Names.size(); ++I) {
    auto Got = classBytes(*Reader, Names[I]);
    ASSERT_TRUE(static_cast<bool>(Got)) << Names[I] << ": " << Got.message();
    EXPECT_EQ(*Got, WantBytes[I]) << Names[I];
  }
  for (unsigned Threads : {1u, 4u}) {
    auto All = Reader->unpackAll(Threads);
    ASSERT_TRUE(static_cast<bool>(All)) << All.message();
    EXPECT_EQ(bytesOf(*All), WantBytes) << "threads " << Threads;
  }
  EXPECT_EQ(Reader->inflatedBytes(), Spent);
  EXPECT_FALSE(static_cast<bool>(Reader->unpackClassBytes("no/such/Class")));
}

// Served bytes under contention: eight threads fetch every class of one
// 4-shard reader in orders of their own, half serving bytes and half
// restoring ClassFiles, so shards convert classes and drop their decode
// state while other threads still fetch from them.
TEST(ArchiveReader, ConcurrentServedBytesOverSharedReader) {
  auto Classes = readerCorpus();
  auto Packed = packIndexed(Classes, 4);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();

  auto Reader = PackedArchiveReader::open(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Reader)) << Reader.message();
  std::vector<std::string> Names = Reader->classNames();
  auto Want = referenceBytes(Packed->Archive, Names);
  ASSERT_EQ(Want.size(), Names.size());

  fetchConcurrently(Names, Want, [&](unsigned T, const std::string &N) {
    return T % 2 == 0 ? Reader->unpackClassBytes(N) : classBytes(*Reader, N);
  });
  for (const std::string &N : Names) {
    auto Got = Reader->unpackClassBytes(N);
    ASSERT_TRUE(static_cast<bool>(Got)) << N << ": " << Got.message();
    EXPECT_EQ(*Got, Want[N]) << N;
  }
}

namespace {

/// What walkShard saw on the flipped archive.
struct ShardWalk {
  bool AnyFailed = false;
  /// A class served on the first pass failed on the second: the
  /// shard's latched error won over its kept bytes.
  bool ServedThenFailed = false;
};

/// Walks the classes of shard \p K in ordinal order, twice, on two
/// fresh readers over \p Archive: one serving bytes, one restoring
/// ClassFiles. Expects them to agree on every call: the same bytes, or
/// the same error code and message.
ShardWalk walkShard(const std::vector<uint8_t> &Archive, uint32_t K) {
  ShardWalk Out;
  auto Served = PackedArchiveReader::open(Archive);
  auto Restored = PackedArchiveReader::open(Archive);
  EXPECT_TRUE(Served && Restored);
  if (!Served || !Restored)
    return Out;
  std::vector<ArchiveIndex::ClassEntry> Entries;
  for (const ArchiveIndex::ClassEntry &E : Served->index().Classes)
    if (E.Shard == K)
      Entries.push_back(E);
  std::sort(Entries.begin(), Entries.end(),
            [](const auto &A, const auto &B) { return A.Ordinal < B.Ordinal; });
  std::vector<bool> ServedOk(Entries.size());
  for (int Pass = 0; Pass < 2; ++Pass) {
    for (size_t I = 0; I < Entries.size(); ++I) {
      const std::string &N = Entries[I].Name;
      auto Got = Served->unpackClassBytes(N);
      auto Expect = classBytes(*Restored, N);
      EXPECT_EQ(static_cast<bool>(Got), static_cast<bool>(Expect))
          << N << " pass " << Pass;
      if (Got && Expect) {
        EXPECT_EQ(*Got, *Expect) << N << " pass " << Pass;
        ServedOk[I] = true;
      } else if (!Got && !Expect) {
        EXPECT_EQ(Got.code(), Expect.code()) << N << " pass " << Pass;
        EXPECT_EQ(Got.message(), Expect.message()) << N << " pass " << Pass;
        Out.AnyFailed = true;
        Out.ServedThenFailed |= Pass == 1 && ServedOk[I];
      }
    }
  }
  return Out;
}

/// \p Archive with one byte of shard \p K's blob, at \p Offset into the
/// blob, flipped. Blobs tile the archive's tail in index order.
std::vector<uint8_t> flipInShard(std::vector<uint8_t> Archive,
                                 const ArchiveIndex &Index, uint32_t K,
                                 uint64_t Offset) {
  uint64_t Blobs = 0;
  for (const ArchiveIndex::ShardExtent &S : Index.Shards)
    Blobs += S.Length;
  Archive[Archive.size() - Blobs + Index.Shards[K].Offset + Offset] ^= 0x5a;
  return Archive;
}

} // namespace

// A poisoned shard fails alike through both fetch calls, on the first
// call and on every repeat, and its latched error wins over bytes it
// already served. A flip inside a compressed blob poisons the shard at
// its inflate; a flip in a raw blob can let early classes decode (and
// be served) before a later one poisons the shard.
TEST(ArchiveReader, PoisonedShardFailsAlikeForServedBytes) {
  auto Classes = readerCorpus();
  constexpr uint32_t K = 1;
  for (bool Compress : {true, false}) {
    auto Packed = packIndexed(Classes, 4, Compress);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    auto Reader = PackedArchiveReader::open(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Reader));
    const ArchiveIndex &Index = Reader->index();
    uint64_t Length = Index.Shards[K].Length;
    bool Found = false;
    for (uint64_t Offset = Length / 2; Offset < Length && !Found; ++Offset) {
      ShardWalk W =
          walkShard(flipInShard(Packed->Archive, Index, K, Offset), K);
      Found = Compress ? W.AnyFailed : W.ServedThenFailed;
    }
    EXPECT_TRUE(Found) << (Compress ? "compressed" : "raw")
                       << ": no flip poisoned the shard";
  }
}
