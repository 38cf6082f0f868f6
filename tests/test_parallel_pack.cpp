//===- test_parallel_pack.cpp - sharded pipeline differential tests -------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The sharded pipeline's contract: for a fixed (input, options, shard
// count) the archive bytes are deterministic, shard-count 1 is
// byte-identical to the original version-1 wire format, and unpacking a
// sharded archive yields classfiles byte-identical to the serial
// pipeline's output for every shard count.
//
//===----------------------------------------------------------------------===//

#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/ClassOrder.h"
#include "pack/Dictionary.h"
#include "pack/Packer.h"
#include "pack/Streams.h"
#include "support/VarInt.h"
#include <gtest/gtest.h>
#include <map>

using namespace cjpack;

namespace {

CorpusSpec parallelSpec(uint64_t Seed, unsigned NumClasses) {
  CorpusSpec S;
  S.Name = "parallel";
  S.Seed = Seed;
  S.NumClasses = NumClasses;
  S.NumPackages = 4;
  S.MeanMethods = 6;
  S.MeanStatements = 10;
  return S;
}

std::vector<ClassFile> preparedCorpus(uint64_t Seed, unsigned NumClasses) {
  std::vector<ClassFile> Classes =
      generateCorpusClasses(parallelSpec(Seed, NumClasses));
  for (ClassFile &CF : Classes)
    EXPECT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  return Classes;
}

std::map<std::string, std::vector<uint8_t>>
bytesByName(const std::vector<ClassFile> &Classes) {
  std::map<std::string, std::vector<uint8_t>> Out;
  for (const ClassFile &CF : Classes)
    Out[std::string(CF.thisClassName())] = writeClassFile(CF);
  return Out;
}

} // namespace

TEST(ParallelPack, SingleShardIsByteIdenticalToSerialFormat) {
  auto Classes = preparedCorpus(7001, 24);
  auto Serial = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Serial)) << Serial.message();

  PackOptions O;
  O.Shards = 1;
  O.Threads = 4;
  auto OneShard = packClasses(Classes, O);
  ASSERT_TRUE(static_cast<bool>(OneShard)) << OneShard.message();

  EXPECT_EQ(OneShard->Archive, Serial->Archive);
  ASSERT_GE(Serial->Archive.size(), 5u);
  EXPECT_EQ(Serial->Archive[4], FormatVersionSerial);
}

TEST(ParallelPack, ShardedArchiveUsesVersionedHeader) {
  auto Classes = preparedCorpus(7002, 24);
  PackOptions O;
  O.Shards = 4;
  auto Packed = packClasses(Classes, O);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  ASSERT_GE(Packed->Archive.size(), 5u);
  EXPECT_EQ(Packed->Archive[4], FormatVersionSharded);
}

TEST(ParallelPack, RoundTripMatchesSerialAcrossShardCounts) {
  auto Classes = preparedCorpus(7003, 40);

  auto Serial = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Serial)) << Serial.message();
  auto SerialOut = unpackClasses(Serial->Archive);
  ASSERT_TRUE(static_cast<bool>(SerialOut)) << SerialOut.message();
  auto Want = bytesByName(*SerialOut);

  for (unsigned Shards : {1u, 2u, 4u, 8u}) {
    PackOptions O;
    O.Shards = Shards;
    O.Threads = 4;
    auto Packed = packClasses(Classes, O);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    for (unsigned Threads : {1u, 3u}) {
      auto Out = unpackClasses(Packed->Archive, Threads);
      ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
      ASSERT_EQ(Out->size(), Classes.size()) << "shards=" << Shards;
      auto Got = bytesByName(*Out);
      EXPECT_EQ(Got, Want) << "shards=" << Shards
                           << " threads=" << Threads;
    }
  }
}

TEST(ParallelPack, ArchiveBytesAreDeterministic) {
  auto Classes = preparedCorpus(7004, 32);
  PackOptions O;
  O.Shards = 4;
  for (unsigned Threads : {1u, 2u, 8u}) {
    O.Threads = Threads;
    auto A = packClasses(Classes, O);
    auto B = packClasses(Classes, O);
    ASSERT_TRUE(static_cast<bool>(A)) << A.message();
    ASSERT_TRUE(static_cast<bool>(B)) << B.message();
    EXPECT_EQ(A->Archive, B->Archive) << "threads=" << Threads;
  }
  // Thread count never changes the bytes; shard count may.
  O.Threads = 1;
  auto One = packClasses(Classes, O);
  O.Threads = 8;
  auto Eight = packClasses(Classes, O);
  ASSERT_TRUE(static_cast<bool>(One) && static_cast<bool>(Eight));
  EXPECT_EQ(One->Archive, Eight->Archive);

  // packClassBytes also parses, prepares and compresses on the pool.
  // Every version, under every backend, packs to the same bytes at any
  // thread count.
  std::vector<NamedClass> Raw = generateCorpus(parallelSpec(7004, 32));
  struct Layout {
    const char *Name;
    unsigned Shards;
    bool Indexed;
  };
  for (Layout L : {Layout{"v1", 1, false}, Layout{"v2", 4, false},
                   Layout{"v3", 4, true}}) {
    for (BackendId B : {BackendId::Store, BackendId::Zlib,
                        BackendId::Huffman, BackendId::Arith}) {
      PackOptions P;
      P.Shards = L.Shards;
      P.RandomAccessIndex = L.Indexed;
      P.Backend = B;
      std::vector<uint8_t> Serial;
      for (unsigned Threads : {1u, 2u, 8u}) {
        P.Threads = Threads;
        auto Packed = packClassBytes(Raw, P);
        ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
        if (Threads == 1)
          Serial = Packed->Archive;
        else
          EXPECT_EQ(Packed->Archive, Serial)
              << L.Name << " backend " << static_cast<int>(B)
              << " threads " << Threads;
      }
    }
  }

  // With two unparseable classes, the first in input order is the one
  // reported, at any thread count.
  Raw[5].Data.resize(9);
  Raw[20].Data.resize(9);
  PackOptions P;
  P.Shards = 4;
  P.Threads = 1;
  auto BadOne = packClassBytes(Raw, P);
  P.Threads = 8;
  auto BadEight = packClassBytes(Raw, P);
  ASSERT_FALSE(static_cast<bool>(BadOne));
  ASSERT_FALSE(static_cast<bool>(BadEight));
  EXPECT_EQ(BadOne.message().rfind(Raw[5].Name + ": ", 0), 0u)
      << BadOne.message();
  EXPECT_EQ(BadEight.message(), BadOne.message());
}

// Every parallel stage keeps one result slot per task and reports the
// first failing task in index order, so the error does not depend on
// which shard fails first. Two classes fail lowering with different
// messages, one in shard 1 and one in shard 3; every thread count
// reports shard 1's.
TEST(ParallelPack, FirstFailingShardWinsAtAnyThreadCount) {
  auto Classes = preparedCorpus(7011, 8);
  // A field name that is no pool entry at all is Corrupt where lowering
  // reads it; the index is in the message.
  auto BreakFieldName = [](ClassFile &CF, uint16_t BadIndex) {
    ASSERT_LT(CF.CP.count(), BadIndex);
    MemberInfo F;
    F.AccessFlags = AccPrivate;
    F.NameIndex = BadIndex;
    F.DescriptorIndex = CF.CP.addUtf8("I");
    CF.Fields.push_back(std::move(F));
  };
  // Shards slice the eager-loading order, two classes each: positions
  // 2-3 are shard 1 and 6-7 shard 3. Adding a field moves no class in
  // that order.
  std::vector<size_t> Order = eagerLoadOrder(Classes);
  BreakFieldName(Classes[Order[2]], 65000);
  BreakFieldName(Classes[Order[6]], 65001);
  ASSERT_EQ(eagerLoadOrder(Classes), Order);

  PackOptions O;
  O.Shards = 4;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    O.Threads = Threads;
    auto Packed = packClasses(Classes, O);
    ASSERT_FALSE(static_cast<bool>(Packed)) << "threads " << Threads;
    EXPECT_EQ(Packed.code(), ErrorCode::Corrupt) << "threads " << Threads;
    EXPECT_NE(Packed.message().find("index 65000 "), std::string::npos)
        << "threads " << Threads << ": " << Packed.message();
  }
  // Shard 3's class fails on its own, with its own message.
  PackOptions One;
  One.Threads = 1;
  auto Alone = packClasses({Classes[Order[6]]}, One);
  ASSERT_FALSE(static_cast<bool>(Alone));
  EXPECT_NE(Alone.message().find("index 65001 "), std::string::npos)
      << Alone.message();
}

TEST(ParallelPack, ShardCountClampsToClassCount) {
  auto Classes = preparedCorpus(7005, 3);
  PackOptions O;
  O.Shards = 16;
  O.Threads = 2;
  auto Packed = packClasses(Classes, O);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  auto Out = unpackClasses(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EXPECT_EQ(Out->size(), 3u);
}

TEST(ParallelPack, ShardedRoundTripUnderNonDefaultOptions) {
  auto Classes = preparedCorpus(7006, 24);
  auto Want = bytesByName(Classes);
  for (PackOptions O : {PackOptions()}) {
    O.Shards = 3;
    O.CompressStreams = false;
    auto Packed = packClasses(Classes, O);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    auto Out = unpackClasses(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
    EXPECT_EQ(bytesByName(*Out), Want);

    O.CompressStreams = true;
    O.Scheme = RefScheme::Simple;
    Packed = packClasses(Classes, O);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    Out = unpackClasses(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
    EXPECT_EQ(bytesByName(*Out), Want);
  }
}

TEST(ParallelPack, SizesAccumulateAcrossShards) {
  auto Classes = preparedCorpus(7007, 32);
  PackOptions O;
  O.Shards = 4;
  auto Packed = packClasses(Classes, O);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  EXPECT_EQ(Packed->ClassCount, 32u);
  // Header + shard table precede the payloads the accounting covers.
  EXPECT_GT(Packed->Sizes.totalPacked(), 0u);
  EXPECT_LT(Packed->Sizes.totalPacked(), Packed->Archive.size());
  EXPECT_GE(Packed->Archive.size(), Packed->Sizes.totalPacked() + 7);
}

TEST(ParallelPack, TruncatedShardedArchiveFailsCleanly) {
  auto Classes = preparedCorpus(7008, 16);
  PackOptions O;
  O.Shards = 4;
  auto Packed = packClasses(Classes, O);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  std::vector<uint8_t> Cut(Packed->Archive.begin(),
                           Packed->Archive.begin() +
                               Packed->Archive.size() / 2);
  auto Out = unpackClasses(Cut);
  EXPECT_FALSE(static_cast<bool>(Out));
}

namespace {

/// The seven-byte archive header: magic, version, scheme, flags.
void writeArchiveHeader(ByteWriter &W, uint8_t Version) {
  W.writeU4(0x434A504Bu);
  W.writeU1(Version);
  W.writeU1(static_cast<uint8_t>(RefScheme::MtfTransientsContext));
  W.writeU1(0);
}

} // namespace

TEST(ParallelPack, TruncatedShardTableFailsCleanly) {
  // A sharded header promising shards but ending right after the shard
  // count: the shard table itself is the truncation point.
  ByteWriter W;
  writeArchiveHeader(W, FormatVersionSharded);
  writeVarUInt(W, 0); // empty dictionary frame: raw length 0
  writeVarUInt(W, 0); // stored length 0
  writeVarUInt(W, 3); // three shards, then nothing
  auto Out = unpackClasses(W.take());
  ASSERT_FALSE(static_cast<bool>(Out));
  EXPECT_NE(Out.code(), ErrorCode::Other) << Out.message();
}

TEST(ParallelPack, DictionaryClassRefOutOfRangeFailsCleanly) {
  // A dictionary whose class ref indexes package 5 of an empty package
  // list must be rejected at deserialize time, before any shard can
  // replay it into a model.
  ByteWriter Body;
  for (int List = 0; List < 5; ++List)
    writeVarUInt(Body, 0); // Packages..Strings all empty
  writeVarUInt(Body, 1);   // one class ref
  Body.writeU1(0);         // dims
  Body.writeU1('L');
  writeVarUInt(Body, 5); // package index into the empty list
  writeVarUInt(Body, 0);
  std::vector<uint8_t> Raw = Body.take();
  ByteWriter Frame;
  writeVarUInt(Frame, Raw.size());
  writeVarUInt(Frame, Raw.size()); // stored == raw: not deflated
  Frame.writeBytes(Raw);
  std::vector<uint8_t> Bytes = Frame.take();
  ByteReader R(Bytes);
  auto Dict = SharedDictionary::deserialize(R);
  ASSERT_FALSE(static_cast<bool>(Dict));
  EXPECT_EQ(Dict.code(), ErrorCode::Corrupt) << Dict.message();
}

TEST(ParallelPack, DuplicateStreamIdFailsCleanly) {
  // A sharded container repeating stream id 0 where id 1 belongs: ids
  // must appear in order, or some stream's reader would never be
  // populated.
  ByteWriter W;
  writeVarUInt(W, 1); // one shard
  for (int Stream = 0; Stream < 2; ++Stream) {
    W.writeU1(0); // id 0 twice
    W.writeU1(0); // method: stored
    writeVarUInt(W, 0); // shard raw length
    writeVarUInt(W, 0); // stored length
  }
  std::vector<uint8_t> Bytes = W.take();
  ByteReader R(Bytes);
  auto Shards = deserializeShardedStreams(R);
  ASSERT_FALSE(static_cast<bool>(Shards));
  EXPECT_EQ(Shards.code(), ErrorCode::Corrupt) << Shards.message();
}

TEST(ParallelPack, SerialStreamSetWithShuffledIdsFailsCleanly) {
  // The version-1 body writes all 21 streams in id order; a swapped id
  // byte used to leave a null stream reader behind. It must be Corrupt.
  auto Classes = preparedCorpus(7009, 8);
  auto Packed = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  std::vector<uint8_t> Mutant = Packed->Archive;
  // Byte 7 is the first stream header's id byte (header is 7 bytes).
  ASSERT_EQ(Mutant[7], 0);
  Mutant[7] = 5;
  auto Out = unpackClasses(Mutant);
  ASSERT_FALSE(static_cast<bool>(Out));
  EXPECT_EQ(Out.code(), ErrorCode::Corrupt) << Out.message();
}
