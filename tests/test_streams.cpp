//===- test_streams.cpp - stream-set serialization tests ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Rng.h"
#include "pack/Streams.h"
#include "support/VarInt.h"
#include <gtest/gtest.h>

using namespace cjpack;

namespace {

std::vector<uint8_t> fillStreams(StreamSet &S) {
  // Write recognizable content into a few streams.
  for (int I = 0; I < 1000; ++I) {
    writeVarUInt(S.out(StreamId::Counts), static_cast<uint64_t>(I));
    S.out(StreamId::Opcodes).writeU1(static_cast<uint8_t>(I % 7));
  }
  S.out(StreamId::NameChars).writeString("the quick brown fox");
  std::vector<uint8_t> Expected = {1, 2, 3, 4, 5};
  S.out(StreamId::Registers).writeBytes(Expected);
  return Expected;
}

} // namespace

TEST(StreamSet, SerializeDeserializeRoundTrip) {
  for (BackendId Backend : {BackendId::Zlib, BackendId::Store}) {
    StreamSet S;
    std::vector<uint8_t> Regs = fillStreams(S);
    StreamSizes Sizes;
    std::vector<uint8_t> Bytes =
        S.serialize(BackendPlan::uniform(Backend), &Sizes);

    StreamSet S2;
    ByteReader R(Bytes);
    ASSERT_FALSE(static_cast<bool>(S2.deserialize(R)))
        << backendName(Backend);
    EXPECT_TRUE(R.atEnd());
    for (int I = 0; I < 1000; ++I) {
      EXPECT_EQ(readVarUInt(S2.in(StreamId::Counts)),
                static_cast<uint64_t>(I));
      EXPECT_EQ(S2.in(StreamId::Opcodes).readU1(), I % 7);
    }
    EXPECT_EQ(S2.in(StreamId::NameChars).readString(19),
              "the quick brown fox");
    EXPECT_EQ(S2.in(StreamId::Registers).readBytes(5), Regs);
  }
}

TEST(StreamSet, CompressionShrinksRedundantStreams) {
  StreamSet S;
  for (int I = 0; I < 5000; ++I)
    S.out(StreamId::Opcodes).writeU1(static_cast<uint8_t>(I % 3));
  StreamSizes Plain, Packed;
  size_t Raw = S.serialize(BackendPlan::uniform(BackendId::Store), &Plain)
                   .size();
  size_t Comp = S.serialize(BackendPlan::uniform(BackendId::Zlib), &Packed)
                    .size();
  EXPECT_LT(Comp, Raw / 5);
  EXPECT_EQ(Plain.Raw[static_cast<unsigned>(StreamId::Opcodes)], 5000u);
  EXPECT_LT(Packed.Packed[static_cast<unsigned>(StreamId::Opcodes)],
            200u);
}

TEST(StreamSet, IncompressibleStreamsAreStored) {
  StreamSet S;
  Rng R(9);
  for (int I = 0; I < 4096; ++I)
    S.out(StreamId::DoubleConsts).writeU1(static_cast<uint8_t>(R.next()));
  StreamSizes Sizes;
  std::vector<uint8_t> Bytes =
      S.serialize(BackendPlan::uniform(BackendId::Zlib), &Sizes);
  unsigned Idx = static_cast<unsigned>(StreamId::DoubleConsts);
  // Stored verbatim: packed ≈ raw + small header.
  EXPECT_GE(Sizes.Packed[Idx], Sizes.Raw[Idx]);
  EXPECT_LE(Sizes.Packed[Idx], Sizes.Raw[Idx] + 16);
  StreamSet S2;
  ByteReader Rd(Bytes);
  ASSERT_FALSE(static_cast<bool>(S2.deserialize(Rd)));
}

TEST(StreamSet, SizesSumToSerializedBytes) {
  StreamSet S;
  fillStreams(S);
  StreamSizes Sizes;
  std::vector<uint8_t> Bytes =
      S.serialize(BackendPlan::uniform(BackendId::Zlib), &Sizes);
  EXPECT_EQ(Sizes.totalPacked(), Bytes.size());
  size_t ByCategory = 0;
  for (StreamCategory C :
       {StreamCategory::Strings, StreamCategory::Opcodes,
        StreamCategory::Ints, StreamCategory::Refs, StreamCategory::Misc})
    ByCategory += Sizes.packedOf(C);
  EXPECT_EQ(ByCategory, Bytes.size());
}

TEST(StreamSet, DeserializeRejectsCorruption) {
  StreamSet S;
  fillStreams(S);
  std::vector<uint8_t> Bytes =
      S.serialize(BackendPlan::uniform(BackendId::Zlib), nullptr);
  // Truncation at several depths.
  for (size_t Cut : {size_t(1), Bytes.size() / 3, Bytes.size() - 1}) {
    std::vector<uint8_t> Short(Bytes.begin(),
                               Bytes.begin() + static_cast<long>(Cut));
    StreamSet S2;
    ByteReader R(Short);
    EXPECT_TRUE(static_cast<bool>(S2.deserialize(R))) << Cut;
  }
  // Bad stream id in the first header byte.
  std::vector<uint8_t> Bad = Bytes;
  Bad[0] = 0xEE;
  StreamSet S3;
  ByteReader R(Bad);
  EXPECT_TRUE(static_cast<bool>(S3.deserialize(R)));
}

TEST(StreamSet, EveryStreamHasNameAndCategory) {
  for (unsigned I = 0; I < NumStreams; ++I) {
    StreamId Id = static_cast<StreamId>(I);
    EXPECT_STRNE(streamName(Id), "?");
    EXPECT_STRNE(streamCategoryName(streamCategory(Id)), "?");
  }
}

namespace {

/// Three shards with distinct content, one stream populated only by the
/// middle shard, and everything else empty.
std::vector<StreamSet> makeShardSets() {
  std::vector<StreamSet> Shards(3);
  for (size_t K = 0; K < Shards.size(); ++K) {
    for (int I = 0; I < 200 * (static_cast<int>(K) + 1); ++I)
      Shards[K].out(StreamId::Opcodes)
          .writeU1(static_cast<uint8_t>(I % 11 + static_cast<int>(K)));
    Shards[K].out(StreamId::NameChars)
        .writeString("shard" + std::to_string(K));
  }
  Shards[1].out(StreamId::Registers).writeBytes({9, 8, 7});
  return Shards;
}

} // namespace

TEST(ShardedStreams, RoundTripsThroughSerialization) {
  for (BackendId Backend : {BackendId::Zlib, BackendId::Store}) {
    std::vector<StreamSet> Shards = makeShardSets();
    StreamSizes Sizes;
    std::vector<uint8_t> Bytes =
        serializeShardedStreams(Shards, BackendPlan::uniform(Backend), &Sizes);

    ByteReader R(Bytes);
    auto Got = deserializeShardedStreams(R);
    ASSERT_TRUE(static_cast<bool>(Got)) << Got.message();
    EXPECT_TRUE(R.atEnd());
    ASSERT_EQ(Got->size(), Shards.size());
    for (size_t K = 0; K < Shards.size(); ++K)
      for (unsigned I = 0; I < NumStreams; ++I) {
        StreamId Id = static_cast<StreamId>(I);
        const std::vector<uint8_t> &Raw = Shards[K].raw(Id);
        EXPECT_EQ((*Got)[K].in(Id).readBytes(Raw.size()), Raw);
        EXPECT_TRUE((*Got)[K].in(Id).atEnd());
      }
    // Accounting covers everything but the shard-count varint.
    EXPECT_EQ(Sizes.totalPacked() + 1, Bytes.size())
        << backendName(Backend);
  }
}

TEST(ShardedStreams, GroupedCompressionSharesContextAcrossShards) {
  // The same incompressible bytes in every shard: per-shard deflate
  // stores four verbatim copies, the grouped container compresses the
  // repeats as back-references into the first shard's slice.
  Rng Random(11);
  std::vector<uint8_t> Noise;
  for (int I = 0; I < 3000; ++I)
    Noise.push_back(static_cast<uint8_t>(Random.next()));
  std::vector<StreamSet> Shards(4);
  size_t PerShardTotal = 0;
  for (StreamSet &S : Shards) {
    S.out(StreamId::Opcodes).writeBytes(Noise);
    PerShardTotal +=
        S.serialize(BackendPlan::uniform(BackendId::Zlib), nullptr).size();
  }
  std::vector<uint8_t> Grouped =
      serializeShardedStreams(Shards, BackendPlan::uniform(BackendId::Zlib),
                              nullptr);
  EXPECT_LT(Grouped.size(), PerShardTotal / 2);
}

TEST(ShardedStreams, RejectsImplausibleShardCounts) {
  for (uint64_t Count : {uint64_t(0), uint64_t(MaxShards + 1)}) {
    ByteWriter W;
    writeVarUInt(W, Count);
    std::vector<uint8_t> Bytes = W.take();
    ByteReader R(Bytes);
    EXPECT_FALSE(static_cast<bool>(deserializeShardedStreams(R)));
  }
}

TEST(ShardedStreams, RejectsCorruption) {
  std::vector<uint8_t> Bytes =
      serializeShardedStreams(makeShardSets(),
                              BackendPlan::uniform(BackendId::Zlib), nullptr);
  // Truncation at several depths.
  for (size_t Cut : {size_t(1), Bytes.size() / 3, Bytes.size() - 1}) {
    std::vector<uint8_t> Short(Bytes.begin(),
                               Bytes.begin() + static_cast<long>(Cut));
    ByteReader R(Short);
    EXPECT_FALSE(static_cast<bool>(deserializeShardedStreams(R))) << Cut;
  }
  // Bad stream id in the first header byte after the shard count.
  std::vector<uint8_t> Bad = Bytes;
  Bad[1] = 0xEE;
  ByteReader R(Bad);
  EXPECT_FALSE(static_cast<bool>(deserializeShardedStreams(R)));
}
