//===- test_support.cpp - byte I/O and §6 integer codec tests -------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitStream.h"
#include "support/ByteBuffer.h"
#include "support/Error.h"
#include "support/IdIndex.h"
#include "support/VarInt.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace cjpack;

TEST(ByteBuffer, BigEndianRoundTrip) {
  ByteWriter W;
  W.writeU1(0xAB);
  W.writeU2(0x1234);
  W.writeU4(0xDEADBEEF);
  W.writeU8(0x0123456789ABCDEFull);
  W.writeString("hello");
  ByteReader R(W.data());
  EXPECT_EQ(R.readU1(), 0xAB);
  EXPECT_EQ(R.readU2(), 0x1234);
  EXPECT_EQ(R.readU4(), 0xDEADBEEFu);
  EXPECT_EQ(R.readU8(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.readString(5), "hello");
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.hasError());
}

TEST(ByteBuffer, BigEndianWireLayout) {
  ByteWriter W;
  W.writeU2(0x0102);
  ASSERT_EQ(W.data().size(), 2u);
  EXPECT_EQ(W.data()[0], 0x01); // classfiles are big-endian
  EXPECT_EQ(W.data()[1], 0x02);
}

TEST(ByteBuffer, OverrunSetsErrorInsteadOfCrashing) {
  std::vector<uint8_t> Two = {1, 2};
  ByteReader R(Two);
  EXPECT_EQ(R.readU4(), 0u);
  EXPECT_TRUE(R.hasError());
  EXPECT_TRUE(static_cast<bool>(R.takeError("test")));
}

TEST(ByteBuffer, PatchU2AndU4) {
  ByteWriter W;
  W.writeU4(0);
  W.writeU2(0);
  W.patchU4(0, 0xCAFEBABE);
  W.patchU2(4, 0x4242);
  ByteReader R(W.data());
  EXPECT_EQ(R.readU4(), 0xCAFEBABEu);
  EXPECT_EQ(R.readU2(), 0x4242);
}

TEST(VarInt, SmallValuesAreOneByte) {
  for (uint64_t V : {0ull, 1ull, 42ull, 127ull}) {
    ByteWriter W;
    writeVarUInt(W, V);
    EXPECT_EQ(W.size(), 1u) << V;
    ByteReader R(W.data());
    EXPECT_EQ(readVarUInt(R), V);
  }
}

TEST(VarInt, RoundTripWideRange) {
  for (uint64_t Shift = 0; Shift < 64; ++Shift) {
    uint64_t V = 1ull << Shift;
    for (uint64_t D : {0ull, 1ull}) {
      ByteWriter W;
      writeVarUInt(W, V - D);
      ByteReader R(W.data());
      EXPECT_EQ(readVarUInt(R), V - D);
    }
  }
}

TEST(VarInt, ZigzagMatchesPaperExample) {
  // §6: {-3,-2,-1,0,1,2,3} encodes as {5,3,1,0,2,4,6}.
  EXPECT_EQ(zigzagEncode(-3), 5u);
  EXPECT_EQ(zigzagEncode(-2), 3u);
  EXPECT_EQ(zigzagEncode(-1), 1u);
  EXPECT_EQ(zigzagEncode(0), 0u);
  EXPECT_EQ(zigzagEncode(1), 2u);
  EXPECT_EQ(zigzagEncode(2), 4u);
  EXPECT_EQ(zigzagEncode(3), 6u);
}

TEST(VarInt, SignedRoundTrip) {
  for (int64_t V : std::initializer_list<int64_t>{
           0, -1, 1, -128, 127, -65536, (1ll << 40), -(1ll << 40),
           INT64_MIN, INT64_MAX}) {
    ByteWriter W;
    writeVarInt(W, V);
    ByteReader R(W.data());
    EXPECT_EQ(readVarInt(R), V) << V;
  }
}

TEST(VarInt, OverlongEncodingIsMalformed) {
  // Eleven continuation groups can never be canonical: the tenth byte
  // must terminate the value.
  std::vector<uint8_t> Overlong(11, 0x80);
  Overlong.push_back(0x00);
  ByteReader R(Overlong);
  (void)readVarUInt(R);
  EXPECT_TRUE(R.hasError());
  Error E = R.takeError("varint");
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.code(), ErrorCode::Corrupt);
}

TEST(VarInt, TenthBytePayloadOverflowIsMalformed) {
  // Nine continuation groups carry 63 bits; the tenth byte may only
  // hold the single remaining bit. 0x02 there would be bit 64.
  std::vector<uint8_t> Overflow(9, 0x80);
  Overflow.push_back(0x02);
  ByteReader R(Overflow);
  (void)readVarUInt(R);
  EXPECT_TRUE(R.hasError());
}

TEST(VarInt, MaxValueDecodesAtTenBytes) {
  // UINT64_MAX is the canonical ten-byte extreme and must round-trip.
  ByteWriter W;
  writeVarUInt(W, UINT64_MAX);
  EXPECT_EQ(W.size(), MaxVarUIntBytes);
  ByteReader R(W.data());
  EXPECT_EQ(readVarUInt(R), UINT64_MAX);
  EXPECT_FALSE(R.hasError());
}

TEST(VarInt, RedundantTrailingGroupIsMalformed) {
  // 0x80 0x00 decodes to zero but the canonical form is plain 0x00;
  // accepting both would give a fuzzer two spellings per value.
  std::vector<uint8_t> Padded = {0x80, 0x00};
  ByteReader R(Padded);
  EXPECT_EQ(readVarUInt(R), 0u);
  EXPECT_TRUE(R.hasError());
}

TEST(VarInt, TruncatedVarIntSetsOverrun) {
  std::vector<uint8_t> Cut = {0xFF, 0xFF};
  ByteReader R(Cut);
  (void)readVarUInt(R);
  EXPECT_TRUE(R.hasError());
  Error E = R.takeError("varint");
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.code(), ErrorCode::Truncated);
}

TEST(Bounded, DecodedValueOutsideRangeIsMalformed) {
  // One-byte form: a byte >= N with no escape patterns in play.
  std::vector<uint8_t> High = {200};
  ByteReader R1(High);
  EXPECT_EQ(readBounded(R1, 100), 0u);
  EXPECT_TRUE(R1.hasError());
  // Two-byte form: an escape whose payload lands past N-1.
  ByteWriter W;
  writeBounded(W, 999, 1000);
  std::vector<uint8_t> Bytes = W.data();
  Bytes[1] = 0xFF; // second byte far beyond the range
  ByteReader R2(Bytes);
  EXPECT_EQ(readBounded(R2, 1000), 0u);
  EXPECT_TRUE(R2.hasError());
}

TEST(Bounded, SingleByteWhenRangeFits) {
  // n <= 256 means no escape patterns and a one-byte encoding.
  EXPECT_EQ(boundedEscapeCount(256), 0u);
  ByteWriter W;
  writeBounded(W, 255, 256);
  EXPECT_EQ(W.size(), 1u);
  ByteReader R(W.data());
  EXPECT_EQ(readBounded(R, 256), 255u);
}

class BoundedRangeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BoundedRangeTest, RoundTripsWholeRange) {
  uint32_t N = GetParam();
  // Exhaustive for small N, sampled for large.
  uint32_t Step = N > 5000 ? 97 : 1;
  for (uint32_t X = 0; X < N; X += Step) {
    ByteWriter W;
    writeBounded(W, X, N);
    ASSERT_LE(W.size(), 2u);
    ByteReader R(W.data());
    ASSERT_EQ(readBounded(R, N), X) << "N=" << N;
  }
  // Always check the extremes.
  for (uint32_t X : {0u, N - 1}) {
    ByteWriter W;
    writeBounded(W, X, N);
    ByteReader R(W.data());
    ASSERT_EQ(readBounded(R, N), X);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, BoundedRangeTest,
                         ::testing::Values(1u, 2u, 255u, 256u, 257u, 300u,
                                           1000u, 4243u, 65535u, 65536u));

TEST(Bounded, SmallValuesStayOneByteInLargeRanges) {
  // The low (256 - r) values keep a one-byte encoding.
  uint32_t N = 1000;
  uint32_t Escapes = boundedEscapeCount(N);
  ASSERT_GT(Escapes, 0u);
  for (uint32_t X = 0; X < 256 - Escapes; ++X) {
    ByteWriter W;
    writeBounded(W, X, N);
    EXPECT_EQ(W.size(), 1u) << X;
  }
}

TEST(BitStream, RoundTrip) {
  BitWriter W;
  std::vector<bool> Bits;
  uint64_t Pattern = 0xA5F00F5Aull;
  for (int I = 0; I < 61; ++I) {
    bool B = (Pattern >> (I % 32)) & 1;
    Bits.push_back(B);
    W.writeBit(B);
  }
  std::vector<uint8_t> Bytes = W.finish();
  BitReader R(Bytes);
  for (bool B : Bits)
    EXPECT_EQ(R.readBit(), B);
  // Reads past the end return zero.
  for (int I = 0; I < 16; ++I)
    (void)R.readBit();
}

TEST(Expected, ValueAndError) {
  Expected<int> Ok(42);
  ASSERT_TRUE(static_cast<bool>(Ok));
  EXPECT_EQ(*Ok, 42);
  Expected<int> Bad(makeError("nope"));
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.message(), "nope");
  Error E = Bad.takeError();
  EXPECT_TRUE(static_cast<bool>(E));
}

// The owner's side of an IdIndex: strings stored once, in id order.
namespace {

struct Interner {
  std::vector<std::string> Values;
  IdIndex Index;

  uint32_t intern(std::string_view S) {
    uint32_t Next = static_cast<uint32_t>(Values.size());
    uint32_t Id = Index.insert(Index.hash(S), Next,
                               [&](uint32_t I) { return Values[I] == S; });
    if (Id == Next)
      Values.emplace_back(S);
    return Id;
  }

  uint32_t find(std::string_view S) const {
    return Index.find(Index.hash(S),
                      [&](uint32_t I) { return Values[I] == S; });
  }
};

} // namespace

TEST(IdIndex, IdsAreDenseInInsertionOrderThroughResizes) {
  Interner A, B; // each index draws its own key
  constexpr uint32_t N = 100000;
  EXPECT_EQ(A.find("missing"), IdIndex::None);
  uint32_t Wrong = 0;
  for (uint32_t I = 0; I < N; ++I) {
    std::string S = "key" + std::to_string(I);
    Wrong += A.intern(S) != I;
    Wrong += B.intern(S) != I;
  }
  for (uint32_t I = 0; I < N; ++I) {
    std::string S = "key" + std::to_string(I);
    Wrong += A.intern(S) != I;
    Wrong += A.find(S) != I;
  }
  EXPECT_EQ(Wrong, 0u);
  EXPECT_EQ(A.Values.size(), N);
  EXPECT_EQ(A.find("key100000"), IdIndex::None);
  EXPECT_EQ(A.intern(""), N);
  EXPECT_EQ(A.intern(""), N);
}

TEST(IdIndex, EveryIndexHashesUnderItsOwnKey) {
  IdIndex X, Y;
  EXPECT_EQ(X.hash("java/lang/Object"), X.hash("java/lang/Object"));
  EXPECT_NE(X.hash("java/lang/Object"), Y.hash("java/lang/Object"));
  EXPECT_NE(X.hasher().word(1).finish(), Y.hasher().word(1).finish());
}

TEST(IdIndex, SipHasherSeesEveryByteAndTheLength) {
  IdIndex X;
  // Tails of every length up to two blocks, and the same bytes split
  // between words and tail, hash apart unless the inputs are equal.
  std::vector<uint64_t> Seen;
  std::string S;
  for (int Len = 0; Len <= 16; ++Len) {
    Seen.push_back(X.hash(S));
    S += static_cast<char>('a' + Len);
  }
  Seen.push_back(X.hash(std::string("\0", 1)));
  Seen.push_back(X.hash(std::string("\0\0", 2)));
  std::sort(Seen.begin(), Seen.end());
  EXPECT_EQ(std::adjacent_find(Seen.begin(), Seen.end()), Seen.end());
  // One word absorbed is the same as its eight little-endian bytes.
  uint64_t W = 0x0807060504030201ull;
  EXPECT_EQ(X.hasher().word(W).finish(),
            X.hash(std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8)));
}
