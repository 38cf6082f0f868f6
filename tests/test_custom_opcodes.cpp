//===- test_custom_opcodes.cpp - §7.2 digram coder tests ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Instruction.h"
#include "corpus/Corpus.h"
#include "corpus/Rng.h"
#include "pack/CustomOpcodes.h"
#include "pack/Packer.h"
#include <gtest/gtest.h>

using namespace cjpack;

TEST(CustomOpcodes, SimplePairIsFound) {
  // "ab" repeated: a single custom opcode should absorb the pair.
  std::vector<uint8_t> Stream;
  for (int I = 0; I < 100; ++I) {
    Stream.push_back(10);
    Stream.push_back(20);
  }
  CustomOpcodeResult R = buildCustomOpcodes(Stream, 8, 202);
  ASSERT_GE(R.Codebook.size(), 1u);
  EXPECT_EQ(R.Codebook[0].First, 10);
  EXPECT_EQ(R.Codebook[0].Second, 20);
  EXPECT_FALSE(R.Codebook[0].Skip);
  EXPECT_LE(R.Stream.size(), Stream.size() / 2 + 4);
  EXPECT_EQ(expandCustomOpcodes(R.Stream, R.Codebook, 202), Stream);
}

TEST(CustomOpcodes, SkipPairIsFound) {
  // a ? b with varying middles: only a skip-pair can absorb it.
  std::vector<uint8_t> Stream;
  Rng R(3);
  for (int I = 0; I < 200; ++I) {
    Stream.push_back(10);
    Stream.push_back(static_cast<uint8_t>(R.below(90) + 100));
    Stream.push_back(20);
  }
  CustomOpcodeResult Res = buildCustomOpcodes(Stream, 4, 202);
  ASSERT_GE(Res.Codebook.size(), 1u);
  bool FoundSkip = false;
  for (const CustomOp &Op : Res.Codebook)
    if (Op.Skip && Op.First == 10 && Op.Second == 20)
      FoundSkip = true;
  EXPECT_TRUE(FoundSkip);
  EXPECT_EQ(expandCustomOpcodes(Res.Stream, Res.Codebook, 202), Stream);
}

TEST(CustomOpcodes, NestedCustomOpsExpandCorrectly) {
  // "abcd" repeated forces chains: new1=(a,b), new2=(c,d), maybe
  // new3=(new1,new2). Expansion must invert the full chain.
  std::vector<uint8_t> Stream;
  for (int I = 0; I < 200; ++I)
    for (uint8_t B : {1, 2, 3, 4})
      Stream.push_back(B);
  CustomOpcodeResult R = buildCustomOpcodes(Stream, 16, 202);
  EXPECT_GE(R.Codebook.size(), 2u);
  EXPECT_LT(R.Stream.size(), Stream.size() / 2);
  EXPECT_EQ(expandCustomOpcodes(R.Stream, R.Codebook, 202), Stream);
}

TEST(CustomOpcodes, NoPairsMeansNoOps) {
  // All-distinct stream: nothing recurs, nothing to combine.
  std::vector<uint8_t> Stream;
  for (int I = 0; I < 200; ++I)
    Stream.push_back(static_cast<uint8_t>(I));
  CustomOpcodeResult R = buildCustomOpcodes(Stream, 8, 202);
  EXPECT_TRUE(R.Codebook.empty());
  EXPECT_EQ(R.Stream.size(), Stream.size());
}

TEST(CustomOpcodes, EmptyAndTinyStreams) {
  for (size_t N : {size_t(0), size_t(1), size_t(3)}) {
    std::vector<uint8_t> Stream(N, 42);
    CustomOpcodeResult R = buildCustomOpcodes(Stream, 8, 202);
    EXPECT_EQ(expandCustomOpcodes(R.Stream, R.Codebook, 202), Stream);
  }
}

TEST(CustomOpcodes, EstimatedBitsDecrease) {
  std::vector<uint8_t> Stream;
  Rng Rg(7);
  for (int I = 0; I < 3000; ++I) {
    // Skewed digram structure.
    uint8_t A = static_cast<uint8_t>(Rg.zipf(12));
    Stream.push_back(A);
    Stream.push_back(static_cast<uint8_t>(A + 50));
  }
  CustomOpcodeResult R = buildCustomOpcodes(Stream, 32, 202);
  EXPECT_LT(R.EstimatedBitsAfter, R.EstimatedBitsBefore);
  EXPECT_EQ(expandCustomOpcodes(R.Stream, R.Codebook, 202), Stream);
}

class CustomOpcodeSeedTest : public ::testing::TestWithParam<uint64_t> {};

/// Property: build + expand is the identity on random-ish opcode-like
/// streams, at any codebook size.
TEST_P(CustomOpcodeSeedTest, RoundTripsRandomStreams) {
  Rng R(GetParam());
  std::vector<uint8_t> Stream;
  size_t N = 200 + R.below(3000);
  for (size_t I = 0; I < N; ++I)
    Stream.push_back(static_cast<uint8_t>(R.zipf(60)));
  for (unsigned MaxOps : {1u, 8u, 54u}) {
    CustomOpcodeResult Res = buildCustomOpcodes(Stream, MaxOps, 202);
    EXPECT_LE(Res.Codebook.size(), MaxOps);
    for (const CustomOp &Op : Res.Codebook)
      EXPECT_GE(Op.Code, 202);
    EXPECT_EQ(expandCustomOpcodes(Res.Stream, Res.Codebook, 202), Stream)
        << "seed " << GetParam() << " maxops " << MaxOps;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CustomOpcodeSeedTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(CustomOpcodes, RealOpcodeStreamRoundTrips) {
  CorpusSpec Spec;
  Spec.Name = "customops";
  Spec.Seed = 11;
  Spec.NumClasses = 20;
  Spec.NumPackages = 2;
  std::vector<ClassFile> Classes = generateCorpusClasses(Spec);
  std::vector<uint8_t> Opcodes;
  for (ClassFile &CF : Classes) {
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
    for (const MemberInfo &M : CF.Methods) {
      const AttributeInfo *A = findAttribute(M.Attributes, "Code");
      if (!A)
        continue;
      auto Code = parseCodeAttribute(*A, CF.CP);
      ASSERT_TRUE(static_cast<bool>(Code));
      auto Insns = decodeCode(Code->Code);
      ASSERT_TRUE(static_cast<bool>(Insns));
      for (const Insn &I : *Insns)
        Opcodes.push_back(static_cast<uint8_t>(I.Opcode));
    }
  }
  ASSERT_GT(Opcodes.size(), 1000u);
  CustomOpcodeResult R = buildCustomOpcodes(Opcodes, 54, 202);
  EXPECT_GT(R.Codebook.size(), 4u) << "real bytecode has hot digrams";
  EXPECT_LT(R.Stream.size(), Opcodes.size());
  EXPECT_EQ(expandCustomOpcodes(R.Stream, R.Codebook, 202), Opcodes);
}
