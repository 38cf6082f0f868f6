//===- test_jazz.cpp - Jazz comparator format tests -----------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "jazz/Jazz.h"
#include "pack/Packer.h"
#include "zip/Jar.h"
#include <gtest/gtest.h>
#include <map>

using namespace cjpack;

namespace {

std::vector<ClassFile> preparedCorpus(uint64_t Seed, unsigned N,
                                      CodeStyle Style) {
  CorpusSpec S;
  S.Name = "jazztest";
  S.Seed = Seed;
  S.NumClasses = N;
  S.NumPackages = 3;
  S.Code = Style;
  std::vector<ClassFile> Classes = generateCorpusClasses(S);
  for (ClassFile &CF : Classes) {
    auto E = prepareForPacking(CF);
    EXPECT_FALSE(static_cast<bool>(E)) << E.message();
  }
  return Classes;
}

void expectJazzRoundTrip(uint64_t Seed, unsigned N, CodeStyle Style) {
  std::vector<ClassFile> Classes = preparedCorpus(Seed, N, Style);
  std::map<std::string, std::vector<uint8_t>> Want;
  for (const ClassFile &CF : Classes)
    Want[std::string(CF.thisClassName())] = writeClassFile(CF);

  auto Archive = jazzPack(Classes);
  ASSERT_TRUE(static_cast<bool>(Archive)) << Archive.message();
  auto Back = jazzUnpack(*Archive);
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  ASSERT_EQ(Back->size(), Classes.size());
  for (const ClassFile &CF : *Back)
    EXPECT_EQ(writeClassFile(CF), Want[std::string(CF.thisClassName())])
        << CF.thisClassName();
}

} // namespace

TEST(Jazz, RoundTripBalanced) { expectJazzRoundTrip(3001, 25, CodeStyle::Balanced); }
TEST(Jazz, RoundTripNumeric) { expectJazzRoundTrip(3002, 25, CodeStyle::Numeric); }
TEST(Jazz, RoundTripStringHeavy) {
  expectJazzRoundTrip(3003, 25, CodeStyle::StringHeavy);
}
TEST(Jazz, RoundTripSingleClass) {
  expectJazzRoundTrip(3004, 2, CodeStyle::Balanced);
}

TEST(Jazz, UncompressedVariantRoundTrips) {
  std::vector<ClassFile> Classes =
      preparedCorpus(3005, 10, CodeStyle::Balanced);
  auto Plain = jazzPack(Classes, /*Compress=*/false);
  auto Comp = jazzPack(Classes, /*Compress=*/true);
  ASSERT_TRUE(static_cast<bool>(Plain));
  ASSERT_TRUE(static_cast<bool>(Comp));
  EXPECT_GT(Plain->size(), Comp->size());
  auto Back = jazzUnpack(*Plain);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->size(), Classes.size());
}

TEST(Jazz, DeterministicDecompression) {
  std::vector<ClassFile> Classes =
      preparedCorpus(3006, 15, CodeStyle::Balanced);
  auto Archive = jazzPack(Classes);
  ASSERT_TRUE(static_cast<bool>(Archive));
  auto A = jazzUnpack(*Archive);
  auto B = jazzUnpack(*Archive);
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  for (size_t I = 0; I < A->size(); ++I)
    EXPECT_EQ(writeClassFile((*A)[I]), writeClassFile((*B)[I]));
}

TEST(Jazz, RejectsCorruption) {
  std::vector<ClassFile> Classes =
      preparedCorpus(3007, 5, CodeStyle::Balanced);
  auto Archive = jazzPack(Classes);
  ASSERT_TRUE(static_cast<bool>(Archive));
  auto Bad = *Archive;
  Bad[0] ^= 0xFF; // magic
  EXPECT_FALSE(static_cast<bool>(jazzUnpack(Bad)));
  auto Short = *Archive;
  Short.resize(Short.size() / 2);
  EXPECT_FALSE(static_cast<bool>(jazzUnpack(Short)));
  auto Flip = *Archive;
  Flip[Flip.size() / 2] ^= 0x40; // inside the deflate body
  auto Result = jazzUnpack(Flip);
  // Either the inflate fails or the decoded structure is invalid; it
  // must not succeed with different classes.
  if (Result) {
    ASSERT_EQ(Result->size(), Classes.size());
    bool AllEqual = true;
    for (size_t I = 0; I < Classes.size(); ++I)
      if (writeClassFile((*Result)[I]) != writeClassFile(Classes[I]))
        AllEqual = false;
    EXPECT_TRUE(AllEqual) << "corruption silently changed classes";
  }
}

TEST(Jazz, SharesGlobalPoolAcrossClasses) {
  // The whole point of Jazz (§13.1): an archive of N similar classes is
  // much smaller than N separate archives.
  std::vector<ClassFile> Classes =
      preparedCorpus(3008, 20, CodeStyle::Balanced);
  auto Together = jazzPack(Classes);
  ASSERT_TRUE(static_cast<bool>(Together));
  size_t Separate = 0;
  for (const ClassFile &CF : Classes) {
    auto One = jazzPack({CF});
    ASSERT_TRUE(static_cast<bool>(One));
    Separate += One->size();
  }
  EXPECT_LT(Together->size() * 3, Separate * 2)
      << "shared pool should save at least a third";
}

TEST(Jazz, PackBytesEntryPoint) {
  CorpusSpec S;
  S.Name = "jazzbytes";
  S.Seed = 3009;
  S.NumClasses = 8;
  S.NumPackages = 2;
  std::vector<NamedClass> Raw = generateCorpus(S);
  auto Archive = jazzPackBytes(Raw);
  ASSERT_TRUE(static_cast<bool>(Archive)) << Archive.message();
  auto Back = jazzUnpack(*Archive);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->size(), Raw.size());
}
