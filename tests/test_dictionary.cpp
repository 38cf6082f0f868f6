//===- test_dictionary.cpp - shared shard dictionary tests ----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The version-2 archive preamble: definitions interned by two or more
// shards are factored into a SharedDictionary that both sides replay
// into every shard's model through the preload mechanism. These tests
// cover the frame's serialization, its corruption handling, and the
// pack-level contract that schemes without preload support degrade to
// an empty dictionary rather than failing.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "pack/Dictionary.h"
#include "pack/Packer.h"
#include "support/VarInt.h"
#include <gtest/gtest.h>

using namespace cjpack;

namespace {

SharedDictionary makeDictionary() {
  SharedDictionary D;
  D.Packages = {"com/example", "org/demo"};
  D.Simples = {"Widget", "Gadget", "Helper"};
  D.FieldNames = {"count", "name"};
  D.MethodNames = {"run", "close", "toString"};
  D.Strings = {"hello", "", "a longer shared string constant"};
  DictClassRef R;
  R.Dims = 0;
  R.Base = 'L';
  R.Package = 1;
  R.Simple = 2;
  D.ClassRefs.push_back(R);
  DictClassRef Prim;
  Prim.Dims = 2;
  Prim.Base = 'I';
  D.ClassRefs.push_back(Prim);
  return D;
}

std::vector<ClassFile> preparedCorpus(uint64_t Seed, unsigned NumClasses) {
  CorpusSpec S;
  S.Name = "dict";
  S.Seed = Seed;
  S.NumClasses = NumClasses;
  S.NumPackages = 3;
  std::vector<ClassFile> Classes = generateCorpusClasses(S);
  for (ClassFile &CF : Classes)
    EXPECT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  return Classes;
}

} // namespace

TEST(SharedDictionaryFrame, RoundTripsThroughSerialization) {
  SharedDictionary D = makeDictionary();
  EXPECT_FALSE(D.empty());
  EXPECT_EQ(D.entryCount(), 15u);
  for (bool Compress : {true, false}) {
    ByteWriter W;
    D.serialize(W, Compress);
    std::vector<uint8_t> Bytes = W.take();
    ByteReader R(Bytes);
    auto Got = SharedDictionary::deserialize(R);
    ASSERT_TRUE(static_cast<bool>(Got)) << Got.message();
    EXPECT_TRUE(R.atEnd());
    EXPECT_EQ(Got->Packages, D.Packages);
    EXPECT_EQ(Got->Simples, D.Simples);
    EXPECT_EQ(Got->FieldNames, D.FieldNames);
    EXPECT_EQ(Got->MethodNames, D.MethodNames);
    EXPECT_EQ(Got->Strings, D.Strings);
    ASSERT_EQ(Got->ClassRefs.size(), 2u);
    EXPECT_EQ(Got->ClassRefs[0].Base, 'L');
    EXPECT_EQ(Got->ClassRefs[0].Package, 1u);
    EXPECT_EQ(Got->ClassRefs[0].Simple, 2u);
    EXPECT_EQ(Got->ClassRefs[1].Base, 'I');
    EXPECT_EQ(Got->ClassRefs[1].Dims, 2u);
  }
}

TEST(SharedDictionaryFrame, EmptyDictionaryFrameIsTiny) {
  SharedDictionary D;
  EXPECT_TRUE(D.empty());
  ByteWriter W;
  D.serialize(W, true);
  // Raw length 6 (six zero counts), stored verbatim: cheap enough to
  // carry unconditionally in every sharded archive.
  EXPECT_LE(W.size(), 8u);
  std::vector<uint8_t> Bytes = W.take();
  ByteReader R(Bytes);
  auto Got = SharedDictionary::deserialize(R);
  ASSERT_TRUE(static_cast<bool>(Got)) << Got.message();
  EXPECT_TRUE(Got->empty());
}

TEST(SharedDictionaryFrame, RejectsCorruption) {
  ByteWriter W;
  makeDictionary().serialize(W, false);
  std::vector<uint8_t> Bytes = W.take();
  // Truncation at several depths.
  for (size_t Cut : {size_t(1), Bytes.size() / 2, Bytes.size() - 1}) {
    std::vector<uint8_t> Short(Bytes.begin(),
                               Bytes.begin() + static_cast<long>(Cut));
    ByteReader R(Short);
    EXPECT_FALSE(static_cast<bool>(SharedDictionary::deserialize(R)))
        << Cut;
  }
  // A stored length larger than the raw length is implausible.
  ByteWriter Bad;
  writeVarUInt(Bad, 4);
  writeVarUInt(Bad, 9);
  for (int I = 0; I < 9; ++I)
    Bad.writeU1(0);
  std::vector<uint8_t> BadBytes = Bad.take();
  ByteReader R(BadBytes);
  EXPECT_FALSE(static_cast<bool>(SharedDictionary::deserialize(R)));
}

TEST(SharedDictionaryFrame, RejectsClassRefNamesOutOfRange) {
  SharedDictionary D;
  D.Packages = {"p"};
  D.Simples = {"S"};
  DictClassRef R;
  R.Base = 'L';
  R.Package = 0;
  R.Simple = 7; // beyond Simples
  D.ClassRefs.push_back(R);
  ByteWriter W;
  D.serialize(W, false);
  std::vector<uint8_t> Bytes = W.take();
  ByteReader Rd(Bytes);
  EXPECT_FALSE(static_cast<bool>(SharedDictionary::deserialize(Rd)));
}

TEST(PackDictionary, ShardedArchivesFactorSharedDefinitions) {
  auto Classes = preparedCorpus(8101, 32);
  PackOptions O;
  O.Shards = 4;
  auto Packed = packClasses(Classes, O);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  // The corpus shares packages, names, and class refs across shards,
  // so the default (MTF) scheme always finds entries to factor out.
  EXPECT_GT(Packed->DictionaryEntries, 0u);
  EXPECT_GT(Packed->DictionaryBytes, 0u);
  EXPECT_LT(Packed->DictionaryBytes, Packed->Archive.size());

  // Serial archives have no dictionary.
  auto Serial = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Serial)) << Serial.message();
  EXPECT_EQ(Serial->DictionaryEntries, 0u);
  EXPECT_EQ(Serial->DictionaryBytes, 0u);
}

TEST(PackDictionary, SchemesWithoutPreloadDegradeToEmptyDictionary) {
  auto Classes = preparedCorpus(8102, 24);
  auto Want = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Want)) << Want.message();

  for (RefScheme Scheme : {RefScheme::Freq, RefScheme::Cache}) {
    PackOptions O;
    O.Scheme = Scheme;
    O.Shards = 3;
    auto Packed = packClasses(Classes, O);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    EXPECT_EQ(Packed->DictionaryEntries, 0u);
    auto Out = unpackClasses(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
    EXPECT_EQ(Out->size(), Classes.size());
  }
}

TEST(PackDictionary, PreloadedStandardRefsStayOutOfTheDictionary) {
  auto Classes = preparedCorpus(8103, 24);
  PackOptions Plain;
  Plain.Shards = 4;
  PackOptions Std = Plain;
  Std.PreloadStandardRefs = true;
  auto A = packClasses(Classes, Plain);
  auto B = packClasses(Classes, Std);
  ASSERT_TRUE(static_cast<bool>(A)) << A.message();
  ASSERT_TRUE(static_cast<bool>(B)) << B.message();
  // The §14 table covers java/lang and friends, which every shard
  // uses; with it preloaded those entries must not be re-shipped.
  EXPECT_LT(B->DictionaryEntries, A->DictionaryEntries);
  auto Out = unpackClasses(B->Archive);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EXPECT_EQ(Out->size(), Classes.size());
}
