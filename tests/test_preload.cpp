//===- test_preload.cpp - §14 preloaded standard references ---------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The §14 extension seeds both coder sides with a fixed table of
// standard references before any class is coded. These tests pin the
// contract: scheme support matches refSchemeSupportsPreload, encoder
// and decoder seed identically and stay in sync on the wire, preloaded
// names never pay for a definition, and unsupported schemes refuse to
// pack rather than desync.
//
//===----------------------------------------------------------------------===//

#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/Model.h"
#include "pack/Packer.h"
#include "pack/Preload.h"
#include <gtest/gtest.h>
#include <map>

using namespace cjpack;

namespace {

const RefScheme AllSchemes[] = {
    RefScheme::Simple,        RefScheme::Basic,
    RefScheme::Freq,          RefScheme::Cache,
    RefScheme::MtfBasic,      RefScheme::MtfTransients,
    RefScheme::MtfContext,    RefScheme::MtfTransientsContext,
};

CorpusSpec smallSpec(uint64_t Seed) {
  CorpusSpec S;
  S.Name = "preloadtest";
  S.Seed = Seed;
  S.NumClasses = 12;
  S.NumPackages = 2;
  S.MeanMethods = 5;
  S.MeanStatements = 8;
  return S;
}

} // namespace

TEST(Preload, SupportMatchesSchemeCapability) {
  for (RefScheme S : AllSchemes) {
    RefStats Stats;
    Model EncM;
    auto Enc = makeRefEncoder(S, &Stats);
    EXPECT_EQ(preloadStandardRefs(EncM, *Enc, S),
              refSchemeSupportsPreload(S))
        << refSchemeName(S);
    Model DecM;
    auto Dec = makeRefDecoder(S);
    EXPECT_EQ(preloadStandardRefs(DecM, *Dec, S),
              refSchemeSupportsPreload(S))
        << refSchemeName(S);
  }
}

TEST(Preload, EncoderAndDecoderSeedIdenticalModels) {
  for (RefScheme S : AllSchemes) {
    if (!refSchemeSupportsPreload(S))
      continue;
    RefStats Stats;
    Model EncM, DecM;
    auto Enc = makeRefEncoder(S, &Stats);
    auto Dec = makeRefDecoder(S);
    ASSERT_TRUE(preloadStandardRefs(EncM, *Enc, S));
    ASSERT_TRUE(preloadStandardRefs(DecM, *Dec, S));
    // Interning a standard name again must hit the preloaded entry and
    // return the same id on both sides.
    for (const char *Name :
         {"java/lang/Object", "java/lang/String", "java/util/Vector"}) {
      auto E = EncM.internClassByInternalName(Name);
      auto D = DecM.internClassByInternalName(Name);
      ASSERT_TRUE(static_cast<bool>(E));
      ASSERT_TRUE(static_cast<bool>(D));
      EXPECT_EQ(*E, *D) << Name << " under " << refSchemeName(S);
    }
    EXPECT_EQ(EncM.internMethodName("<init>"),
              DecM.internMethodName("<init>"));
    EXPECT_EQ(EncM.internFieldName("out"), DecM.internFieldName("out"));
  }
}

TEST(Preload, PreloadedReferencesNeedNoDefinition) {
  RefScheme S = RefScheme::MtfTransientsContext;
  RefStats Stats;
  Model EncM, DecM;
  auto Enc = makeRefEncoder(S, &Stats);
  auto Dec = makeRefDecoder(S);
  ASSERT_TRUE(preloadStandardRefs(EncM, *Enc, S));
  ASSERT_TRUE(preloadStandardRefs(DecM, *Dec, S));

  auto Obj = EncM.internClassByInternalName("java/lang/Object");
  ASSERT_TRUE(static_cast<bool>(Obj));
  ByteWriter W;
  // Already seeded: the encoder must not ask for a definition...
  EXPECT_FALSE(Enc->encode(poolId(PoolKind::ClassRefPool), 0, *Obj, W));
  uint32_t Name = EncM.internMethodName("toString");
  EXPECT_FALSE(Enc->encode(poolId(PoolKind::MethodName), 0, Name, W));

  // ...and the decoder must resolve the same ids from the same bytes.
  ByteReader R(W.data().data(), W.data().size());
  auto DecObj = Dec->decode(poolId(PoolKind::ClassRefPool), 0, R);
  ASSERT_TRUE(DecObj.has_value());
  EXPECT_EQ(*DecObj, *Obj);
  auto DecName = Dec->decode(poolId(PoolKind::MethodName), 0, R);
  ASSERT_TRUE(DecName.has_value());
  EXPECT_EQ(*DecName, Name);
  EXPECT_FALSE(R.hasError());
}

TEST(Preload, StandardNamesAreNeverDefinedOnTheWire) {
  std::vector<ClassFile> Classes = generateCorpusClasses(smallSpec(5));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  PackOptions Plain;
  Plain.CompressStreams = false;
  PackOptions Pre = Plain;
  Pre.PreloadStandardRefs = true;
  auto Without = packClasses(Classes, Plain);
  auto With = packClasses(Classes, Pre);
  ASSERT_TRUE(static_cast<bool>(Without)) << Without.message();
  ASSERT_TRUE(static_cast<bool>(With)) << With.message();
  // java/lang & co. are seeded, so their package/simple-name characters
  // never appear in the class-name character stream.
  unsigned CNC = static_cast<unsigned>(StreamId::ClassNameChars);
  EXPECT_LT(With->Sizes.Raw[CNC], Without->Sizes.Raw[CNC]);
  unsigned SL = static_cast<unsigned>(StreamId::StringLengths);
  EXPECT_LT(With->Sizes.Raw[SL], Without->Sizes.Raw[SL]);
}

TEST(Preload, RoundTripsAtShardCounts1And4) {
  std::vector<ClassFile> Classes = generateCorpusClasses(smallSpec(9));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  for (unsigned Shards : {1u, 4u}) {
    PackOptions Options;
    Options.PreloadStandardRefs = true;
    Options.Shards = Shards;
    auto Packed = packClasses(Classes, Options);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    auto Unpacked = unpackClasses(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Unpacked)) << Unpacked.message();
    ASSERT_EQ(Unpacked->size(), Classes.size());
    std::map<std::string, std::vector<uint8_t>> Want;
    for (const ClassFile &CF : Classes)
      Want[std::string(CF.thisClassName())] = writeClassFile(CF);
    for (const ClassFile &CF : *Unpacked)
      EXPECT_EQ(writeClassFile(CF), Want[std::string(CF.thisClassName())])
          << CF.thisClassName() << " at " << Shards << " shards";
  }
}

TEST(Preload, PackingIsDeterministicWithPreload) {
  std::vector<ClassFile> Classes = generateCorpusClasses(smallSpec(13));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  PackOptions Options;
  Options.PreloadStandardRefs = true;
  Options.Shards = 4;
  auto A = packClasses(Classes, Options);
  auto B = packClasses(Classes, Options);
  ASSERT_TRUE(static_cast<bool>(A)) << A.message();
  ASSERT_TRUE(static_cast<bool>(B)) << B.message();
  EXPECT_EQ(A->Archive, B->Archive);
}

TEST(Preload, UnsupportedSchemesRefuseToPack) {
  std::vector<ClassFile> Classes = generateCorpusClasses(smallSpec(17));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  for (RefScheme S : {RefScheme::Freq, RefScheme::Cache}) {
    PackOptions Options;
    Options.Scheme = S;
    Options.PreloadStandardRefs = true;
    auto Packed = packClasses(Classes, Options);
    ASSERT_FALSE(static_cast<bool>(Packed)) << refSchemeName(S);
    EXPECT_NE(Packed.message().find("does not support preloaded"),
              std::string::npos)
        << Packed.message();
  }
}
