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

#include "classfile/Reader.h"
#include "corpus/Corpus.h"
#include "pack/Dictionary.h"
#include "pack/Packer.h"
#include "pack/Preload.h"
#include "support/VarInt.h"
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <span>
#include <tuple>

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

namespace {

/// buildSharedDictionary as first written, on std::map and std::set of
/// copied values: the oracle the hashed build must match byte for byte.
SharedDictionary
oracleDictionary(const std::vector<const Model *> &ShardModels,
                 const Model *Baseline) {
  using ClassRefKey = std::tuple<uint8_t, char, std::string, std::string>;
  auto KeyOf = [](const Model &M, const MClassRef &R) -> ClassRefKey {
    if (R.Base != 'L')
      return {R.Dims, R.Base, "", ""};
    return {R.Dims, R.Base, M.package(R.Package), M.simpleName(R.Simple)};
  };
  std::map<std::string, unsigned> PkgN, SimpN, FldN, MthN, StrN;
  std::map<ClassRefKey, unsigned> RefN;
  for (const Model *M : ShardModels) {
    for (uint32_t I = 0; I < M->packageCount(); ++I)
      ++PkgN[M->package(I)];
    for (uint32_t I = 0; I < M->simpleNameCount(); ++I)
      ++SimpN[M->simpleName(I)];
    for (uint32_t I = 0; I < M->fieldNameCount(); ++I)
      ++FldN[M->fieldName(I)];
    for (uint32_t I = 0; I < M->methodNameCount(); ++I)
      ++MthN[M->methodName(I)];
    for (uint32_t I = 0; I < M->stringConstCount(); ++I)
      ++StrN[M->stringConst(I)];
    for (uint32_t I = 0; I < M->classRefCount(); ++I)
      ++RefN[KeyOf(*M, M->classRef(I))];
  }
  std::set<std::string> BasePkg, BaseSimp, BaseFld, BaseMth, BaseStr;
  std::set<ClassRefKey> BaseRef;
  if (Baseline) {
    for (uint32_t I = 0; I < Baseline->packageCount(); ++I)
      BasePkg.insert(Baseline->package(I));
    for (uint32_t I = 0; I < Baseline->simpleNameCount(); ++I)
      BaseSimp.insert(Baseline->simpleName(I));
    for (uint32_t I = 0; I < Baseline->fieldNameCount(); ++I)
      BaseFld.insert(Baseline->fieldName(I));
    for (uint32_t I = 0; I < Baseline->methodNameCount(); ++I)
      BaseMth.insert(Baseline->methodName(I));
    for (uint32_t I = 0; I < Baseline->stringConstCount(); ++I)
      BaseStr.insert(Baseline->stringConst(I));
    for (uint32_t I = 0; I < Baseline->classRefCount(); ++I)
      BaseRef.insert(KeyOf(*Baseline, Baseline->classRef(I)));
  }
  SharedDictionary D;
  std::map<std::string, uint32_t> PkgIdx, SimpIdx;
  auto Add = [](std::map<std::string, uint32_t> &Idx,
                std::vector<std::string> &List, const std::string &S) {
    auto [It, Fresh] =
        Idx.try_emplace(S, static_cast<uint32_t>(List.size()));
    if (Fresh)
      List.push_back(S);
    return It->second;
  };
  for (const auto &[S, N] : PkgN)
    if (N >= 2 && !BasePkg.count(S))
      Add(PkgIdx, D.Packages, S);
  for (const auto &[S, N] : SimpN)
    if (N >= 2 && !BaseSimp.count(S))
      Add(SimpIdx, D.Simples, S);
  for (const auto &[S, N] : FldN)
    if (N >= 2 && !BaseFld.count(S))
      D.FieldNames.push_back(S);
  for (const auto &[S, N] : MthN)
    if (N >= 2 && !BaseMth.count(S))
      D.MethodNames.push_back(S);
  for (const auto &[S, N] : StrN)
    if (N >= 2 && !BaseStr.count(S))
      D.Strings.push_back(S);
  for (const auto &[Key, N] : RefN) {
    if (N < 2 || BaseRef.count(Key))
      continue;
    DictClassRef Ref;
    Ref.Dims = std::get<0>(Key);
    Ref.Base = std::get<1>(Key);
    if (Ref.Base == 'L') {
      Ref.Package = Add(PkgIdx, D.Packages, std::get<2>(Key));
      Ref.Simple = Add(SimpIdx, D.Simples, std::get<3>(Key));
    }
    D.ClassRefs.push_back(Ref);
  }
  return D;
}

/// A shard's model: every class, member reference and string constant
/// in its classes' constant pools, and every declared member's name,
/// interned in pool order.
Model shardModel(std::span<const ClassFile> Classes) {
  Model M;
  for (const ClassFile &CF : Classes) {
    const ConstantPool &CP = CF.CP;
    for (uint16_t I = 1; I < CP.count(); ++I) {
      if (!CP.isValidIndex(I))
        continue;
      const CpEntry &E = CP.entry(I);
      switch (E.Tag) {
      case CpTag::Class:
        EXPECT_TRUE(static_cast<bool>(
            M.internClassByInternalName(CP.className(I))));
        break;
      case CpTag::String:
        M.internStringConst(CP.utf8(E.Ref1));
        break;
      case CpTag::FieldRef: {
        const CpEntry &NT = CP.entry(E.Ref2);
        MFieldRef F;
        F.Owner = *M.internClassByInternalName(CP.className(E.Ref1));
        F.Name = M.internFieldName(CP.utf8(NT.Ref1));
        F.Type = *M.internTypeDesc(*parseFieldDescriptor(CP.utf8(NT.Ref2)));
        M.internFieldRef(F);
        break;
      }
      case CpTag::MethodRef:
      case CpTag::InterfaceMethodRef: {
        const CpEntry &NT = CP.entry(E.Ref2);
        MMethodRef R;
        R.Owner = *M.internClassByInternalName(CP.className(E.Ref1));
        R.Name = M.internMethodName(CP.utf8(NT.Ref1));
        R.Sig = *M.internSignature(CP.utf8(NT.Ref2));
        M.internMethodRef(std::move(R));
        break;
      }
      default:
        break;
      }
    }
    for (const MemberInfo &F : CF.Fields)
      M.internFieldName(CP.utf8(F.NameIndex));
    for (const MemberInfo &Mth : CF.Methods)
      M.internMethodName(CP.utf8(Mth.NameIndex));
  }
  return M;
}

/// Seeds a model through the preload helpers without a real coder.
class NullRefEncoder final : public RefEncoder {
public:
  bool encode(uint32_t, uint32_t, uint32_t, ByteWriter &) override {
    return false;
  }
  bool preload(uint32_t, uint32_t) override { return true; }
};

} // namespace

// The hashed build must write the dictionary the std::map build wrote:
// same lists, same order, so the same frame bytes. Shard models of the
// benchmark jars (250 classes, 4 contiguous shards), with and without
// the standard preload as baseline.
TEST(PackDictionary, HashedBuildMatchesTheOrderedOracle) {
  CorpusSpec Spec = scaleBenchmark(2000);
  Spec.Seed = 9001;
  std::vector<NamedClass> Corpus = generateCorpus(Spec);
  ASSERT_EQ(Corpus.size(), 2000u);
  Model Standard;
  NullRefEncoder Null;
  ASSERT_TRUE(preloadStandardRefs(Standard, Null,
                                  RefScheme::MtfTransientsContext));
  for (size_t Jar : {0u, 3u, 7u}) {
    std::vector<ClassFile> Classes;
    for (size_t I = Jar * 250; I < (Jar + 1) * 250; ++I) {
      auto CF = parseClassFile(Corpus[I].Data);
      ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
      Classes.push_back(std::move(*CF));
    }
    for (size_t Shards : {2u, 4u}) {
      std::vector<Model> Models;
      size_t Per = Classes.size() / Shards;
      for (size_t K = 0; K < Shards; ++K)
        Models.push_back(shardModel(
            std::span<const ClassFile>(Classes).subspan(K * Per, Per)));
      std::vector<const Model *> Ptrs;
      for (const Model &M : Models)
        Ptrs.push_back(&M);
      for (const Model *Baseline :
           std::initializer_list<const Model *>{nullptr, &Standard}) {
        SharedDictionary Got = buildSharedDictionary(Ptrs, Baseline);
        SharedDictionary Want = oracleDictionary(Ptrs, Baseline);
        EXPECT_GT(Want.entryCount(), 100u);
        EXPECT_EQ(Got.Packages, Want.Packages);
        EXPECT_EQ(Got.Simples, Want.Simples);
        EXPECT_EQ(Got.FieldNames, Want.FieldNames);
        EXPECT_EQ(Got.MethodNames, Want.MethodNames);
        EXPECT_EQ(Got.Strings, Want.Strings);
        EXPECT_EQ(Got.ClassRefs.size(), Want.ClassRefs.size());
        EXPECT_EQ(Got.frameBody(), Want.frameBody())
            << "jar " << Jar << ", " << Shards << " shards"
            << (Baseline ? ", standard preload" : "");
      }
    }
  }
}
