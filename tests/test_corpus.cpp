//===- test_corpus.cpp - synthetic corpus generator tests -----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "bytecode/Instruction.h"
#include "corpus/Corpus.h"
#include "pack/ClassOrder.h"
#include "pack/Packer.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <set>

using namespace cjpack;

namespace {

CorpusSpec smallSpec(uint64_t Seed = 7, CodeStyle Style = CodeStyle::Balanced) {
  CorpusSpec S;
  S.Name = "unit";
  S.Seed = Seed;
  S.NumClasses = 25;
  S.NumPackages = 3;
  S.MeanMethods = 6;
  S.MeanStatements = 10;
  S.Code = Style;
  return S;
}

} // namespace

TEST(Corpus, GeneratesParsableClasses) {
  std::vector<NamedClass> Classes = generateCorpus(smallSpec());
  ASSERT_EQ(Classes.size(), 25u);
  for (const NamedClass &C : Classes) {
    auto CF = parseClassFile(C.Data);
    ASSERT_TRUE(static_cast<bool>(CF)) << C.Name << ": " << CF.message();
    EXPECT_EQ(std::string(CF->thisClassName()) + ".class", C.Name);
  }
}

TEST(Corpus, IsDeterministic) {
  std::vector<NamedClass> A = generateCorpus(smallSpec());
  std::vector<NamedClass> B = generateCorpus(smallSpec());
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    EXPECT_EQ(A[I].Data, B[I].Data);
  }
}

TEST(Corpus, DifferentSeedsDiffer) {
  std::vector<NamedClass> A = generateCorpus(smallSpec(1));
  std::vector<NamedClass> B = generateCorpus(smallSpec(2));
  EXPECT_NE(A[0].Data, B[0].Data);
}

TEST(Corpus, AllBytecodeDecodes) {
  for (CodeStyle Style : {CodeStyle::Balanced, CodeStyle::Numeric,
                          CodeStyle::StringHeavy}) {
    std::vector<ClassFile> Classes =
        generateCorpusClasses(smallSpec(11, Style));
    size_t Methods = 0;
    for (const ClassFile &CF : Classes) {
      for (const MemberInfo &M : CF.Methods) {
        const AttributeInfo *A = findAttribute(M.Attributes, "Code");
        if (!A)
          continue;
        auto Code = parseCodeAttribute(*A, CF.CP);
        ASSERT_TRUE(static_cast<bool>(Code)) << Code.message();
        auto Insns = decodeCode(Code->Code);
        ASSERT_TRUE(static_cast<bool>(Insns)) << Insns.message();
        std::vector<uint8_t> Re = encodeCode(*Insns);
        EXPECT_TRUE(std::equal(Re.begin(), Re.end(), Code->Code.begin(),
                               Code->Code.end()));
        ++Methods;
      }
    }
    EXPECT_GT(Methods, 50u);
  }
}

TEST(Corpus, ClassesSurvivePrepareForPacking) {
  std::vector<ClassFile> Classes = generateCorpusClasses(smallSpec(13));
  for (ClassFile &CF : Classes) {
    auto E = prepareForPacking(CF);
    ASSERT_FALSE(static_cast<bool>(E)) << E.message();
    auto Re = parseClassFile(writeClassFile(CF));
    ASSERT_TRUE(static_cast<bool>(Re)) << Re.message();
  }
}

TEST(Corpus, HierarchyReferencesGeneratedClasses) {
  std::vector<ClassFile> Classes = generateCorpusClasses(smallSpec(17));
  std::set<std::string, std::less<>> Names;
  for (const ClassFile &CF : Classes)
    Names.emplace(CF.thisClassName());
  unsigned InternalSupers = 0, Interfaces = 0;
  for (const ClassFile &CF : Classes) {
    if (Names.count(CF.superClassName()))
      ++InternalSupers;
    if (CF.AccessFlags & AccInterface)
      ++Interfaces;
  }
  EXPECT_GT(InternalSupers, 0u) << "some classes subclass generated ones";
  EXPECT_GT(Interfaces, 0u);
}

TEST(Corpus, EagerLoadOrderIsValid) {
  std::vector<ClassFile> Classes = generateCorpusClasses(smallSpec(19));
  // Generated order is already supertype-first (supers come from earlier
  // skeletons), and eagerLoadOrder must agree.
  std::vector<size_t> Order = eagerLoadOrder(Classes);
  ASSERT_EQ(Order.size(), Classes.size());
  std::vector<ClassFile> Reordered;
  for (size_t I : Order)
    Reordered.push_back(Classes[I]);
  EXPECT_TRUE(isEagerLoadable(Reordered));
}

TEST(Corpus, ShuffledClassesBecomeEagerLoadable) {
  std::vector<ClassFile> Classes = generateCorpusClasses(smallSpec(23));
  std::reverse(Classes.begin(), Classes.end());
  if (isEagerLoadable(Classes))
    GTEST_SKIP() << "reversal kept order valid; nothing to test";
  std::vector<size_t> Order = eagerLoadOrder(Classes);
  std::vector<ClassFile> Reordered;
  for (size_t I : Order)
    Reordered.push_back(Classes[I]);
  EXPECT_TRUE(isEagerLoadable(Reordered));
}

TEST(Corpus, ConstantPoolIsUtf8Dominant) {
  // Table 2's shape: Utf8 entries are the bulk of classfile bytes.
  std::vector<ClassFile> Classes = generateCorpusClasses(smallSpec(29));
  size_t Utf8Bytes = 0, Total = 0;
  for (ClassFile &CF : Classes) {
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
    std::vector<uint8_t> Bytes = writeClassFile(CF);
    Total += Bytes.size();
    for (uint16_t I = 1; I < CF.CP.count(); ++I)
      if (CF.CP.isValidIndex(I) && CF.CP.entry(I).Tag == CpTag::Utf8)
        Utf8Bytes += CF.CP.utf8(I).size() + 3;
  }
  double Share = static_cast<double>(Utf8Bytes) / Total;
  EXPECT_GT(Share, 0.35) << "Utf8 share too low for realism";
  EXPECT_LT(Share, 0.85);
}

TEST(Corpus, ObfuscatedStyleShrinksClasses) {
  // The name style perturbs the RNG sequence, so individual corpora are
  // noisy; sum across seeds so the shorter identifiers dominate.
  size_t NormalBytes = 0, ObfBytes = 0;
  for (uint64_t Seed : {31u, 32u, 33u, 34u}) {
    CorpusSpec Normal = smallSpec(Seed);
    Normal.NumClasses = 60;
    CorpusSpec Obf = Normal;
    Obf.Style = NameStyle::Obfuscated;
    NormalBytes += totalClassBytes(generateCorpus(Normal));
    ObfBytes += totalClassBytes(generateCorpus(Obf));
  }
  EXPECT_LT(ObfBytes, NormalBytes);
}

TEST(Corpus, PaperBenchmarksAreDefined) {
  std::vector<CorpusSpec> Specs = paperBenchmarks(0.1);
  ASSERT_EQ(Specs.size(), 19u);
  std::set<std::string> Names;
  for (const CorpusSpec &S : Specs) {
    EXPECT_TRUE(Names.insert(S.Name).second) << "duplicate " << S.Name;
    EXPECT_GE(S.NumClasses, 2u);
  }
  EXPECT_TRUE(Names.count("rt"));
  EXPECT_TRUE(Names.count("javac"));
  EXPECT_TRUE(Names.count("mpegaudio"));
  CorpusSpec Javac = paperBenchmark("javac", 0.05);
  EXPECT_EQ(Javac.Name, "javac");
}

TEST(Corpus, ScaleControlsClassCount) {
  CorpusSpec Full = paperBenchmark("javac", 1.0);
  CorpusSpec Tenth = paperBenchmark("javac", 0.1);
  EXPECT_GT(Full.NumClasses, Tenth.NumClasses * 8);
}
