//===- test_archive_analysis.cpp - whole-archive analysis tests -----------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers ArchiveAnalysis end to end: hierarchy construction (lookups,
// least-common-superclass, subtype queries, the typed-reference join
// lattice), the structural diagnostics (superclass cycles, missing
// ancestors, interface diamonds), reference resolution through the
// superclass chain and interface closure with every verdict exercised,
// the hierarchy-informed verifier joins, the corpus knobs that seed
// inherited refs and dead members, and the StripUnreferenced
// differential guarantees (restored output verifies clean, archives are
// never larger, and strictly smaller when dead weight was seeded).
//
//===----------------------------------------------------------------------===//

#include "analysis/ArchiveAnalysis.h"
#include "analysis/Verifier.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "corpus/BytecodeBuilder.h"
#include "corpus/Corpus.h"
#include "pack/Packer.h"
#include "support/Sha1.h"
#include <algorithm>
#include <array>
#include <gtest/gtest.h>
#include <set>

using namespace cjpack;
using namespace cjpack::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Hand-built archive helpers
//===----------------------------------------------------------------------===//

ClassFile mkClass(const std::string &Name,
                  const std::string &Super = "java/lang/Object",
                  std::vector<std::string> Ifaces = {},
                  bool IsInterface = false) {
  ClassFile CF;
  CF.AccessFlags = static_cast<uint16_t>(
      AccPublic | (IsInterface ? (AccInterface | AccAbstract) : AccSuper));
  CF.ThisClass = CF.CP.addClass(Name);
  CF.SuperClass = CF.CP.addClass(Super);
  for (const std::string &I : Ifaces)
    CF.Interfaces.push_back(CF.CP.addClass(I));
  return CF;
}

void addField(ClassFile &CF, const std::string &Name, const std::string &Desc,
              uint16_t Flags = AccPublic) {
  MemberInfo MI;
  MI.AccessFlags = Flags;
  MI.NameIndex = CF.CP.addUtf8(Name);
  MI.DescriptorIndex = CF.CP.addUtf8(Desc);
  CF.Fields.push_back(std::move(MI));
}

void addMethod(ClassFile &CF, const std::string &Name,
               const std::string &Desc, uint16_t Flags = AccPublic) {
  MemberInfo MI;
  MI.AccessFlags = Flags;
  MI.NameIndex = CF.CP.addUtf8(Name);
  MI.DescriptorIndex = CF.CP.addUtf8(Desc);
  CF.Methods.push_back(std::move(MI));
}

/// Name of member \p M in \p CF's pool.
std::string memberName(const ClassFile &CF, const MemberInfo &M) {
  return std::string(CF.CP.entry(M.NameIndex).Text);
}

size_t countKind(const std::vector<Diagnostic> &Diags, DiagKind K) {
  size_t N = 0;
  for (const Diagnostic &D : Diags)
    N += D.Kind == K;
  return N;
}

//===----------------------------------------------------------------------===//
// Hierarchy queries
//===----------------------------------------------------------------------===//

TEST(ClassHierarchy, BuildsDefinedAndExternalNodes) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/B"));
  Classes.push_back(mkClass("pkg/A", "pkg/B"));
  ClassHierarchy H = ClassHierarchy::build(Classes);

  int32_t A = H.lookup("pkg/A"), B = H.lookup("pkg/B");
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);
  EXPECT_TRUE(H.isDefined(A));
  EXPECT_TRUE(H.isDefined(B));
  EXPECT_EQ(H.node(A).Super, B);

  // Object is mentioned as B's superclass, so it has a node — but an
  // external (undefined) one.
  int32_t Obj = H.lookup("java/lang/Object");
  ASSERT_GE(Obj, 0);
  EXPECT_FALSE(H.isDefined(Obj));
  EXPECT_EQ(H.lookup("pkg/NotMentioned"), ClassNone);
  EXPECT_TRUE(H.duplicates().empty());
  EXPECT_TRUE(H.malformed().empty());
}

TEST(ClassHierarchy, LeastCommonSuperclassAndSubtype) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/I", "java/lang/Object", {}, true));
  Classes.push_back(mkClass("pkg/C"));
  Classes.push_back(mkClass("pkg/D1", "pkg/C", {"pkg/I"}));
  Classes.push_back(mkClass("pkg/D2", "pkg/C"));
  ClassHierarchy H = ClassHierarchy::build(Classes);

  int32_t I = H.lookup("pkg/I"), C = H.lookup("pkg/C"),
          D1 = H.lookup("pkg/D1"), D2 = H.lookup("pkg/D2");
  EXPECT_EQ(H.leastCommonSuperclass(D1, D2), C);
  EXPECT_EQ(H.leastCommonSuperclass(D1, C), C);
  EXPECT_EQ(H.leastCommonSuperclass(D1, D1), D1);

  EXPECT_TRUE(H.isSubtypeOf(D1, C));
  EXPECT_TRUE(H.isSubtypeOf(D1, I));
  EXPECT_FALSE(H.isSubtypeOf(D2, I));
  EXPECT_FALSE(H.isSubtypeOf(C, D1));
}

TEST(ClassHierarchy, JoinRefClassesLattice) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/C"));
  Classes.push_back(mkClass("pkg/D1", "pkg/C"));
  Classes.push_back(mkClass("pkg/D2", "pkg/C"));
  ClassHierarchy H = ClassHierarchy::build(Classes);

  int32_t C = H.lookup("pkg/C"), D1 = H.lookup("pkg/D1"),
          D2 = H.lookup("pkg/D2");
  // ClassNull is the identity, ClassNone absorbs.
  EXPECT_EQ(H.joinRefClasses(ClassNull, D1), D1);
  EXPECT_EQ(H.joinRefClasses(D1, ClassNull), D1);
  EXPECT_EQ(H.joinRefClasses(ClassNull, ClassNull), ClassNull);
  EXPECT_EQ(H.joinRefClasses(ClassNone, D1), ClassNone);
  EXPECT_EQ(H.joinRefClasses(D1, ClassNone), ClassNone);
  // Two in-archive classes meet at their least common superclass.
  EXPECT_EQ(H.joinRefClasses(D1, D1), D1);
  EXPECT_EQ(H.joinRefClasses(D1, D2), C);
  EXPECT_EQ(H.joinRefClasses(D1, C), C);
}

//===----------------------------------------------------------------------===//
// Structural diagnostics
//===----------------------------------------------------------------------===//

TEST(ArchiveAnalysis, SuperclassCycleIsDiagnosedAndWalksTerminate) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/A", "pkg/B"));
  Classes.push_back(mkClass("pkg/B", "pkg/A"));
  ArchiveAnalysisReport R = analyzeArchive(Classes);
  EXPECT_GE(countKind(R.Diags, DiagKind::SuperclassCycle), 1u);

  const ClassHierarchy &H = R.Hierarchy;
  int32_t A = H.lookup("pkg/A"), B = H.lookup("pkg/B");
  EXPECT_TRUE(H.node(A).OnCycle);
  EXPECT_TRUE(H.node(B).OnCycle);
  // Queries over cycle nodes terminate instead of spinning.
  EXPECT_EQ(H.leastCommonSuperclass(A, B), H.leastCommonSuperclass(A, B));
  (void)H.isSubtypeOf(A, B);
}

TEST(ArchiveAnalysis, MissingAncestorVsPlatformExemption) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/Gone", "vendor/NotShipped"));
  Classes.push_back(mkClass("pkg/Fine", "java/util/ArrayList"));
  ArchiveAnalysisReport R = analyzeArchive(Classes);
  EXPECT_EQ(countKind(R.Diags, DiagKind::MissingAncestor), 1u);

  EXPECT_FALSE(isPlatformClassName("vendor/NotShipped"));
  EXPECT_TRUE(isPlatformClassName("java/util/ArrayList"));
  EXPECT_TRUE(isPlatformClassName("javax/swing/JFrame"));
  EXPECT_TRUE(isPlatformClassName("jdk/internal/misc/Unsafe"));
  EXPECT_TRUE(isPlatformClassName("sun/misc/Launcher"));
}

TEST(ArchiveAnalysis, DuplicateClassNameIsDiagnosed) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/Twice"));
  Classes.push_back(mkClass("pkg/Twice"));
  ArchiveAnalysisReport R = analyzeArchive(Classes);
  EXPECT_EQ(countKind(R.Diags, DiagKind::DuplicateClass), 1u);
  EXPECT_EQ(R.Hierarchy.duplicates().size(), 1u);
}

//===----------------------------------------------------------------------===//
// Reference resolution
//===----------------------------------------------------------------------===//

TEST(RefResolution, InheritedMembersResolveThroughTheChain) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/I", "java/lang/Object", {}, true));
  addMethod(Classes.back(), "fromIface", "()V", AccPublic | AccAbstract);
  Classes.push_back(mkClass("pkg/Base"));
  addField(Classes.back(), "inherited", "I");
  addMethod(Classes.back(), "fromBase", "()I");
  Classes.push_back(mkClass("pkg/Mid", "pkg/Base", {"pkg/I"}));
  Classes.push_back(mkClass("pkg/Leaf", "pkg/Mid"));
  ClassHierarchy H = ClassHierarchy::build(Classes);

  // Field on the grandparent, ref owned by the leaf.
  RefResolution F = H.resolveField("pkg/Leaf", "inherited", "I");
  EXPECT_EQ(F.Verdict, RefVerdict::Resolved);
  EXPECT_EQ(F.DefiningClass, H.lookup("pkg/Base"));
  ASSERT_NE(F.Member, nullptr);
  EXPECT_EQ(memberName(Classes[1], *F.Member), "inherited");

  // Method on the grandparent.
  RefResolution M = H.resolveMethod("pkg/Leaf", "fromBase", "()I", false);
  EXPECT_EQ(M.Verdict, RefVerdict::Resolved);
  EXPECT_EQ(M.DefiningClass, H.lookup("pkg/Base"));

  // Method declared only on an interface implemented mid-chain.
  RefResolution IM = H.resolveMethod("pkg/Leaf", "fromIface", "()V", false);
  EXPECT_EQ(IM.Verdict, RefVerdict::Resolved);
  EXPECT_EQ(IM.DefiningClass, H.lookup("pkg/I"));
}

TEST(RefResolution, InterfaceDiamond) {
  // Two unrelated concrete (default) declarations are genuinely
  // ambiguous; once one of them is abstract the concrete survivor wins.
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/I1", "java/lang/Object", {}, true));
  addMethod(Classes.back(), "m", "()V", AccPublic); // default method
  Classes.push_back(mkClass("pkg/I2", "java/lang/Object", {}, true));
  addMethod(Classes.back(), "m", "()V", AccPublic); // default method
  Classes.push_back(mkClass("pkg/C", "java/lang/Object",
                            {"pkg/I1", "pkg/I2"}));
  {
    ClassHierarchy H = ClassHierarchy::build(Classes);
    RefResolution R = H.resolveMethod("pkg/C", "m", "()V", false);
    EXPECT_EQ(R.Verdict, RefVerdict::Ambiguous);
    ArchiveAnalysisReport Rep = analyzeArchive(Classes);
    EXPECT_GE(countKind(Rep.Diags, DiagKind::AmbiguousRef), 0u);
  }
  Classes[1].Methods[0].AccessFlags |= AccAbstract;
  {
    ClassHierarchy H = ClassHierarchy::build(Classes);
    RefResolution R = H.resolveMethod("pkg/C", "m", "()V", false);
    EXPECT_EQ(R.Verdict, RefVerdict::Resolved);
  }
  // A sub-interface overriding both sides is maximally specific: no
  // ambiguity even with two concrete declarations above it.
  Classes[1].Methods[0].AccessFlags &= static_cast<uint16_t>(~AccAbstract);
  Classes.push_back(mkClass("pkg/I3", "java/lang/Object",
                            {"pkg/I1", "pkg/I2"}, true));
  addMethod(Classes.back(), "m", "()V", AccPublic);
  Classes.push_back(mkClass("pkg/C2", "java/lang/Object", {"pkg/I3"}));
  {
    ClassHierarchy H = ClassHierarchy::build(Classes);
    RefResolution R = H.resolveMethod("pkg/C2", "m", "()V", false);
    EXPECT_EQ(R.Verdict, RefVerdict::Resolved);
    EXPECT_EQ(R.DefiningClass, H.lookup("pkg/I3"));
  }
}

TEST(RefResolution, ExternalDanglingAndKindVerdicts) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/I", "java/lang/Object", {}, true));
  Classes.push_back(mkClass("pkg/OnPlatform", "java/util/ArrayList"));
  Classes.push_back(mkClass("pkg/OnObject"));
  ClassHierarchy H = ClassHierarchy::build(Classes);

  // Owner outside the archive: clean external verdict.
  EXPECT_EQ(H.resolveMethod("java/util/List", "size", "()I", true).Verdict,
            RefVerdict::External);
  EXPECT_EQ(H.resolveField("java/util/List", "x", "I").Verdict,
            RefVerdict::External);

  // The search escaping through a non-Object platform superclass cannot
  // prove absence.
  EXPECT_EQ(H.resolveMethod("pkg/OnPlatform", "maybe", "()V", false).Verdict,
            RefVerdict::External);

  // An Object-rooted chain is a complete search: unknown members are
  // dangling, Object's own fixed methods are external.
  EXPECT_EQ(H.resolveMethod("pkg/OnObject", "noSuch", "()V", false).Verdict,
            RefVerdict::Dangling);
  EXPECT_EQ(H.resolveField("pkg/OnObject", "noField", "I").Verdict,
            RefVerdict::Dangling);
  EXPECT_EQ(H.resolveMethod("pkg/OnObject", "hashCode", "()I", false).Verdict,
            RefVerdict::External);
  EXPECT_TRUE(isKnownObjectMethod("wait", "(JI)V"));
  EXPECT_FALSE(isKnownObjectMethod("wait", "(I)V"));

  // Methodref naming an interface (and the reverse).
  EXPECT_EQ(H.resolveMethod("pkg/I", "m", "()V", false).Verdict,
            RefVerdict::KindMismatch);
  EXPECT_EQ(H.resolveMethod("pkg/OnObject", "m", "()V", true).Verdict,
            RefVerdict::KindMismatch);

  // Array owners answer to the runtime, not the archive.
  EXPECT_EQ(H.resolveMethod("[Lpkg/OnObject;", "clone",
                            "()Ljava/lang/Object;", false)
                .Verdict,
            RefVerdict::External);
}

TEST(ArchiveAnalysis, DanglingRefBecomesDiagnostic) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/T"));
  Classes.push_back(mkClass("pkg/User"));
  Classes.back().CP.addRef(CpTag::MethodRef, "pkg/T", "noSuch", "()V");
  ArchiveAnalysisReport R = analyzeArchive(Classes);
  EXPECT_EQ(countKind(R.Diags, DiagKind::DanglingRef), 1u);
  EXPECT_GE(R.RefsChecked, 1u);
}

//===----------------------------------------------------------------------===//
// Hierarchy-informed verifier joins
//===----------------------------------------------------------------------===//

TEST(TypedJoins, BranchArmsMeetAtLeastCommonSuperclass) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/B"));
  Classes.push_back(mkClass("pkg/D1", "pkg/B"));
  Classes.push_back(mkClass("pkg/D2", "pkg/B"));

  // static void test(int): one branch arm news up D1, the other D2;
  // both fall into a shared astore.
  ClassFile T = mkClass("pkg/T");
  BytecodeBuilder Bld(T.CP, /*ParamSlots=*/1);
  unsigned Slot = Bld.newLocal(VType::Ref);
  auto Else = Bld.newLabel();
  auto Join = Bld.newLabel();
  Bld.loadLocal(VType::Int, 0);
  Bld.branch(Op::IfEq, Else);
  Bld.newObject("pkg/D1");
  Bld.op(Op::Dup);
  Bld.invoke(Op::InvokeSpecial, "pkg/D1", "<init>", "()V");
  Bld.branch(Op::Goto, Join);
  Bld.placeLabel(Else);
  Bld.newObject("pkg/D2");
  Bld.op(Op::Dup);
  Bld.invoke(Op::InvokeSpecial, "pkg/D2", "<init>", "()V");
  Bld.placeLabel(Join);
  Bld.storeLocal(VType::Ref, Slot);
  Bld.ret(VType::Void);

  MemberInfo M;
  M.AccessFlags = AccPublic | AccStatic;
  M.NameIndex = T.CP.addUtf8("test");
  M.DescriptorIndex = T.CP.addUtf8("(I)V");
  M.Attributes.push_back(encodeCodeAttribute(Bld.finish(), T.CP));
  T.Methods.push_back(std::move(M));
  Classes.push_back(std::move(T));

  ClassHierarchy H = ClassHierarchy::build(Classes);
  const ClassFile &TC = Classes.back();
  MethodAnalysis MA =
      analyzeMethod(TC, TC.Methods[0], "pkg/T.test(I)V", &H);
  ASSERT_TRUE(MA.Decoded);
  EXPECT_TRUE(MA.Diags.empty());

  // The join block starts with exactly the newed object on the stack;
  // its tracked class must be the least common superclass pkg/B, not
  // either arm's type and not untyped.
  int32_t B = H.lookup("pkg/B");
  bool SawJoin = false;
  for (const std::optional<Frame> &F : MA.BlockEntry)
    if (F && F->Stack.size() == 1 && F->StackCls.size() == 1 &&
        F->StackCls[0] == B)
      SawJoin = true;
  EXPECT_TRUE(SawJoin);

  // Without a hierarchy nothing is tracked and frames stay legacy-shaped.
  MethodAnalysis Legacy =
      analyzeMethod(TC, TC.Methods[0], "pkg/T.test(I)V");
  for (const std::optional<Frame> &F : Legacy.BlockEntry)
    if (F) {
      EXPECT_TRUE(F->StackCls.empty());
      EXPECT_TRUE(F->LocalCls.empty());
    }
}

// verifyClassSet, which packtool verify and cjpackd's verify request
// run, is verifyClass against the hierarchy of the whole set.
TEST(TypedJoins, VerifyClassSetMatchesVerifyClassWithTheSetsHierarchy) {
  std::vector<ClassFile> Classes;
  Classes.push_back(mkClass("pkg/B"));
  Classes.push_back(mkClass("pkg/D1", "pkg/B"));
  // pkg/Bad.broken()V pops from an empty stack.
  ClassFile Bad = mkClass("pkg/Bad", "pkg/D1");
  CodeAttribute Code;
  Code.MaxStack = 1;
  Code.Code = Bad.arena().copy(std::vector<uint8_t>{
      static_cast<uint8_t>(Op::Pop), static_cast<uint8_t>(Op::Return)});
  MemberInfo M;
  M.AccessFlags = AccPublic | AccStatic;
  M.NameIndex = Bad.CP.addUtf8("broken");
  M.DescriptorIndex = Bad.CP.addUtf8("()V");
  M.Attributes.push_back(encodeCodeAttribute(Code, Bad.CP));
  Bad.Methods.push_back(std::move(M));
  Classes.push_back(std::move(Bad));

  std::vector<std::vector<Diagnostic>> Got = verifyClassSet(Classes);
  ASSERT_EQ(Got.size(), Classes.size());
  ClassHierarchy H = ClassHierarchy::build(Classes);
  for (size_t K = 0; K < Classes.size(); ++K) {
    std::vector<std::string> Want, Have;
    for (const Diagnostic &D : verifyClass(Classes[K], &H).Diags)
      Want.push_back(formatDiagnostic(D));
    for (const Diagnostic &D : Got[K])
      Have.push_back(formatDiagnostic(D));
    EXPECT_EQ(Have, Want) << "class " << K;
  }
  EXPECT_TRUE(Got[0].empty());
  EXPECT_TRUE(Got[1].empty());
  EXPECT_EQ(countKind(Got[2], DiagKind::StackUnderflow), 1u);
}

//===----------------------------------------------------------------------===//
// Corpus integration: all styles lint clean, knobs seed what they claim
//===----------------------------------------------------------------------===//

CorpusSpec smallSpec(CodeStyle Style, uint64_t Seed) {
  CorpusSpec Spec;
  Spec.Name = "lint-corpus";
  Spec.Seed = Seed;
  Spec.NumClasses = 24;
  Spec.NumPackages = 3;
  Spec.Code = Style;
  return Spec;
}

TEST(CorpusLint, EveryStyleResolvesEveryReference) {
  uint64_t Seed = 7;
  for (CodeStyle Style :
       {CodeStyle::Balanced, CodeStyle::Numeric, CodeStyle::StringHeavy}) {
    std::vector<ClassFile> Classes =
        generateCorpusClasses(smallSpec(Style, Seed++));
    ArchiveAnalysisReport R = analyzeArchive(Classes);
    // Zero false positives: generated archives are structurally clean
    // and every reference is either resolved in-archive or provably
    // external (platform calls).
    for (const Diagnostic &D : R.Diags)
      ADD_FAILURE() << formatDiagnostic(D);
    EXPECT_EQ(R.ClassesAnalyzed, Classes.size());
    EXPECT_GT(R.RefsChecked, 0u);
    EXPECT_EQ(R.RefsChecked, R.RefsResolved + R.RefsExternal);
    EXPECT_GT(R.RefsResolved, 0u);
    EXPECT_GT(R.RefsExternal, 0u);
  }
}

TEST(CorpusLint, InheritedRefKnobEmitsHierarchyWalkingRefs) {
  CorpusSpec Spec = smallSpec(CodeStyle::Balanced, 11);
  Spec.PctInheritedRefs = 40;
  std::vector<ClassFile> Classes = generateCorpusClasses(Spec);
  ArchiveAnalysisReport R = analyzeArchive(Classes);
  for (const Diagnostic &D : R.Diags)
    ADD_FAILURE() << formatDiagnostic(D);
  EXPECT_EQ(R.RefsChecked, R.RefsResolved + R.RefsExternal);

  // At least one emitted ref must actually require the hierarchy walk:
  // owner names a class that does not define the member.
  const ClassHierarchy &H = R.Hierarchy;
  size_t Inherited = 0;
  for (const ClassFile &CF : Classes) {
    for (uint16_t I = 1; I < CF.CP.count(); ++I) {
      if (!CF.CP.isValidIndex(I))
        continue;
      const CpEntry &E = CF.CP.entry(I);
      if (E.Tag != CpTag::FieldRef && E.Tag != CpTag::MethodRef)
        continue;
      std::string_view Owner =
          CF.CP.entry(CF.CP.entry(E.Ref1).Ref1).Text;
      const CpEntry &NT = CF.CP.entry(E.Ref2);
      std::string_view Name = CF.CP.entry(NT.Ref1).Text;
      std::string_view Desc = CF.CP.entry(NT.Ref2).Text;
      RefResolution RR =
          E.Tag == CpTag::FieldRef
              ? H.resolveField(Owner, Name, Desc)
              : H.resolveMethod(Owner, Name, Desc, false);
      if (RR.Verdict == RefVerdict::Resolved &&
          H.node(RR.DefiningClass).Name != Owner)
        ++Inherited;
    }
  }
  EXPECT_GT(Inherited, 0u);
}

TEST(CorpusLint, DeadMemberKnobSeedsStrippableWeight) {
  CorpusSpec Spec = smallSpec(CodeStyle::Balanced, 13);
  Spec.DeadMembersPerClass = 2;
  std::vector<ClassFile> Classes = generateCorpusClasses(Spec);
  ArchiveAnalysisReport R = analyzeArchive(Classes);
  for (const Diagnostic &D : R.Diags)
    ADD_FAILURE() << formatDiagnostic(D);
  // Every concrete class got two members nothing references.
  EXPECT_GE(R.DeadMembers.size(), Classes.size());
}

//===----------------------------------------------------------------------===//
// StripUnreferenced differential
//===----------------------------------------------------------------------===//

/// Packs \p Spec's corpus twice (with and without stripping) and
/// returns {default, stripped} results after asserting both decode and
/// verify clean.
std::pair<PackResult, PackResult> packBothWays(const CorpusSpec &Spec) {
  std::vector<NamedClass> Classes = generateCorpus(Spec);
  PackOptions Plain;
  auto Default = packClassBytes(Classes, Plain);
  EXPECT_TRUE(static_cast<bool>(Default)) << Default.message();
  PackOptions Strip;
  Strip.StripUnreferenced = true;
  auto Stripped = packClassBytes(Classes, Strip);
  EXPECT_TRUE(static_cast<bool>(Stripped)) << Stripped.message();

  auto Restored = unpackClasses(Stripped->Archive);
  EXPECT_TRUE(static_cast<bool>(Restored)) << Restored.message();
  for (const ClassFile &CF : *Restored) {
    VerifyResult V = verifyClass(CF);
    for (const Diagnostic &D : V.Diags)
      ADD_FAILURE() << formatDiagnostic(D);
  }
  return {std::move(*Default), std::move(*Stripped)};
}

TEST(StripUnreferenced, StrictlySmallerWhenDeadWeightIsSeeded) {
  CorpusSpec Spec = smallSpec(CodeStyle::Balanced, 17);
  Spec.DeadMembersPerClass = 2;
  auto [Default, Stripped] = packBothWays(Spec);
  EXPECT_GT(Stripped.StrippedFields + Stripped.StrippedMethods, 0u);
  EXPECT_LT(Stripped.Archive.size(), Default.Archive.size());
  EXPECT_EQ(Default.StrippedFields + Default.StrippedMethods, 0u);
}

TEST(StripUnreferenced, NeverLargerOnDefaultCorpora) {
  for (uint64_t Seed : {19u, 23u}) {
    auto [Default, Stripped] =
        packBothWays(smallSpec(CodeStyle::Balanced, Seed));
    EXPECT_LE(Stripped.Archive.size(), Default.Archive.size());
  }
}

TEST(StripUnreferenced, RetainedMembersSurviveByteLossless) {
  CorpusSpec Spec = smallSpec(CodeStyle::StringHeavy, 29);
  Spec.DeadMembersPerClass = 1;
  std::vector<NamedClass> Raw = generateCorpus(Spec);

  // Reference stripping: prepare + strip in-process, then compare the
  // packer's restored bytes against the same classes written directly.
  std::vector<ClassFile> Prepared;
  for (const NamedClass &C : Raw) {
    auto CF = parseClassFile(C.Data);
    ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(*CF)));
    Prepared.push_back(std::move(*CF));
  }
  StripStats Stats = stripUnreferencedMembers(Prepared);
  EXPECT_GT(Stats.membersRemoved(), 0u);
  // Stripping drops only the members; preparing again sheds their pool
  // entries, as the packer does.
  for (ClassFile &CF : Prepared)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));

  PackOptions Options;
  Options.StripUnreferenced = true;
  auto Packed = packClassBytes(Raw, Options);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  EXPECT_EQ(Packed->StrippedFields, Stats.FieldsRemoved);
  EXPECT_EQ(Packed->StrippedMethods, Stats.MethodsRemoved);

  auto Restored = unpackClasses(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Restored)) << Restored.message();
  ASSERT_EQ(Restored->size(), Prepared.size());

  // Order-independent byte equality (packing may reorder classes).
  // Compare SHA-1 digests: sorting raw byte vectors trips a GCC-12
  // -Wstringop-overread false positive.
  std::set<std::array<uint8_t, 20>> Want, Got;
  for (const ClassFile &CF : Prepared)
    Want.insert(sha1Of(writeClassFile(CF)));
  for (const ClassFile &CF : *Restored)
    Got.insert(sha1Of(writeClassFile(CF)));
  EXPECT_EQ(Want, Got);

  // Nothing dead remains — the strip converged for this corpus — and
  // the restored archive is structurally clean.
  ArchiveAnalysisReport After = analyzeArchive(*Restored);
  for (const Diagnostic &D : After.Diags)
    ADD_FAILURE() << formatDiagnostic(D);
}

// Stripping composes with the indexed layout: the pack's own restore
// gate decodes the version-3 archive, and the archive restores the same
// classes as the version-2 stripped archive of the same input.
TEST(StripUnreferenced, IndexedPackPassesItsRestoreGate) {
  CorpusSpec Spec = smallSpec(CodeStyle::Balanced, 17);
  Spec.DeadMembersPerClass = 2;
  std::vector<NamedClass> Classes = generateCorpus(Spec);
  PackOptions Sharded;
  Sharded.Shards = 2;
  Sharded.Threads = 2;
  Sharded.StripUnreferenced = true;
  PackOptions Indexed = Sharded;
  Indexed.RandomAccessIndex = true;
  auto V2 = packClassBytes(Classes, Sharded);
  auto V3 = packClassBytes(Classes, Indexed);
  ASSERT_TRUE(static_cast<bool>(V2)) << V2.message();
  ASSERT_TRUE(static_cast<bool>(V3)) << V3.message();
  ASSERT_EQ(V3->Archive[4], FormatVersionIndexed);
  EXPECT_GT(V3->StrippedFields + V3->StrippedMethods, 0u);
  EXPECT_EQ(V3->StrippedFields, V2->StrippedFields);
  EXPECT_EQ(V3->StrippedMethods, V2->StrippedMethods);

  auto Want = unpackArchive(V2->Archive);
  auto Got = unpackArchive(V3->Archive);
  ASSERT_TRUE(Want && Got);
  ASSERT_EQ(Got->size(), Want->size());
  for (size_t I = 0; I < Want->size(); ++I) {
    EXPECT_EQ((*Got)[I].Name, (*Want)[I].Name);
    EXPECT_EQ((*Got)[I].Data, (*Want)[I].Data) << (*Want)[I].Name;
  }
}

} // namespace
