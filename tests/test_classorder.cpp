//===- test_classorder.cpp - §11 eager-loading class order ----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// eagerLoadOrder must produce a supertype-first permutation, stable with
// respect to the input order, tolerant of external supertypes and of
// malformed (cyclic) hierarchies; isEagerLoadable is its checker. These
// tests pin the contract on hand-built hierarchies where the expected
// order is known exactly, complementing the corpus-level checks.
//
//===----------------------------------------------------------------------===//

#include "pack/ClassOrder.h"
#include "pack/Packer.h"
#include "corpus/Corpus.h"
#include <algorithm>
#include <gtest/gtest.h>

using namespace cjpack;

namespace {

/// Minimal classfile: just enough constant pool for the names the
/// ordering logic reads.
ClassFile makeClass(const std::string &Name, const std::string &Super,
                    std::vector<std::string> Ifaces = {}) {
  ClassFile CF;
  CF.ThisClass = CF.CP.addClass(Name);
  if (!Super.empty())
    CF.SuperClass = CF.CP.addClass(Super);
  for (const std::string &I : Ifaces)
    CF.Interfaces.push_back(CF.CP.addClass(I));
  return CF;
}

std::vector<ClassFile> reorder(const std::vector<ClassFile> &Classes,
                               const std::vector<size_t> &Order) {
  std::vector<ClassFile> Out;
  for (size_t I : Order)
    Out.push_back(Classes[I]);
  return Out;
}

std::vector<std::string> namesOf(const std::vector<ClassFile> &Classes,
                                 const std::vector<size_t> &Order) {
  std::vector<std::string> Out;
  for (size_t I : Order)
    Out.emplace_back(Classes[I].thisClassName());
  return Out;
}

} // namespace

TEST(ClassOrder, EmptyAndSingleton) {
  EXPECT_TRUE(eagerLoadOrder({}).empty());
  EXPECT_TRUE(isEagerLoadable({}));
  std::vector<ClassFile> One;
  One.push_back(makeClass("A", "java/lang/Object"));
  EXPECT_EQ(eagerLoadOrder(One), std::vector<size_t>{0});
  EXPECT_TRUE(isEagerLoadable(One));
}

TEST(ClassOrder, AlreadyValidOrderIsUntouched) {
  // Stability: when the input already satisfies every constraint, the
  // order must be the identity — unrelated classes never move.
  std::vector<ClassFile> Classes;
  Classes.push_back(makeClass("A", "java/lang/Object"));
  Classes.push_back(makeClass("X", "java/lang/Object"));
  Classes.push_back(makeClass("B", "A"));
  Classes.push_back(makeClass("C", "B"));
  ASSERT_TRUE(isEagerLoadable(Classes));
  EXPECT_EQ(eagerLoadOrder(Classes), (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ClassOrder, ReversedChainIsSorted) {
  std::vector<ClassFile> Classes;
  Classes.push_back(makeClass("C", "B"));
  Classes.push_back(makeClass("B", "A"));
  Classes.push_back(makeClass("A", "java/lang/Object"));
  ASSERT_FALSE(isEagerLoadable(Classes));
  std::vector<size_t> Order = eagerLoadOrder(Classes);
  EXPECT_EQ(namesOf(Classes, Order),
            (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_TRUE(isEagerLoadable(reorder(Classes, Order)));
}

TEST(ClassOrder, InterfacesPrecedeImplementors) {
  std::vector<ClassFile> Classes;
  Classes.push_back(
      makeClass("Impl", "Base", {"IfaceOne", "IfaceTwo"}));
  Classes.push_back(makeClass("IfaceTwo", "java/lang/Object"));
  Classes.push_back(makeClass("Base", "java/lang/Object"));
  Classes.push_back(makeClass("IfaceOne", "java/lang/Object"));
  ASSERT_FALSE(isEagerLoadable(Classes));
  std::vector<size_t> Order = eagerLoadOrder(Classes);
  // Impl's supertypes are visited super-first then interfaces in
  // declaration order, so the full order is deterministic.
  EXPECT_EQ(namesOf(Classes, Order),
            (std::vector<std::string>{"Base", "IfaceOne", "IfaceTwo",
                                      "Impl"}));
  EXPECT_TRUE(isEagerLoadable(reorder(Classes, Order)));
}

TEST(ClassOrder, ExternalSupertypesImposeNoConstraint) {
  // Supertypes outside the archive (the JDK, other jars) cannot be
  // ordered before their subclasses and must not perturb the order.
  std::vector<ClassFile> Classes;
  Classes.push_back(makeClass("A", "external/Base", {"external/Iface"}));
  Classes.push_back(makeClass("B", "other/Base"));
  EXPECT_TRUE(isEagerLoadable(Classes));
  EXPECT_EQ(eagerLoadOrder(Classes), (std::vector<size_t>{0, 1}));
}

TEST(ClassOrder, DiamondHierarchy) {
  std::vector<ClassFile> Classes;
  Classes.push_back(makeClass("Bottom", "Left", {"Right"}));
  Classes.push_back(makeClass("Left", "Top"));
  Classes.push_back(makeClass("Right", "Top"));
  Classes.push_back(makeClass("Top", "java/lang/Object"));
  std::vector<size_t> Order = eagerLoadOrder(Classes);
  std::vector<ClassFile> Sorted = reorder(Classes, Order);
  EXPECT_TRUE(isEagerLoadable(Sorted));
  // Top is everyone's ancestor and must come first.
  EXPECT_EQ(Sorted.front().thisClassName(), "Top");
}

TEST(ClassOrder, CyclicHierarchyStillEmitsEveryClassOnce) {
  // Malformed input (an inheritance cycle) cannot be made loadable,
  // but the order must still be a permutation — no class dropped, no
  // class duplicated, no infinite recursion.
  std::vector<ClassFile> Classes;
  Classes.push_back(makeClass("A", "B"));
  Classes.push_back(makeClass("B", "A"));
  Classes.push_back(makeClass("C", "A"));
  std::vector<size_t> Order = eagerLoadOrder(Classes);
  ASSERT_EQ(Order.size(), Classes.size());
  std::vector<size_t> Sorted = Order;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(Sorted, (std::vector<size_t>{0, 1, 2}));
}

TEST(ClassOrder, PackedArchivesComeOutEagerLoadable) {
  CorpusSpec Spec;
  Spec.Name = "ordertest";
  Spec.Seed = 31;
  Spec.NumClasses = 24;
  Spec.NumPackages = 3;
  std::vector<ClassFile> Classes = generateCorpusClasses(Spec);
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  // Scramble the input; the packer's OrderForEagerLoading must restore
  // the §11 property in the unpacked archive, at 1 and 4 shards.
  std::reverse(Classes.begin(), Classes.end());
  for (unsigned Shards : {1u, 4u}) {
    PackOptions Options;
    Options.Shards = Shards;
    auto Packed = packClasses(Classes, Options);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    auto Unpacked = unpackClasses(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Unpacked)) << Unpacked.message();
    EXPECT_TRUE(isEagerLoadable(*Unpacked)) << Shards << " shards";
  }
}

TEST(ClassOrder, DisabledOrderingPreservesInputOrder) {
  std::vector<ClassFile> Classes;
  Classes.push_back(makeClass("pkg/C", "pkg/B"));
  Classes.push_back(makeClass("pkg/B", "pkg/A"));
  Classes.push_back(makeClass("pkg/A", "java/lang/Object"));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  PackOptions Options;
  Options.OrderForEagerLoading = false;
  auto Packed = packClasses(Classes, Options);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  auto Unpacked = unpackClasses(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Unpacked)) << Unpacked.message();
  ASSERT_EQ(Unpacked->size(), 3u);
  EXPECT_EQ((*Unpacked)[0].thisClassName(), "pkg/C");
  EXPECT_EQ((*Unpacked)[1].thisClassName(), "pkg/B");
  EXPECT_EQ((*Unpacked)[2].thisClassName(), "pkg/A");
}