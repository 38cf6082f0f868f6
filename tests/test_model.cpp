//===- test_model.cpp - restructured model (Fig. 1) tests -----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "pack/ClassOrder.h"
#include "pack/Materialize.h"
#include "pack/Model.h"
#include "pack/Preload.h"
#include "pack/Transcode.h"
#include <gtest/gtest.h>
#include <set>

using namespace cjpack;

TEST(Model, SplitClassName) {
  std::string Pkg, Simple;
  splitClassName("java/lang/String", Pkg, Simple);
  EXPECT_EQ(Pkg, "java/lang");
  EXPECT_EQ(Simple, "String");
  splitClassName("TopLevel", Pkg, Simple);
  EXPECT_EQ(Pkg, "");
  EXPECT_EQ(Simple, "TopLevel");
}

TEST(Model, InterningIsIdempotent) {
  Model M;
  uint32_t A = M.internPackage("java/util");
  EXPECT_EQ(M.internPackage("java/util"), A);
  uint32_t B = M.internPackage("java/io");
  EXPECT_NE(A, B);
  EXPECT_EQ(M.package(A), "java/util");
}

TEST(Model, PackagesAndSimpleNamesAreShared) {
  // The §3 factoring: java/lang occurs once; Simple names can repeat
  // across packages.
  Model M;
  auto A = M.internClassByInternalName("java/lang/String");
  auto B = M.internClassByInternalName("java/lang/Object");
  auto C = M.internClassByInternalName("com/acme/String");
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  ASSERT_TRUE(static_cast<bool>(C));
  EXPECT_EQ(M.classRef(*A).Package, M.classRef(*B).Package);
  EXPECT_NE(M.classRef(*A).Package, M.classRef(*C).Package);
  EXPECT_EQ(M.classRef(*A).Simple, M.classRef(*C).Simple);
}

TEST(Model, ArrayAndPrimitiveClassRefs) {
  Model M;
  auto Arr = M.internClassByInternalName("[[Ljava/lang/String;");
  ASSERT_TRUE(static_cast<bool>(Arr));
  EXPECT_EQ(M.classRef(*Arr).Dims, 2);
  EXPECT_EQ(M.classRefInternalName(*Arr), "[[Ljava/lang/String;");
  EXPECT_EQ(M.classRefVType(*Arr), VType::Ref);

  auto IntArr = M.internClassByInternalName("[I");
  ASSERT_TRUE(static_cast<bool>(IntArr));
  EXPECT_EQ(M.classRefInternalName(*IntArr), "[I");

  TypeDesc T;
  T.Base = 'J';
  uint32_t LongRef = *M.internTypeDesc(T);
  EXPECT_EQ(M.classRefVType(LongRef), VType::Long);
  EXPECT_EQ(printTypeDesc(M.classRefTypeDesc(LongRef)), "J");
}

TEST(Model, PlainClassNameRoundTrips) {
  Model M;
  auto Id = M.internClassByInternalName("com/acme/util/HashEntry");
  ASSERT_TRUE(static_cast<bool>(Id));
  EXPECT_EQ(M.classRefInternalName(*Id), "com/acme/util/HashEntry");
  EXPECT_EQ(printTypeDesc(M.classRefTypeDesc(*Id)),
            "Lcom/acme/util/HashEntry;");
}

TEST(Model, SignatureFactorsAndReprints) {
  Model M;
  std::string Desc = "(I[JLjava/lang/String;)Ljava/util/Vector;";
  auto Sig = M.internSignature(Desc);
  ASSERT_TRUE(static_cast<bool>(Sig));
  ASSERT_EQ(Sig->size(), 4u); // return + 3 params
  EXPECT_EQ(M.signatureDescriptor(*Sig), Desc);
  std::vector<VType> Args;
  VType Ret = VType::Void;
  M.signatureVTypes(*Sig, Args, Ret);
  ASSERT_EQ(Args.size(), 3u);
  EXPECT_EQ(Args[0], VType::Int);
  EXPECT_EQ(Args[1], VType::Ref);
  EXPECT_EQ(Args[2], VType::Ref);
  EXPECT_EQ(Ret, VType::Ref);
}

TEST(Model, SignatureSharingAcrossMethods) {
  // Two methods with the same parameter types share every class ref —
  // the §4 claim that factoring kills descriptor duplication.
  Model M;
  auto A = M.internSignature("(Ljava/lang/String;)Ljava/lang/String;");
  auto B = M.internSignature("(Ljava/lang/String;)V");
  ASSERT_TRUE(static_cast<bool>(A) && static_cast<bool>(B));
  EXPECT_EQ((*A)[1], (*B)[1]) << "parameter class ref shared";
}

TEST(Model, MemberRefInterning) {
  Model M;
  MFieldRef F1, F2;
  F1.Owner = F2.Owner = *M.internClassByInternalName("a/B");
  F1.Name = M.internFieldName("x");
  F2.Name = M.internFieldName("x");
  TypeDesc T;
  T.Base = 'I';
  F1.Type = F2.Type = *M.internTypeDesc(T);
  EXPECT_EQ(M.internFieldRef(F1), M.internFieldRef(F2));

  MMethodRef M1;
  M1.Owner = F1.Owner;
  M1.Name = M.internMethodName("go");
  M1.Sig = *M.internSignature("()V");
  uint32_t Id = M.internMethodRef(M1);
  EXPECT_EQ(M.internMethodRef(M1), Id);
  EXPECT_EQ(M.methodRef(Id).Name, M1.Name);
}

TEST(Model, RejectsMalformedNames) {
  Model M;
  EXPECT_FALSE(static_cast<bool>(M.internClassByInternalName("[")));
  EXPECT_FALSE(static_cast<bool>(M.internClassByInternalName("[Lx")));
  EXPECT_FALSE(static_cast<bool>(M.internSignature("not a descriptor")));
}

TEST(Preload, SeedsConsistentlyOnBothSides) {
  // The encoder-side and decoder-side preloads must walk identical
  // sequences; capture both and compare.
  struct Capture final : RefEncoder {
    std::vector<std::pair<uint32_t, uint32_t>> Events;
    bool encode(uint32_t, uint32_t, uint32_t, ByteWriter &) override {
      return false;
    }
    bool preload(uint32_t Pool, uint32_t Object) override {
      Events.push_back({Pool, Object});
      return true;
    }
  };
  struct CaptureDec final : RefDecoder {
    std::vector<std::pair<uint32_t, uint32_t>> Events;
    std::optional<uint32_t> decode(uint32_t, uint32_t,
                                   ByteReader &) override {
      return std::nullopt;
    }
    void registerNew(uint32_t, uint32_t, uint32_t) override {}
    bool preload(uint32_t Pool, uint32_t Object) override {
      Events.push_back({Pool, Object});
      return true;
    }
  };
  Model MEnc, MDec;
  Capture Enc;
  CaptureDec Dec;
  ASSERT_TRUE(preloadStandardRefs(
      MEnc, Enc, RefScheme::MtfTransientsContext));
  ASSERT_TRUE(preloadStandardRefs(
      MDec, Dec, RefScheme::MtfTransientsContext));
  EXPECT_EQ(Enc.Events, Dec.Events);
  EXPECT_GT(Enc.Events.size(), 40u);
}

TEST(Preload, SimpleSchemeMergesPools) {
  struct Capture final : RefEncoder {
    std::set<uint32_t> Pools;
    bool encode(uint32_t, uint32_t, uint32_t, ByteWriter &) override {
      return false;
    }
    bool preload(uint32_t Pool, uint32_t Object) override {
      (void)Object;
      Pools.insert(Pool);
      return true;
    }
  };
  Model M;
  Capture Enc;
  ASSERT_TRUE(preloadStandardRefs(M, Enc, RefScheme::Simple));
  EXPECT_FALSE(Enc.Pools.count(poolId(PoolKind::MethodSpecial)))
      << "Simple merges all method pools into MethodVirtual";
  EXPECT_TRUE(Enc.Pools.count(poolId(PoolKind::MethodVirtual)));
}

namespace {

/// A record of class pkg/A (extends java/lang/Object) with one method
/// void run() whose code is \p Insns, offsets and operands filled in.
/// Records like these reach materializeClass only through a hostile
/// archive; the wire decoder never builds them from a packed class.
struct HandBuiltClass {
  Model M;
  ClassRec Rec;

  explicit HandBuiltClass(std::vector<std::pair<Insn, CodeOperand>> Code) {
    Rec.MajorVersion = 45;
    Rec.MinorVersion = 3;
    Rec.Flags = AccPublic | AccSuper | PackedFlagAux0;
    Rec.ThisId = *M.internClassByInternalName("pkg/A");
    Rec.HasSuper = true;
    Rec.SuperId = *M.internClassByInternalName("java/lang/Object");
    MMethodRef Run;
    Run.Owner = Rec.ThisId;
    Run.Name = M.internMethodName("run");
    Run.Sig = *M.internSignature("()V");
    MethodRec Method;
    Method.Flags = AccPublic | PackedFlagAux0;
    Method.RefId = M.internMethodRef(Run);
    CodeRec Body;
    Body.MaxStack = 2;
    Body.MaxLocals = 1;
    uint32_t Offset = 0;
    for (auto &[I, Operand] : Code) {
      I.Offset = Offset;
      I.Length = encodedLength(I, Offset);
      Offset += I.Length;
      Body.Insns.push_back(I);
      Body.Operands.push_back(Operand);
    }
    Method.Code = std::move(Body);
    Rec.Methods.push_back(std::move(Method));
  }

  Expected<ClassFile> materialize() const { return materializeClass(M, Rec); }
};

std::pair<Insn, CodeOperand> plain(Op O) {
  Insn I;
  I.Opcode = O;
  return {I, CodeOperand()};
}

std::pair<Insn, CodeOperand> branch(Op O, int32_t Target) {
  auto P = plain(O);
  P.first.BranchTarget = Target;
  return P;
}

std::pair<Insn, CodeOperand> ldcInt(int64_t Value) {
  auto P = plain(Op::Ldc);
  P.second.Kind = ConstKind::Int;
  P.second.IntValue = Value;
  return P;
}

void expectCorrupt(const HandBuiltClass &C, const char *What) {
  auto CF = C.materialize();
  ASSERT_FALSE(static_cast<bool>(CF)) << What << " materialized";
  EXPECT_EQ(CF.code(), ErrorCode::Corrupt) << What << ": " << CF.message();
}

} // namespace

// The control: a well-formed record materializes to a class that
// re-parses and decodes.
TEST(Materialize, HandBuiltRecordRestores) {
  HandBuiltClass C({branch(Op::Goto, 3), plain(Op::Return)});
  auto CF = C.materialize();
  ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
  auto Parsed = parseClassFile(writeClassFile(*CF));
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(Parsed->thisClassName(), "pkg/A");
}

// Records no packed class produces must be rejected by the
// materializer itself, as Corrupt, since nothing decodes its output.
TEST(Materialize, RejectsBranchPastTheCode) {
  expectCorrupt(HandBuiltClass({branch(Op::Goto, 100), plain(Op::Return)}),
                "goto 100 in a 4-byte method");
}

TEST(Materialize, RejectsSwitchTargetPastTheCode) {
  auto Switch = plain(Op::TableSwitch);
  Switch.first.SwitchLow = 0;
  Switch.first.SwitchHigh = 0;
  Switch.first.SwitchDefault = 20; // the return below
  Switch.first.SwitchTargets = {5000};
  expectCorrupt(HandBuiltClass({plain(Op::IConst0), Switch,
                                plain(Op::Return)}),
                "tableswitch target 5000");
}

TEST(Materialize, RejectsWidePrefixOnGoto) {
  auto Wide = branch(Op::Goto, 4);
  Wide.first.IsWide = true;
  expectCorrupt(HandBuiltClass({Wide, plain(Op::Return)}),
                "wide goto");
}

TEST(Materialize, RejectsLdcConstantsPastIndex255) {
  std::vector<std::pair<Insn, CodeOperand>> Code;
  for (int64_t K = 0; K < 257; ++K) {
    Code.push_back(ldcInt(100000 + K));
    Code.push_back(plain(Op::Pop));
  }
  Code.push_back(plain(Op::Return));
  expectCorrupt(HandBuiltClass(std::move(Code)), "257 ldc int constants");
}
