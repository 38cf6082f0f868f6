//===- test_bytecode.cpp - instruction codec and stack-state tests --------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Instruction.h"
#include "bytecode/StackState.h"
#include "classfile/ConstantPool.h"
#include "corpus/BytecodeBuilder.h"
#include <gtest/gtest.h>
#include <cstring>

using namespace cjpack;

namespace {

std::vector<uint8_t> buildCode(
    const std::function<void(BytecodeBuilder &)> &Fn) {
  ConstantPool CP;
  BytecodeBuilder B(CP, 1);
  Fn(B);
  std::span<const uint8_t> Code = B.finish().Code;
  return {Code.begin(), Code.end()};
}

} // namespace

TEST(InstructionCodec, SimpleSequenceRoundTrips) {
  std::vector<uint8_t> Code = buildCode([](BytecodeBuilder &B) {
    B.pushInt(1);
    B.pushInt(200);     // bipush won't fit, sipush
    B.op(Op::IAdd);
    B.op(Op::Pop);
    B.ret(VType::Void);
  });
  auto Insns = decodeCode(Code);
  ASSERT_TRUE(static_cast<bool>(Insns)) << Insns.message();
  EXPECT_EQ(encodeCode(*Insns), Code);
}

TEST(InstructionCodec, BranchTargetsAreAbsolute) {
  std::vector<uint8_t> Code = buildCode([](BytecodeBuilder &B) {
    auto L = B.newLabel();
    B.pushInt(0);
    B.branch(Op::IfEq, L);
    B.pushInt(1);
    B.op(Op::Pop);
    B.placeLabel(L);
    B.ret(VType::Void);
  });
  auto Insns = decodeCode(Code);
  ASSERT_TRUE(static_cast<bool>(Insns));
  const Insn *Branch = nullptr;
  for (const Insn &I : *Insns)
    if (I.Opcode == Op::IfEq)
      Branch = &I;
  ASSERT_NE(Branch, nullptr);
  // Target is the offset of the return instruction.
  EXPECT_EQ(static_cast<uint32_t>(Branch->BranchTarget),
            Insns->back().Offset);
  EXPECT_EQ(encodeCode(*Insns), Code);
}

TEST(InstructionCodec, TableSwitchRoundTrips) {
  std::vector<uint8_t> Code = buildCode([](BytecodeBuilder &B) {
    std::vector<BytecodeBuilder::Label> Cases;
    for (int I = 0; I < 3; ++I)
      Cases.push_back(B.newLabel());
    auto LDef = B.newLabel();
    B.pushInt(1);
    B.tableSwitch(10, Cases, LDef);
    for (auto L : Cases) {
      B.placeLabel(L);
      B.pushInt(0);
      B.op(Op::Pop);
    }
    B.placeLabel(LDef);
    B.ret(VType::Void);
  });
  auto Insns = decodeCode(Code);
  ASSERT_TRUE(static_cast<bool>(Insns)) << Insns.message();
  const Insn *Sw = nullptr;
  for (const Insn &I : *Insns)
    if (I.Opcode == Op::TableSwitch)
      Sw = &I;
  ASSERT_NE(Sw, nullptr);
  EXPECT_EQ(Sw->SwitchLow, 10);
  EXPECT_EQ(Sw->SwitchHigh, 12);
  ASSERT_EQ(Sw->SwitchTargets.size(), 3u);
  EXPECT_EQ(encodeCode(*Insns), Code);
}

TEST(InstructionCodec, LookupSwitchRoundTrips) {
  std::vector<uint8_t> Code = buildCode([](BytecodeBuilder &B) {
    std::vector<BytecodeBuilder::Label> Cases = {B.newLabel(),
                                                 B.newLabel()};
    auto LDef = B.newLabel();
    B.pushInt(1);
    B.lookupSwitch({-5, 1000}, Cases, LDef);
    for (auto L : Cases) {
      B.placeLabel(L);
      B.pushInt(0);
      B.op(Op::Pop);
    }
    B.placeLabel(LDef);
    B.ret(VType::Void);
  });
  auto Insns = decodeCode(Code);
  ASSERT_TRUE(static_cast<bool>(Insns)) << Insns.message();
  const Insn *Sw = nullptr;
  for (const Insn &I : *Insns)
    if (I.Opcode == Op::LookupSwitch)
      Sw = &I;
  ASSERT_NE(Sw, nullptr);
  ASSERT_EQ(Sw->SwitchMatches.size(), 2u);
  EXPECT_EQ(Sw->SwitchMatches[0], -5);
  EXPECT_EQ(Sw->SwitchMatches[1], 1000);
  EXPECT_EQ(encodeCode(*Insns), Code);
}

TEST(InstructionCodec, WideInstructionsRoundTrip) {
  std::vector<uint8_t> Code = buildCode([](BytecodeBuilder &B) {
    // Force locals beyond 255 so wide forms are emitted.
    for (int I = 0; I < 300; ++I)
      B.newLocal(VType::Int);
    B.pushInt(1);
    B.storeLocal(VType::Int, 290);
    B.loadLocal(VType::Int, 290);
    B.op(Op::Pop);
    B.ret(VType::Void);
  });
  auto Insns = decodeCode(Code);
  ASSERT_TRUE(static_cast<bool>(Insns)) << Insns.message();
  bool SawWide = false;
  for (const Insn &I : *Insns)
    if (I.IsWide) {
      SawWide = true;
      EXPECT_EQ(I.LocalIndex, 290u);
    }
  EXPECT_TRUE(SawWide);
  EXPECT_EQ(encodeCode(*Insns), Code);
}

TEST(InstructionCodec, RejectsTruncatedCode) {
  std::vector<uint8_t> Code = buildCode([](BytecodeBuilder &B) {
    B.pushInt(200);
    B.op(Op::Pop);
    B.ret(VType::Void);
  });
  Code.resize(2); // cut inside the sipush operand
  auto Insns = decodeCode(Code);
  if (Insns)
    FAIL() << "expected decode failure on truncated stream";
}

TEST(OpcodeTable, MnemonicsAndFormats) {
  EXPECT_STREQ(opInfo(Op::ALoad0).Mnemonic, "aload_0");
  EXPECT_STREQ(opInfo(Op::InvokeVirtual).Mnemonic, "invokevirtual");
  EXPECT_EQ(opInfo(Op::Ldc).Format, OpFormat::CpU1);
  EXPECT_EQ(opInfo(Op::Goto).Format, OpFormat::Branch2);
  EXPECT_EQ(opInfo(Op::GotoW).Format, OpFormat::Branch4);
  EXPECT_EQ(cpRefKind(Op::GetField), CpRefKind::FieldInstance);
  EXPECT_EQ(cpRefKind(Op::GetStatic), CpRefKind::FieldStatic);
  EXPECT_EQ(cpRefKind(Op::InvokeInterface), CpRefKind::MethodInterface);
  EXPECT_EQ(cpRefKind(Op::New), CpRefKind::ClassRef);
  EXPECT_EQ(cpRefKind(Op::IAdd), CpRefKind::None);
  uint32_t Idx = 99;
  EXPECT_TRUE(implicitLocalIndex(Op::ALoad0, Idx));
  EXPECT_EQ(Idx, 0u);
  EXPECT_TRUE(implicitLocalIndex(Op::IStore3, Idx));
  EXPECT_EQ(Idx, 3u);
  EXPECT_FALSE(implicitLocalIndex(Op::IAdd, Idx));
}

TEST(StackState, TracksSimpleArithmetic) {
  StackState S;
  S.startMethod();
  EXPECT_TRUE(S.isKnown());
  Insn I;
  I.Opcode = Op::IConst1;
  S.apply(I, nullptr);
  EXPECT_EQ(S.top(), VType::Int);
  Insn I2;
  I2.Opcode = Op::I2D;
  S.apply(I2, nullptr);
  EXPECT_EQ(S.top(), VType::Double);
}

TEST(StackState, CollapseFamiliesPredictVariants) {
  EXPECT_EQ(familyOf(Op::FAdd), OpFamily::Add);
  EXPECT_EQ(*variantFor(OpFamily::Add, VType::Float), Op::FAdd);
  EXPECT_EQ(*variantFor(OpFamily::Add, VType::Long), Op::LAdd);
  EXPECT_EQ(*variantFor(OpFamily::TypedReturn, VType::Ref), Op::AReturn);
  EXPECT_EQ(*variantFor(OpFamily::Store2, VType::Double), Op::DStore2);
  EXPECT_FALSE(variantFor(OpFamily::Add, VType::Ref).has_value());
  EXPECT_FALSE(variantFor(OpFamily::Add, VType::Unknown).has_value());
  // Shifts are keyed one below the top (the shifted value).
  EXPECT_EQ(familyKeyDepth(OpFamily::Shl), 1u);
  EXPECT_EQ(*variantFor(OpFamily::Shl, VType::Long), Op::LShl);
}

TEST(StackState, ShiftKeyedBySecondFromTop) {
  StackState S;
  S.startMethod();
  Insn LC;
  LC.Opcode = Op::LConst1;
  S.apply(LC, nullptr);
  Insn IC;
  IC.Opcode = Op::IConst2;
  S.apply(IC, nullptr);
  // Stack: J I — a shift here must predict the long variant.
  EXPECT_EQ(S.top(0), VType::Int);
  EXPECT_EQ(S.top(1), VType::Long);
  OpFamily F = familyOf(Op::LShl);
  EXPECT_EQ(*variantFor(F, S.top(familyKeyDepth(F))), Op::LShl);
}

TEST(StackState, UnknownAfterUnconditionalTransfer) {
  StackState S;
  S.startMethod();
  Insn G;
  G.Opcode = Op::Goto;
  G.Offset = 0;
  G.BranchTarget = 100;
  S.apply(G, nullptr);
  EXPECT_FALSE(S.isKnown());
  EXPECT_EQ(S.top(), VType::Unknown);
}

TEST(StackState, RecoversAtForwardBranchTarget) {
  StackState S;
  S.startMethod();
  Insn C;
  C.Opcode = Op::IConst1;
  C.Offset = 0;
  S.apply(C, nullptr);
  Insn Br; // ifeq +10 with an int under it
  Br.Opcode = Op::IfEq;
  Br.Offset = 1;
  Br.BranchTarget = 10;
  Insn C2;
  C2.Opcode = Op::IConst1;
  C2.Offset = 1;
  S.apply(C2, nullptr);
  S.apply(Br, nullptr);
  // Fall-through: still known, one int on the stack.
  EXPECT_TRUE(S.isKnown());
  EXPECT_EQ(S.top(), VType::Int);
  // Unconditional transfer kills the state...
  Insn G;
  G.Opcode = Op::Goto;
  G.Offset = 4;
  G.BranchTarget = 50;
  S.apply(G, nullptr);
  EXPECT_FALSE(S.isKnown());
  // ...but arriving at the saved forward target recovers it.
  Insn At;
  At.Opcode = Op::Nop;
  At.Offset = 10;
  S.apply(At, nullptr);
  EXPECT_TRUE(S.isKnown());
  EXPECT_EQ(S.top(), VType::Int);
}

TEST(StackState, InvokeUsesSignatureTypes) {
  StackState S;
  S.startMethod();
  Insn A;
  A.Opcode = Op::AConstNull;
  S.apply(A, nullptr);
  Insn C;
  C.Opcode = Op::IConst1;
  S.apply(C, nullptr);
  Insn Call;
  Call.Opcode = Op::InvokeVirtual;
  const VType Args[] = {VType::Int};
  InsnTypes T;
  T.ArgTypes = Args;
  T.RetType = VType::Long;
  S.apply(Call, &T);
  EXPECT_TRUE(S.isKnown());
  EXPECT_EQ(S.top(), VType::Long);
}

TEST(StackState, ContextIdDistinguishesTopTwoTypes) {
  StackState S;
  S.startMethod();
  unsigned Empty = S.contextId();
  Insn A;
  A.Opcode = Op::IConst1;
  S.apply(A, nullptr);
  unsigned OneInt = S.contextId();
  Insn B;
  B.Opcode = Op::AConstNull;
  S.apply(B, nullptr);
  unsigned RefOverInt = S.contextId();
  EXPECT_NE(Empty, OneInt);
  EXPECT_NE(OneInt, RefOverInt);
  EXPECT_LT(Empty, StackState::NumContexts);
  EXPECT_LT(RefOverInt, StackState::NumContexts);
}

TEST(StackState, DupFamilyShuffles) {
  StackState S;
  S.startMethod();
  Insn A;
  A.Opcode = Op::AConstNull;
  S.apply(A, nullptr);
  Insn D;
  D.Opcode = Op::Dup;
  S.apply(D, nullptr);
  EXPECT_EQ(S.top(0), VType::Ref);
  EXPECT_EQ(S.top(1), VType::Ref);
  Insn Sw;
  Sw.Opcode = Op::Swap;
  Insn I;
  I.Opcode = Op::IConst3;
  S.apply(I, nullptr);
  S.apply(Sw, nullptr);
  EXPECT_EQ(S.top(0), VType::Ref);
  EXPECT_EQ(S.top(1), VType::Int);
}

TEST(EncodedLength, MatchesDecodedLengths) {
  std::vector<uint8_t> Code = buildCode([](BytecodeBuilder &B) {
    std::vector<BytecodeBuilder::Label> Cases = {B.newLabel()};
    auto LDef = B.newLabel();
    B.pushInt(5);
    B.tableSwitch(0, Cases, LDef);
    B.placeLabel(Cases[0]);
    B.placeLabel(LDef);
    B.pushInt(100000);
    B.op(Op::Pop);
    B.ret(VType::Void);
  });
  auto Insns = decodeCode(Code);
  ASSERT_TRUE(static_cast<bool>(Insns));
  for (const Insn &I : *Insns)
    EXPECT_EQ(encodedLength(I, I.Offset), I.Length)
        << opInfo(I.Opcode).Mnemonic;
}

namespace {

constexpr VType AllVTypes[] = {VType::Int,    VType::Long, VType::Float,
                               VType::Double, VType::Ref,  VType::Void,
                               VType::Unknown};

/// The opcodes with a collapse family: FamilyOpcodeTest's parameters.
std::vector<int> familyOpcodes() {
  std::vector<int> Out;
  for (int Raw = 0; Raw <= MaxOpcode; ++Raw)
    if (familyOf(static_cast<Op>(Raw)) != OpFamily::None)
      Out.push_back(Raw);
  return Out;
}

} // namespace

class FamilyOpcodeTest : public ::testing::TestWithParam<int> {};

/// Exhaustive consistency of the collapse tables: for every opcode in a
/// family, variantFor(family, key-type) maps back to that opcode, and
/// the key type is derivable from the opcode's own stack behaviour.
TEST_P(FamilyOpcodeTest, VariantTablesAreConsistent) {
  uint8_t Raw = static_cast<uint8_t>(GetParam());
  Op O = static_cast<Op>(Raw);
  OpFamily F = familyOf(O);
  ASSERT_NE(F, OpFamily::None) << opInfo(O).Mnemonic;
  // Find the key type by probing all VTypes: exactly one must map back.
  unsigned Matches = 0;
  for (VType T : {VType::Int, VType::Long, VType::Float, VType::Double,
                  VType::Ref}) {
    auto V = variantFor(F, T);
    if (V && *V == O) {
      ++Matches;
      // And the table's declared pops for the variant agree with the
      // key at the declared depth.
      const char *Pops = opInfo(O).Pops;
      if (Pops[0] != '*' && Pops[0] != '\0') {
        size_t L = strlen(Pops);
        unsigned Depth = familyKeyDepth(F);
        ASSERT_GT(L, Depth);
        char KeyChar = Pops[L - 1 - Depth];
        VType Expected;
        switch (KeyChar) {
        case 'I': Expected = VType::Int; break;
        case 'J': Expected = VType::Long; break;
        case 'F': Expected = VType::Float; break;
        case 'D': Expected = VType::Double; break;
        default: Expected = VType::Ref; break;
        }
        EXPECT_EQ(T, Expected) << opInfo(O).Mnemonic;
      }
    }
  }
  EXPECT_EQ(Matches, 1u) << opInfo(O).Mnemonic
                         << ": exactly one key type must select it";
  EXPECT_FALSE(variantFor(F, VType::Unknown).has_value());
}

// Named by opcode value, so a test's name says which opcode it checks.
INSTANTIATE_TEST_SUITE_P(AllOpcodes, FamilyOpcodeTest,
                         ::testing::ValuesIn(familyOpcodes()),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return std::to_string(Info.param);
                         });

/// The complement of FamilyOpcodeTest: the collapsible set is pinned,
/// and no other opcode has a family or is any family's variant.
TEST(FamilyOpcodes, OnlyCollapsibleOpcodesHaveFamilies) {
  EXPECT_EQ(familyOpcodes().size(), 66u);
  for (VType T : AllVTypes)
    EXPECT_FALSE(variantFor(OpFamily::None, T).has_value());
  for (int Raw = 0; Raw <= MaxOpcode; ++Raw) {
    Op O = static_cast<Op>(Raw);
    if (familyOf(O) != OpFamily::None)
      continue;
    for (unsigned F = 1; F < NumOpFamilies; ++F)
      for (VType T : AllVTypes)
        EXPECT_NE(variantFor(static_cast<OpFamily>(F), T), O)
            << opInfo(O).Mnemonic << " is a variant of family " << F;
  }
}

TEST(InstructionCodec, EveryFixedFormatOpcodeRoundTrips) {
  // Build a one-instruction code array for every opcode with a fixed
  // operand layout and check decode/encode identity.
  for (int Raw = 0; Raw <= MaxOpcode; ++Raw) {
    Op O = static_cast<Op>(Raw);
    ByteWriter W;
    switch (opInfo(O).Format) {
    case OpFormat::None:
      W.writeU1(static_cast<uint8_t>(O));
      break;
    case OpFormat::S1:
    case OpFormat::LocalU1:
    case OpFormat::CpU1:
    case OpFormat::NewArrayType:
      W.writeU1(static_cast<uint8_t>(O));
      W.writeU1(7);
      break;
    case OpFormat::S2:
    case OpFormat::CpU2:
      W.writeU1(static_cast<uint8_t>(O));
      W.writeU2(300);
      break;
    case OpFormat::Branch2:
      W.writeU1(static_cast<uint8_t>(O));
      W.writeU2(0); // branch to self
      break;
    case OpFormat::Branch4:
      W.writeU1(static_cast<uint8_t>(O));
      W.writeU4(0);
      break;
    case OpFormat::Iinc:
      W.writeU1(static_cast<uint8_t>(O));
      W.writeU1(3);
      W.writeU1(static_cast<uint8_t>(-2));
      break;
    case OpFormat::InvokeInterface:
      W.writeU1(static_cast<uint8_t>(O));
      W.writeU2(9);
      W.writeU1(2);
      W.writeU1(0);
      break;
    case OpFormat::InvokeDynamic:
      W.writeU1(static_cast<uint8_t>(O));
      W.writeU2(9);
      W.writeU1(0);
      W.writeU1(0);
      break;
    case OpFormat::MultiANewArray:
      W.writeU1(static_cast<uint8_t>(O));
      W.writeU2(9);
      W.writeU1(2);
      break;
    case OpFormat::TableSwitch:
    case OpFormat::LookupSwitch:
    case OpFormat::Wide:
      continue; // covered by dedicated tests above
    }
    std::vector<uint8_t> Code = W.take();
    auto Insns = decodeCode(Code);
    ASSERT_TRUE(static_cast<bool>(Insns)) << opInfo(O).Mnemonic;
    ASSERT_EQ(Insns->size(), 1u) << opInfo(O).Mnemonic;
    EXPECT_EQ(encodeCode(*Insns), Code) << opInfo(O).Mnemonic;
    EXPECT_EQ(encodedLength((*Insns)[0], 0), Code.size())
        << opInfo(O).Mnemonic;
  }
}

namespace {

/// Builds a switch instruction by hand: opcode, alignment pad (the
/// opcode sits at offset 0, so three pad bytes), then the given
/// big-endian s4 words, then \p Tail bytes of trailing code.
std::vector<uint8_t> switchCode(Op O, const std::vector<int32_t> &Words,
                                size_t Tail = 0) {
  ByteWriter W;
  W.writeU1(static_cast<uint8_t>(O));
  while (W.size() % 4 != 0)
    W.writeU1(0);
  for (int32_t V : Words)
    W.writeU4(static_cast<uint32_t>(V));
  for (size_t I = 0; I < Tail; ++I)
    W.writeU1(0); // nop
  return W.take();
}

/// Decode must fail with a decode-taxonomy error code.
void expectTypedFailure(const std::vector<uint8_t> &Code) {
  auto Insns = decodeCode(Code);
  ASSERT_FALSE(static_cast<bool>(Insns)) << "hostile code decoded";
  EXPECT_NE(Insns.code(), ErrorCode::Other) << Insns.message();
}

} // namespace

TEST(InstructionHardening, WideOnUndefinedOpcode) {
  // wide prefixing an opcode past jsr_w (201) is undefined.
  expectTypedFailure({196, 202, 0, 0});
}

TEST(InstructionHardening, WideOnNonLocalOpcode) {
  // wide may only modify local-variable instructions and iinc; nop is
  // neither.
  expectTypedFailure({196, 0, 0, 0});
}

TEST(InstructionHardening, TruncatedWideInstruction) {
  // wide iload cut before its 16-bit local index.
  expectTypedFailure({196, 21});
}

TEST(InstructionHardening, TableSwitchHighBelowLow) {
  // default=self, low=5, high=1: the count (high-low+1) would be
  // negative.
  expectTypedFailure(switchCode(Op::TableSwitch, {0, 5, 1}, 8));
}

TEST(InstructionHardening, TableSwitchHugeCount) {
  // low=0, high=INT32_MAX declares 2^31 targets in a few dozen bytes;
  // must be rejected before reserving anything.
  expectTypedFailure(switchCode(Op::TableSwitch, {0, 0, INT32_MAX}, 8));
}

TEST(InstructionHardening, TableSwitchTargetPastCodeEnd) {
  // A single entry whose target lands 100 bytes past the code array.
  expectTypedFailure(switchCode(Op::TableSwitch, {0, 0, 0, 100}, 4));
}

TEST(InstructionHardening, TableSwitchNegativeDefault) {
  expectTypedFailure(switchCode(Op::TableSwitch, {-1000, 0, 0, 0}, 4));
}

TEST(InstructionHardening, LookupSwitchNegativeCount) {
  expectTypedFailure(switchCode(Op::LookupSwitch, {0, -1}, 8));
}

TEST(InstructionHardening, LookupSwitchHugeCount) {
  // npairs larger than the whole code array cannot be satisfied.
  expectTypedFailure(switchCode(Op::LookupSwitch, {0, 1 << 30}, 8));
}

TEST(InstructionHardening, LookupSwitchTargetPastCodeEnd) {
  // One pair: match 7, target offset+200.
  expectTypedFailure(switchCode(Op::LookupSwitch, {0, 1, 7, 200}, 4));
}

TEST(InstructionHardening, BranchTargetPastCodeEnd) {
  // goto +100 in a four-byte method.
  expectTypedFailure({167, 0, 100, 177});
}

TEST(InstructionHardening, BranchTargetNegative) {
  // goto -16 from offset 0.
  expectTypedFailure({167, 0xFF, 0xF0, 177});
}
