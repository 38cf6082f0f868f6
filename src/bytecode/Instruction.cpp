//===- Instruction.cpp - JVM instruction decoder/encoder ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Instruction.h"
#include <string>

using namespace cjpack;

namespace {

/// Cursor over a code array with signed reads and error tracking.
class CodeCursor {
public:
  explicit CodeCursor(std::span<const uint8_t> Code) : R(Code) {}

  uint8_t u1() { return R.readU1(); }
  int8_t s1() { return static_cast<int8_t>(R.readU1()); }
  uint16_t u2() { return R.readU2(); }
  int16_t s2() { return static_cast<int16_t>(R.readU2()); }
  int32_t s4() { return static_cast<int32_t>(R.readU4()); }

  size_t position() const { return R.position(); }
  bool atEnd() const { return R.atEnd(); }
  bool hasError() const { return R.hasError(); }

  bool alignTo4() {
    while (R.position() % 4 != 0) {
      R.readU1();
      if (R.hasError())
        return false;
    }
    return true;
  }

private:
  ByteReader R;
};

} // namespace

namespace {

/// Validates a branch/switch target computed in 64 bits: it must land
/// inside the code array (so downstream offset arithmetic can trust it,
/// and the int32 it is stored in cannot have overflowed).
Error checkTarget(int64_t Target, size_t CodeLen, uint32_t At) {
  if (Target < 0 || Target >= static_cast<int64_t>(CodeLen))
    return makeError(ErrorCode::Corrupt,
                     "decodeCode: branch target " + std::to_string(Target) +
                         " outside code at offset " + std::to_string(At));
  return Error::success();
}

} // namespace

Expected<std::vector<Insn>> cjpack::decodeCode(
    std::span<const uint8_t> Code) {
  std::vector<Insn> Out;
  CodeCursor C(Code);
  while (!C.atEnd()) {
    Insn I;
    I.Offset = static_cast<uint32_t>(C.position());
    uint8_t Raw = C.u1();
    if (!isValidOpcode(Raw))
      return makeError(ErrorCode::Corrupt,
                       "decodeCode: undefined opcode " + std::to_string(Raw) +
                           " at offset " + std::to_string(I.Offset));
    I.Opcode = static_cast<Op>(Raw);

    // Fold a wide prefix into the modified instruction.
    if (I.Opcode == Op::Wide) {
      I.IsWide = true;
      uint8_t Mod = C.u1();
      if (!isValidOpcode(Mod))
        return makeError(ErrorCode::Corrupt,
                         "decodeCode: bad wide-modified opcode at offset " +
                             std::to_string(I.Offset));
      I.Opcode = static_cast<Op>(Mod);
      if (I.Opcode == Op::IInc) {
        I.LocalIndex = C.u2();
        I.Const = C.s2();
      } else if (opInfo(I.Opcode).Format == OpFormat::LocalU1) {
        I.LocalIndex = C.u2();
      } else {
        return makeError(ErrorCode::Corrupt,
                         "decodeCode: wide prefix on non-local opcode at "
                         "offset " +
                             std::to_string(I.Offset));
      }
      I.Length = static_cast<uint32_t>(C.position()) - I.Offset;
      if (C.hasError())
        return makeError(ErrorCode::Truncated,
                         "decodeCode: truncated wide instruction at offset " +
                             std::to_string(I.Offset));
      Out.push_back(std::move(I));
      continue;
    }

    switch (opInfo(I.Opcode).Format) {
    case OpFormat::None:
      break;
    case OpFormat::S1:
      I.Const = C.s1();
      break;
    case OpFormat::S2:
      I.Const = C.s2();
      break;
    case OpFormat::LocalU1:
      I.LocalIndex = C.u1();
      break;
    case OpFormat::CpU1:
      I.CpIndex = C.u1();
      break;
    case OpFormat::CpU2:
      I.CpIndex = C.u2();
      break;
    case OpFormat::Branch2: {
      // Targets are computed in 64 bits and validated against the code
      // length: hostile deltas can neither overflow the int32 nor point
      // outside the method.
      int64_t T = static_cast<int64_t>(I.Offset) + C.s2();
      if (!C.hasError())
        if (auto E = checkTarget(T, Code.size(), I.Offset))
          return E;
      I.BranchTarget = static_cast<int32_t>(T);
      break;
    }
    case OpFormat::Branch4: {
      int64_t T = static_cast<int64_t>(I.Offset) + C.s4();
      if (!C.hasError())
        if (auto E = checkTarget(T, Code.size(), I.Offset))
          return E;
      I.BranchTarget = static_cast<int32_t>(T);
      break;
    }
    case OpFormat::Iinc:
      I.LocalIndex = C.u1();
      I.Const = C.s1();
      break;
    case OpFormat::NewArrayType:
      I.Const = C.u1();
      break;
    case OpFormat::InvokeInterface:
      I.CpIndex = C.u2();
      I.InvokeCount = C.u1();
      C.u1(); // mandated zero byte
      break;
    case OpFormat::InvokeDynamic:
      I.CpIndex = C.u2();
      C.u1();
      C.u1();
      break;
    case OpFormat::MultiANewArray:
      I.CpIndex = C.u2();
      I.Const = C.u1(); // dimensions
      break;
    case OpFormat::TableSwitch: {
      if (!C.alignTo4())
        return makeError(ErrorCode::Truncated,
                         "decodeCode: truncated tableswitch pad");
      int64_t Def = static_cast<int64_t>(I.Offset) + C.s4();
      I.SwitchLow = C.s4();
      I.SwitchHigh = C.s4();
      if (C.hasError() || I.SwitchHigh < I.SwitchLow)
        return makeError(ErrorCode::Corrupt,
                         "decodeCode: malformed tableswitch at offset " +
                             std::to_string(I.Offset));
      if (auto E = checkTarget(Def, Code.size(), I.Offset))
        return E;
      I.SwitchDefault = static_cast<int32_t>(Def);
      // Each entry costs four bytes, so a count past the remaining input
      // is rejected before the vector reserves anything.
      int64_t N = static_cast<int64_t>(I.SwitchHigh) - I.SwitchLow + 1;
      if (N > static_cast<int64_t>(Code.size()))
        return makeError(ErrorCode::Corrupt,
                         "decodeCode: oversized tableswitch at offset " +
                             std::to_string(I.Offset));
      I.SwitchTargets.reserve(static_cast<size_t>(N));
      for (int64_t K = 0; K < N; ++K) {
        int64_t T = static_cast<int64_t>(I.Offset) + C.s4();
        if (!C.hasError())
          if (auto E = checkTarget(T, Code.size(), I.Offset))
            return E;
        I.SwitchTargets.push_back(static_cast<int32_t>(T));
      }
      break;
    }
    case OpFormat::LookupSwitch: {
      if (!C.alignTo4())
        return makeError(ErrorCode::Truncated,
                         "decodeCode: truncated lookupswitch pad");
      int64_t Def = static_cast<int64_t>(I.Offset) + C.s4();
      int32_t N = C.s4();
      if (C.hasError() || N < 0 ||
          static_cast<size_t>(N) > Code.size())
        return makeError(ErrorCode::Corrupt,
                         "decodeCode: malformed lookupswitch at offset " +
                             std::to_string(I.Offset));
      if (auto E = checkTarget(Def, Code.size(), I.Offset))
        return E;
      I.SwitchDefault = static_cast<int32_t>(Def);
      I.SwitchMatches.reserve(static_cast<size_t>(N));
      I.SwitchTargets.reserve(static_cast<size_t>(N));
      for (int32_t K = 0; K < N; ++K) {
        I.SwitchMatches.push_back(C.s4());
        int64_t T = static_cast<int64_t>(I.Offset) + C.s4();
        if (!C.hasError())
          if (auto E = checkTarget(T, Code.size(), I.Offset))
            return E;
        I.SwitchTargets.push_back(static_cast<int32_t>(T));
      }
      break;
    }
    case OpFormat::Wide:
      return makeError(ErrorCode::Corrupt,
                       "decodeCode: unreachable wide format");
    }

    if (C.hasError())
      return makeError(ErrorCode::Truncated,
                       "decodeCode: truncated instruction at offset " +
                           std::to_string(I.Offset));
    I.Length = static_cast<uint32_t>(C.position()) - I.Offset;
    Out.push_back(std::move(I));
  }
  return Out;
}

uint32_t cjpack::encodedLength(const Insn &I, uint32_t Offset) {
  if (I.IsWide)
    return I.Opcode == Op::IInc ? 6u : 4u;
  switch (opInfo(I.Opcode).Format) {
  case OpFormat::None:
    return 1;
  case OpFormat::S1:
  case OpFormat::LocalU1:
  case OpFormat::CpU1:
  case OpFormat::NewArrayType:
    return 2;
  case OpFormat::S2:
  case OpFormat::CpU2:
  case OpFormat::Branch2:
  case OpFormat::Iinc:
    return 3;
  case OpFormat::MultiANewArray:
    return 4;
  case OpFormat::Branch4:
  case OpFormat::InvokeInterface:
  case OpFormat::InvokeDynamic:
    return 5;
  case OpFormat::TableSwitch: {
    uint32_t Pad = (4 - (Offset + 1) % 4) % 4;
    return 1 + Pad + 12 +
           4 * static_cast<uint32_t>(I.SwitchTargets.size());
  }
  case OpFormat::LookupSwitch: {
    uint32_t Pad = (4 - (Offset + 1) % 4) % 4;
    return 1 + Pad + 8 +
           8 * static_cast<uint32_t>(I.SwitchTargets.size());
  }
  case OpFormat::Wide:
    break;
  }
  assert(false && "unreachable opcode format");
  return 1;
}

namespace {

/// The one bytecode writer: appends \p Insns to \p W, with instruction
/// K's constant-pool operand \p CpIndexOf(K).
template <typename CpIndexFn>
void writeInsns(ByteWriter &W, std::span<const Insn> Insns,
                CpIndexFn CpIndexOf) {
  for (size_t K = 0; K < Insns.size(); ++K) {
    const Insn &I = Insns[K];
    uint32_t Offset = static_cast<uint32_t>(W.size());
    assert(Offset == I.Offset && "instruction offsets out of sync");
    if (I.IsWide) {
      W.writeU1(static_cast<uint8_t>(Op::Wide));
      W.writeU1(static_cast<uint8_t>(I.Opcode));
      W.writeU2(static_cast<uint16_t>(I.LocalIndex));
      if (I.Opcode == Op::IInc)
        W.writeU2(static_cast<uint16_t>(I.Const));
      continue;
    }
    W.writeU1(static_cast<uint8_t>(I.Opcode));
    switch (opInfo(I.Opcode).Format) {
    case OpFormat::None:
      break;
    case OpFormat::S1:
      W.writeU1(static_cast<uint8_t>(I.Const));
      break;
    case OpFormat::S2:
      W.writeU2(static_cast<uint16_t>(I.Const));
      break;
    case OpFormat::LocalU1:
      W.writeU1(static_cast<uint8_t>(I.LocalIndex));
      break;
    case OpFormat::CpU1:
      assert(CpIndexOf(K) <= 0xFF && "ldc index must fit one byte");
      W.writeU1(static_cast<uint8_t>(CpIndexOf(K)));
      break;
    case OpFormat::CpU2:
      W.writeU2(CpIndexOf(K));
      break;
    case OpFormat::Branch2:
      W.writeU2(static_cast<uint16_t>(I.BranchTarget -
                                      static_cast<int32_t>(Offset)));
      break;
    case OpFormat::Branch4:
      W.writeU4(static_cast<uint32_t>(I.BranchTarget -
                                      static_cast<int32_t>(Offset)));
      break;
    case OpFormat::Iinc:
      W.writeU1(static_cast<uint8_t>(I.LocalIndex));
      W.writeU1(static_cast<uint8_t>(I.Const));
      break;
    case OpFormat::NewArrayType:
      W.writeU1(static_cast<uint8_t>(I.Const));
      break;
    case OpFormat::InvokeInterface:
      W.writeU2(CpIndexOf(K));
      W.writeU1(I.InvokeCount);
      W.writeU1(0);
      break;
    case OpFormat::InvokeDynamic:
      W.writeU2(CpIndexOf(K));
      W.writeU1(0);
      W.writeU1(0);
      break;
    case OpFormat::MultiANewArray:
      W.writeU2(CpIndexOf(K));
      W.writeU1(static_cast<uint8_t>(I.Const));
      break;
    case OpFormat::TableSwitch: {
      while (W.size() % 4 != 0)
        W.writeU1(0);
      W.writeU4(static_cast<uint32_t>(I.SwitchDefault -
                                      static_cast<int32_t>(Offset)));
      W.writeU4(static_cast<uint32_t>(I.SwitchLow));
      W.writeU4(static_cast<uint32_t>(I.SwitchHigh));
      for (int32_t T : I.SwitchTargets)
        W.writeU4(static_cast<uint32_t>(T - static_cast<int32_t>(Offset)));
      break;
    }
    case OpFormat::LookupSwitch: {
      while (W.size() % 4 != 0)
        W.writeU1(0);
      W.writeU4(static_cast<uint32_t>(I.SwitchDefault -
                                      static_cast<int32_t>(Offset)));
      W.writeU4(static_cast<uint32_t>(I.SwitchMatches.size()));
      for (size_t K = 0; K < I.SwitchMatches.size(); ++K) {
        W.writeU4(static_cast<uint32_t>(I.SwitchMatches[K]));
        W.writeU4(static_cast<uint32_t>(I.SwitchTargets[K] -
                                        static_cast<int32_t>(Offset)));
      }
      break;
    }
    case OpFormat::Wide:
      assert(false && "wide handled above");
      break;
    }
  }
}

/// The target decodeCode reads back for a branch at \p At to \p Target
/// written as a \p Width-byte delta (a delta that does not fit wraps).
int64_t targetReadBack(uint32_t At, int32_t Target, unsigned Width) {
  int64_t Delta = static_cast<int64_t>(Target) - At;
  if (Width == 2)
    return At + static_cast<int64_t>(
                    static_cast<int16_t>(static_cast<uint16_t>(Delta)));
  return At + static_cast<int64_t>(
                  static_cast<int32_t>(static_cast<uint32_t>(Delta)));
}

Error encodeError(const char *What, uint32_t At) {
  return makeError(ErrorCode::Corrupt, std::string("encodeCode: ") + What +
                                           " at offset " +
                                           std::to_string(At));
}

} // namespace

std::vector<uint8_t> cjpack::encodeCode(const std::vector<Insn> &Insns) {
  ByteWriter W;
  writeInsns(W, Insns, [&](size_t K) { return Insns[K].CpIndex; });
  return W.take();
}

Expected<std::vector<uint8_t>>
cjpack::encodeCode(std::span<const Insn> Insns,
                   std::span<const uint16_t> CpIndex) {
  assert(CpIndex.size() == Insns.size() && "one cp index per instruction");
  // Offsets and shapes first; they fix the code length every target
  // must fall within.
  uint32_t Len = 0;
  for (size_t K = 0; K < Insns.size(); ++K) {
    const Insn &I = Insns[K];
    OpFormat F = opInfo(I.Opcode).Format;
    if (I.Offset != Len)
      return encodeError("instruction out of sync", Len);
    if (I.IsWide ? I.Opcode != Op::IInc && F != OpFormat::LocalU1
                 : F == OpFormat::Wide)
      return encodeError("wide prefix on non-local opcode", Len);
    if (F == OpFormat::TableSwitch &&
        (I.SwitchHigh < I.SwitchLow ||
         I.SwitchTargets.size() !=
             static_cast<uint64_t>(static_cast<int64_t>(I.SwitchHigh) -
                                   I.SwitchLow + 1)))
      return encodeError("malformed tableswitch", Len);
    if (F == OpFormat::LookupSwitch &&
        I.SwitchMatches.size() != I.SwitchTargets.size())
      return encodeError("malformed lookupswitch", Len);
    if (F == OpFormat::CpU1 && CpIndex[K] > 0xFF)
      return encodeError("ldc operand above 255", Len);
    Len += encodedLength(I, Len);
  }
  // Then every target, as decodeCode will read it back.
  auto Outside = [&](int64_t T) { return T < 0 || T >= Len; };
  for (const Insn &I : Insns) {
    switch (OpFormat F = opInfo(I.Opcode).Format) {
    case OpFormat::Branch2:
    case OpFormat::Branch4:
      if (Outside(targetReadBack(I.Offset, I.BranchTarget,
                                 F == OpFormat::Branch2 ? 2 : 4)))
        return encodeError("branch target outside code", I.Offset);
      break;
    case OpFormat::TableSwitch:
    case OpFormat::LookupSwitch:
      if (Outside(targetReadBack(I.Offset, I.SwitchDefault, 4)))
        return encodeError("switch target outside code", I.Offset);
      for (int32_t T : I.SwitchTargets)
        if (Outside(targetReadBack(I.Offset, T, 4)))
          return encodeError("switch target outside code", I.Offset);
      break;
    default:
      break;
    }
  }
  ByteWriter W;
  writeInsns(W, Insns, [&](size_t K) { return CpIndex[K]; });
  return W.take();
}
