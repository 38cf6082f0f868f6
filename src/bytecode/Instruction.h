//===- Instruction.h - JVM instruction decoder/encoder ---------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decoded view of a JVM code array. decodeCode() turns raw bytecode into
/// a vector of Insn records (branch targets made absolute, wide prefixes
/// folded in); encodeCode() is its exact inverse: re-encoding a decoded
/// method reproduces the original bytes, provided constant-pool operands
/// still fit their original width.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_BYTECODE_INSTRUCTION_H
#define CJPACK_BYTECODE_INSTRUCTION_H

#include "bytecode/Opcodes.h"
#include "support/ByteBuffer.h"
#include "support/Error.h"
#include <cstdint>
#include <span>
#include <vector>

namespace cjpack {

/// One decoded JVM instruction.
struct Insn {
  uint32_t Offset = 0;       ///< bytecode offset of the opcode byte
  Op Opcode = Op::Nop;
  bool IsWide = false;       ///< folded `wide` prefix (load/store/ret/iinc)
  uint32_t LocalIndex = 0;   ///< local-variable operand
  int32_t Const = 0;         ///< bipush/sipush value, iinc delta, atype
  uint16_t CpIndex = 0;      ///< constant-pool operand
  int32_t BranchTarget = 0;  ///< absolute target offset for branches
  uint8_t InvokeCount = 0;   ///< invokeinterface nargs byte

  // Switch payload (tableswitch / lookupswitch), targets absolute.
  int32_t SwitchDefault = 0;
  int32_t SwitchLow = 0;
  int32_t SwitchHigh = 0;
  std::vector<int32_t> SwitchMatches; ///< lookupswitch keys
  std::vector<int32_t> SwitchTargets;

  /// Encoded length in bytes at its original position.
  uint32_t Length = 0;

  bool isBranch() const {
    OpFormat F = opInfo(Opcode).Format;
    return F == OpFormat::Branch2 || F == OpFormat::Branch4;
  }
  bool isSwitch() const {
    return Opcode == Op::TableSwitch || Opcode == Op::LookupSwitch;
  }
  bool hasCpOperand() const { return cpRefKind(Opcode) != CpRefKind::None; }
};

/// Decodes a full code array into instructions. Fails on truncated or
/// undefined opcodes.
Expected<std::vector<Insn>> decodeCode(std::span<const uint8_t> Code);

/// Re-encodes instructions; instruction offsets must match what encoding
/// produces (they do for a vector straight out of decodeCode, and for
/// vectors built by the pack decoder which assigns offsets itself).
std::vector<uint8_t> encodeCode(const std::vector<Insn> &Insns);

/// Encodes \p Insns as encodeCode does, except that instruction K's
/// constant-pool operand is \p CpIndex[K] rather than Insns[K].CpIndex
/// (the unpacker's final indices, so its instructions are never
/// copied). Fails with Corrupt, writing nothing, where decodeCode would
/// not read the output back: an instruction off its encoded offset, a
/// branch or switch target outside the code, a wide prefix on an
/// opcode without a local operand, a switch whose target count does
/// not match its bounds or keys, or an ldc operand above 255.
Expected<std::vector<uint8_t>> encodeCode(std::span<const Insn> Insns,
                                          std::span<const uint16_t> CpIndex);

/// Computes the encoded length of \p I if it begins at \p Offset (switch
/// padding depends on the offset).
uint32_t encodedLength(const Insn &I, uint32_t Offset);

} // namespace cjpack

#endif // CJPACK_BYTECODE_INSTRUCTION_H
