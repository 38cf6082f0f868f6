//===- CodeCommon.h - shared bytecode wire definitions ---------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definitions shared by the pack encoder and decoder for the bytecode
/// streams (§7): the pseudo-opcode code points used for stack-state
/// collapsed families (§7.1) and for typed constant loads (the paper's
/// LDC_Integer-style pseudo-opcodes, footnote 1), plus the annotated
/// operand record both sides use to drive the stack-state machine.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_CODECOMMON_H
#define CJPACK_PACK_CODECOMMON_H

#include "bytecode/StackState.h"
#include "coder/RefCoder.h"
#include "pack/Model.h"
#include <cstdint>
#include <span>

namespace cjpack {

/// Pseudo-opcode space: JVM opcodes end at 201 (jsr_w); the wire opcode
/// stream reuses the free byte values above that.
/// Families Add(1)..TypedReturn(18) map to 201+N, i.e. 202..219.
inline constexpr uint8_t PseudoFamilyBase = 201; // + (unsigned)OpFamily
static_assert(NumOpFamilies == 19, "pseudo-opcode layout assumes 18 "
                                   "collapse families after None");

/// Typed constant-load pseudo-opcodes (just above the family block).
inline constexpr uint8_t PseudoLdcInt = 220;
inline constexpr uint8_t PseudoLdcFloat = 221;
inline constexpr uint8_t PseudoLdcString = 222;
inline constexpr uint8_t PseudoLdcWInt = 223;
inline constexpr uint8_t PseudoLdcWFloat = 224;
inline constexpr uint8_t PseudoLdcWString = 225;
inline constexpr uint8_t PseudoLdc2Long = 226;
inline constexpr uint8_t PseudoLdc2Double = 227;

inline bool isFamilyPseudo(uint8_t Code) {
  return Code > PseudoFamilyBase &&
         Code <= PseudoFamilyBase + static_cast<uint8_t>(NumOpFamilies) - 1;
}

inline OpFamily familyOfPseudo(uint8_t Code) {
  assert(isFamilyPseudo(Code));
  return static_cast<OpFamily>(Code - PseudoFamilyBase);
}

inline uint8_t pseudoOfFamily(OpFamily F) {
  return static_cast<uint8_t>(PseudoFamilyBase + static_cast<uint8_t>(F));
}

/// Extra bits OR'd into the 16-bit access flags on the wire (§4:
/// "Generic Attributes have been eliminated. Instead, additional flags
/// are set in the access flags").
/// Aux0: class = has superclass; field = has ConstantValue;
///       method = has Code.
/// Aux1: method = has Exceptions.
inline constexpr uint32_t PackedFlagAux0 = 1u << 16;
inline constexpr uint32_t PackedFlagAux1 = 1u << 17;
inline constexpr uint32_t PackedFlagSynthetic = 1u << 18;
inline constexpr uint32_t PackedFlagDeprecated = 1u << 19;

/// Kinds of constant operands carried by bytecode instructions, used to
/// route them to the right stream/pool.
enum class ConstKind : uint8_t {
  None,
  Int,
  Float,
  Long,
  Double,
  String,
  ClassTarget, ///< new/anewarray/checkcast/instanceof/multianewarray
  Field,
  Method,
};

/// The decoded/interned operand of one instruction.
struct CodeOperand {
  ConstKind Kind = ConstKind::None;
  int64_t IntValue = 0;  ///< Int constants
  uint64_t RawBits = 0;  ///< Float/Long/Double raw bits
  uint32_t Id = 0;       ///< model id for String/Class/Field/Method
};

/// Stack-machine type of a loaded constant of kind \p K.
inline VType constVType(ConstKind K) {
  switch (K) {
  case ConstKind::Int: return VType::Int;
  case ConstKind::Float: return VType::Float;
  case ConstKind::Long: return VType::Long;
  case ConstKind::Double: return VType::Double;
  case ConstKind::String: return VType::Ref;
  default: return VType::Unknown;
  }
}

/// Builds the InsnTypes record the stack machine needs for \p I, using
/// the model to resolve field types and method signatures. Its argument
/// types are a span over \p M: apply it before \p M grows.
InsnTypes insnTypesFor(const Model &M, const Insn &I,
                       const CodeOperand &Operand);

/// Width in locals slots of \p T (long/double take two).
inline unsigned vtypeWidth(VType T) {
  return (T == VType::Long || T == VType::Double) ? 2 : 1;
}

/// The invokeinterface count operand, reconstructed from the invoked
/// method's argument types (Model::methodArgVTypes).
unsigned invokeInterfaceCount(std::span<const VType> Args);

/// The RefCoder pool for a method invocation opcode.
PoolKind methodPoolFor(Op O);

/// The RefCoder pool for a field access opcode.
PoolKind fieldPoolFor(Op O);

/// §5.1.1: the Simple baseline keeps a single pool for all method
/// references and a single pool for all field references; every other
/// scheme splits pools per kind. Both sides of the wire apply this map.
PoolKind effectivePool(PoolKind K, RefScheme S);

} // namespace cjpack

#endif // CJPACK_PACK_CODECOMMON_H
