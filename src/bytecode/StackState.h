//===- StackState.h - Approximate JVM stack state (§7.1) -------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's approximate stack-state computation: a linear pass over a
/// method's instructions tracking the number and types of operand-stack
/// values. No backwards branches are considered and the state is carried
/// over at most one forward branch at a time, so the computation is cheap
/// and — crucially — exactly reproducible by the decompressor, which runs
/// the identical algorithm over the reconstructed instruction stream.
///
/// The state is used (a) to collapse families of typed opcodes (all four
/// additions become one generic pseudo-op when the state predicts the
/// variant) and (b) as the context selector for method-reference MTF
/// queues (§5.1.6).
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_BYTECODE_STACKSTATE_H
#define CJPACK_BYTECODE_STACKSTATE_H

#include "bytecode/Instruction.h"
#include <optional>
#include <span>
#include <vector>

namespace cjpack {

/// Coarse JVM value types tracked on the approximate stack.
enum class VType : uint8_t { Int, Long, Float, Double, Ref, Void, Unknown };

/// Per-instruction type information the stack machine cannot derive from
/// the opcode alone; supplied by the caller (which can see the constant
/// pool or the packed model). It borrows the argument types: the storage
/// behind ArgTypes (the packed model's per-method types, or the caller's
/// own vector) must outlive every apply that reads the record.
struct InsnTypes {
  /// Type of the constant loaded by ldc / ldc_w / ldc2_w.
  VType ConstType = VType::Unknown;
  /// Argument types of an invoked method (receiver excluded).
  std::span<const VType> ArgTypes;
  /// Return type (VType::Void for void methods).
  VType RetType = VType::Void;
  /// Type of the field accessed by get/putfield, get/putstatic.
  VType FieldType = VType::Unknown;
};

/// Families of typed opcodes collapsible under a known stack state.
enum class OpFamily : uint8_t {
  None,
  Add, Sub, Mul, Div, Rem,   ///< i/l/f/d variants, keyed by top of stack
  Neg,                       ///< keyed by top
  Shl, Shr, UShr,            ///< i/l variants, keyed by second-from-top
  And, Or, Xor,              ///< i/l variants, keyed by top
  Store,                     ///< i/l/f/d/a store <local>, keyed by top
  Store0, Store1, Store2, Store3, ///< *store_N shorthands, keyed by top
  TypedReturn,               ///< i/l/f/d/a return, keyed by top
};

/// Number of OpFamily enumerators (for pseudo-opcode numbering).
inline constexpr unsigned NumOpFamilies =
    static_cast<unsigned>(OpFamily::TypedReturn) + 1;

/// Returns the collapse family of \p O, or OpFamily::None.
OpFamily familyOf(Op O);

/// Stack depth whose type selects the family variant (0 = top).
unsigned familyKeyDepth(OpFamily F);

/// Returns the member of \p F for key type \p T, if one exists.
std::optional<Op> variantFor(OpFamily F, VType T);

/// Applies \p I's operand-stack effect to \p Stack, one element per value
/// (category-2 values occupy a single element). Returns false when the
/// effect cannot be tracked — underflow, a type mismatch against the
/// declared effect, a stack shuffle that would split a category-2 value,
/// or an instruction that invalidates the state (athrow, jsr) — in which
/// case the caller must treat the state as unknown. \p Types may be null
/// when the opcode needs no extra information.
bool applyInsnStackEffect(const Insn &I, const InsnTypes *Types,
                          std::vector<VType> &Stack);

/// The approximate stack state machine.
class StackState {
public:
  /// Resets to the method-entry state (known, empty stack).
  void startMethod();

  /// Advances the state across \p I. Must be called in code order with the
  /// final (reconstructed) opcode. \p Types may be null when the opcode
  /// needs no extra information.
  void apply(const Insn &I, const InsnTypes *Types);

  /// True when the machine knows the stack contents at this point.
  bool isKnown() const { return Known; }

  /// Type at \p Depth from the top; Unknown when the state is unknown or
  /// the stack is shallower than Depth+1.
  VType top(unsigned Depth = 0) const;

  /// Context id derived from the top two stack values, for the §5.1.6
  /// context-split method-reference pools. Values in [0, NumContexts).
  unsigned contextId() const;

  /// One context per (type, type) pair over the 7 VType values, plus one
  /// catch-all for an unknown state.
  static constexpr unsigned NumContexts = 7 * 7 + 1;

private:
  void setUnknown();
  void noteBranch(const Insn &I);

  std::vector<VType> Stack;
  bool Known = false;
  /// At most one saved forward-branch state (offset, stack).
  std::optional<std::pair<uint32_t, std::vector<VType>>> Pending;
};

} // namespace cjpack

#endif // CJPACK_BYTECODE_STACKSTATE_H
