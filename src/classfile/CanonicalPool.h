//===- CanonicalPool.h - the canonical constant-pool order -----*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one home of the canonical constant-pool order (§2, §9, §12). A
/// CanonicalPoolBuilder collects entries by content, then sorts,
/// numbers, checks and emits them as a ConstantPool:
///
///  * group first: int/float/string loaded by a one-byte ldc (so every
///    ldc operand fits its byte, §9), other int/float/string,
///    long/double, Class, member refs, NameAndType, Utf8;
///  * within a group by tag, then by the content the entry denotes (a
///    Class by its name, a member ref by owner, name and descriptor), so
///    equal classes get equal pools whatever their original numbering
///    (§12);
///  * long/double take two slots. A pool past the 16-bit
///    constant_pool_count is LimitExceeded, an ldc operand past index
///    255 Corrupt.
///
/// Its one user is the materializer (pack/Materialize.h), which adds
/// every entry a class record references (equal entries merge), takes
/// the final indices, and writes the class once; unpacking and
/// prepareForPacking both build classes through it.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CLASSFILE_CANONICALPOOL_H
#define CJPACK_CLASSFILE_CANONICALPOOL_H

#include "classfile/ConstantPool.h"

namespace cjpack {

class CanonicalPoolBuilder {
public:
  /// A handle on one added entry. Handles count up from 1 in the order
  /// entries are added; Null stands for constant-pool index 0.
  using Ref = uint32_t;
  static constexpr Ref Null = 0;

  /// New Utf8 text is interned into \p Mem (a fresh arena if null),
  /// which the emitted pool then shares.
  explicit CanonicalPoolBuilder(std::shared_ptr<Arena> Mem);

  /// \name Deduplicating adds
  /// Each returns the handle of an equal entry already added, or adds
  /// the entry (and the entries it refers to). Text may be transient.
  /// @{
  Ref utf8(std::string_view Text);
  /// An Integer, Float, Long or Double with raw bits \p Bits.
  Ref constant(CpTag Tag, uint64_t Bits);
  Ref string(std::string_view Text);
  Ref classRef(std::string_view InternalName);
  Ref nameAndType(std::string_view Name, std::string_view Desc);
  Ref memberRef(CpTag Kind, std::string_view Owner, std::string_view Name,
                std::string_view Desc);
  /// @}

  /// Marks \p R as the operand of a one-byte ldc: a marked int, float
  /// or string sorts first, and every marked entry must land below
  /// index 256.
  void markLdc(Ref R) { Items[R].Ldc = true; }

  /// Sorts, numbers and checks every entry, then replaces \p Out with
  /// the canonical pool. It shares the builder's arena, and its dedup
  /// index is built by the first add* on it.
  Error finish(ConstantPool &Out);

  /// The final constant-pool index of \p R (after finish).
  uint16_t index(Ref R) const { return Items[R].Index; }

private:
  struct Item {
    CpEntry E;         ///< Ref1/Ref2 unused until emitted
    Ref R1 = Null;     ///< handles of the entries E refers to
    Ref R2 = Null;
    uint16_t Index = 0;
    uint8_t Group = 0;
    bool Ldc = false;
  };

  /// The index slot holding an entry equal to \p Probe, else the empty
  /// slot where it belongs (valid until the next add).
  Ref &slotFor(const Item &Probe);
  Ref add(Item Probe);
  void growIndex();
  size_t hashOf(const Item &I) const;
  static bool sameContent(const Item &A, const Item &B);
  /// The text of Utf8 entry \p R.
  std::string_view textOf(Ref R) const { return Items[R].E.Text; }
  int compareContent(const Item &A, const Item &B) const;
  bool less(Ref A, Ref B) const;

  std::shared_ptr<Arena> Mem;
  std::vector<Item> Items;
  /// Open-addressing dedup index over Items; Null marks an empty slot.
  std::vector<Ref> Slots;
  size_t Indexed = 0;
};

} // namespace cjpack

#endif // CJPACK_CLASSFILE_CANONICALPOOL_H
