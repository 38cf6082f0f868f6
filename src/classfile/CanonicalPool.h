//===- CanonicalPool.h - the canonical constant-pool order -----*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one home of the canonical constant-pool order (§2, §9, §12). A
/// CanonicalPoolBuilder collects entries, then sorts, numbers, checks
/// and emits them as a ConstantPool:
///
///  * group first: int/float/string loaded by a one-byte ldc (so every
///    ldc operand fits its byte, §9), other int/float/string,
///    long/double, Class, member refs, NameAndType, Utf8, then every
///    other kind;
///  * within a group by tag, then by the content the entry denotes (a
///    Class by its name, a member ref by owner, name and descriptor), so
///    equal classes get equal pools whatever their original numbering
///    (§12). Entries of the last group compare their raw reference
///    fields; entries equal in content keep the order they were added;
///  * long/double take two slots. A pool past the 16-bit
///    constant_pool_count is LimitExceeded, an ldc operand past index
///    255 Corrupt.
///
/// Both directions build through it. canonicalizeConstantPool copies
/// the reachable part of an existing pool in (duplicates kept, in index
/// order). The unpacker's materializer adds every entry a class record
/// references by content (duplicates merged), takes the final indices,
/// and writes the class once.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CLASSFILE_CANONICALPOOL_H
#define CJPACK_CLASSFILE_CANONICALPOOL_H

#include "classfile/ConstantPool.h"
#include <span>

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

  /// Adds a copy of each entry of \p Old whose \p Keep flag is nonzero,
  /// in index order and duplicates included. A kept entry's references
  /// must name kept entries (or 0). Returns the handle of every old
  /// index, Null where not kept. Text views are copied as they are, so
  /// \p Old's text must live in this builder's arena or outlive the
  /// emitted pool.
  std::vector<Ref> copyFrom(const ConstantPool &Old,
                            std::span<const uint8_t> Keep);

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

  /// How many of \p Tag's Ref1/Ref2 fields hold constant-pool indices:
  /// 0, 1 (Ref1) or 2.
  static unsigned refFields(CpTag Tag);

private:
  struct Item {
    CpEntry E;         ///< Ref1/Ref2 raw for copied entries, else unused
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
  std::string_view textOf(Ref R) const;
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
