//===- ConstantPool.h - JVM classfile constant pool ------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classfile constant pool: entries for every JVM constant kind, with
/// deduplicating builders and lookup helpers. Long and Double entries
/// occupy two slots, the second slot holding a None placeholder, exactly
/// as the classfile format numbers them.
///
/// Utf8 text is stored as std::string_view. In borrowed mode (parsing
/// over an mmapped jar or archive slice) views point into the caller's
/// buffer and the pool allocates nothing; in owning mode new text is
/// interned into the pool's Arena, which is shared — via shared_ptr —
/// with every copy of the pool and with the ClassFile that embeds it,
/// so views stay valid as long as any owner is alive.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CLASSFILE_CONSTANTPOOL_H
#define CJPACK_CLASSFILE_CONSTANTPOOL_H

#include "support/Arena.h"
#include "support/Error.h"
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cjpack {

/// Constant-pool entry tags, numbered as in the classfile format.
enum class CpTag : uint8_t {
  None = 0, ///< unusable slot (index 0, or the shadow of a Long/Double)
  Utf8 = 1,
  Integer = 3,
  Float = 4,
  Long = 5,
  Double = 6,
  Class = 7,
  String = 8,
  FieldRef = 9,
  MethodRef = 10,
  InterfaceMethodRef = 11,
  NameAndType = 12,
  MethodHandle = 15,
  MethodType = 16,
  Dynamic = 17,
  InvokeDynamic = 18,
  Module = 19,
  Package = 20,
};

/// Human-readable tag name (for diagnostics).
const char *cpTagName(CpTag Tag);

/// One constant-pool entry. Which fields are meaningful depends on Tag:
///  * Utf8: Text (a view into the input mapping or the pool's arena)
///  * Integer/Float/Long/Double: Bits (raw IEEE/two's-complement bits)
///  * Class/String/MethodType/Module/Package: Ref1 (a Utf8 index)
///  * FieldRef/MethodRef/InterfaceMethodRef: Ref1 = Class, Ref2 = N&T
///  * NameAndType: Ref1 = name Utf8, Ref2 = descriptor Utf8
///  * MethodHandle: RefKind + Ref1 (a member ref)
///  * Dynamic/InvokeDynamic: Ref1 = bootstrap index, Ref2 = N&T
struct CpEntry {
  CpTag Tag = CpTag::None;
  uint16_t Ref1 = 0;
  uint16_t Ref2 = 0;
  uint64_t Bits = 0;
  uint8_t RefKind = 0;
  std::string_view Text;

  bool isWide() const { return Tag == CpTag::Long || Tag == CpTag::Double; }
};

/// A classfile constant pool. Index 0 is reserved and unusable.
class ConstantPool {
public:
  ConstantPool() { Entries.emplace_back(); }

  /// Constructs a pool sharing \p Mem, whose text its entries view (the
  /// canonical pool builder emits pools this way).
  explicit ConstantPool(std::shared_ptr<Arena> Mem) : Mem(std::move(Mem)) {
    Entries.emplace_back();
  }

  /// The classfile constant_pool_count (number of slots including slot 0).
  uint16_t count() const { return static_cast<uint16_t>(Entries.size()); }

  /// True if \p Index names a usable entry.
  bool isValidIndex(uint16_t Index) const {
    return Index >= 1 && Index < count() &&
           Entries[Index].Tag != CpTag::None;
  }

  const CpEntry &entry(uint16_t Index) const {
    assert(Index >= 1 && Index < count() && "constant pool index range");
    return Entries[Index];
  }

  CpEntry &entry(uint16_t Index) {
    assert(Index >= 1 && Index < count() && "constant pool index range");
    return Entries[Index];
  }

  /// Appends \p E without deduplication (parser path). Long/Double consume
  /// the following slot too. Returns the entry's index. The caller
  /// guarantees E.Text outlives the pool (input mapping or this pool's
  /// arena).
  uint16_t appendRaw(CpEntry E);

  /// \name Deduplicating builders
  /// Each returns the index of an existing equal entry or appends one.
  /// Newly inserted text is interned into the pool's arena, so the
  /// argument view may be transient.
  /// @{
  uint16_t addUtf8(std::string_view Text);
  uint16_t addInteger(int32_t Value);
  uint16_t addFloat(uint32_t RawBits);
  uint16_t addLong(int64_t Value);
  uint16_t addDouble(uint64_t RawBits);
  uint16_t addClass(std::string_view InternalName);
  uint16_t addString(std::string_view Value);
  uint16_t addNameAndType(std::string_view Name, std::string_view Desc);
  uint16_t addRef(CpTag Kind, std::string_view ClassName,
                  std::string_view Name, std::string_view Desc);
  /// @}

  /// Text of the Utf8 entry at \p Index (asserts tag).
  std::string_view utf8(uint16_t Index) const;

  /// Internal name (e.g. "java/lang/String") of the Class entry at
  /// \p Index.
  std::string_view className(uint16_t Index) const;

  /// \name Checked lookups
  /// For indices nothing has vetted (the parser checks only this_class
  /// and attribute names): the wrong kind, or no entry, is Corrupt.
  /// @{
  /// The entry at \p Index if it is tagged \p Tag, else null.
  const CpEntry *find(uint16_t Index, CpTag Tag) const {
    return isValidIndex(Index) && Entries[Index].Tag == Tag
               ? &Entries[Index]
               : nullptr;
  }
  /// The text of the Utf8 entry at \p Index.
  Expected<std::string_view> checkedUtf8(uint16_t Index) const;
  /// The name of the Class entry at \p Index, itself a Utf8 entry.
  Expected<std::string_view> checkedClassName(uint16_t Index) const;
  /// @}

  /// Marks the dedup index stale after entries were appended raw or
  /// replaced wholesale; the next add rebuilds it, so a pool that is
  /// only read (a parsed class being packed, a restored one being
  /// written) never builds one.
  void invalidateIndex() { IndexPending = true; }

  /// The arena owning this pool's interned text (created lazily).
  /// Shared by every copy of the pool; appending is safe because
  /// existing views never move.
  Arena &arena() {
    if (!Mem)
      Mem = std::make_shared<Arena>();
    return *Mem;
  }

private:
  /// Sizes the pools it emits up front.
  friend class CanonicalPoolBuilder;

  void buildIndex();
  uint16_t addKeyed(CpEntry E);
  std::string keyOf(const CpEntry &E) const;

  std::vector<CpEntry> Entries;
  std::unordered_map<std::string, uint16_t> Dedup;
  /// Dedup does not cover Entries yet; the next add rebuilds it.
  bool IndexPending = false;
  std::shared_ptr<Arena> Mem;
};

} // namespace cjpack

#endif // CJPACK_CLASSFILE_CONSTANTPOOL_H
