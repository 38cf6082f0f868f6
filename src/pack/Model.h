//===- Model.h - the restructured classfile model (Fig. 1) -----*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's restructured in-memory format (§4, Figure 1). Classnames
/// become (package name, simple class name) pairs; method and field
/// types become arrays of class references; primitive and array types
/// are special class references. Objects live in interned pools with
/// dense ids — the unit the reference coders (§5) operate on.
///
/// The same Model type serves the compressor (interning while
/// traversing classfiles) and the decompressor (pools filled in decode
/// order); ids correspond across the two sides because both perform the
/// identical traversal.
///
/// Each pool is a vector of values in id order plus a keyed IdIndex
/// (support/IdIndex.h) over it, so a value is stored once. Interning
/// hashes the probe in place: a class name is split into views of its
/// package and simple name, and a method reference's key is compared
/// against the stored signature, so a lookup that finds its value
/// builds no string or vector. Every pool's index has its own hash key;
/// ids follow first-intern order alone, so no id depends on a key.
///
/// A method reference's stack-machine types (return and arguments) are
/// computed once, when it enters the pool; the per-instruction stack
/// queries of the counting, emitting and decoding passes read them as
/// spans.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_MODEL_H
#define CJPACK_PACK_MODEL_H

#include "classfile/ClassFile.h"
#include "classfile/Descriptor.h"
#include "support/Error.h"
#include "support/IdIndex.h"
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cjpack {

/// The object pools of the packed format; doubles as the RefCoder pool
/// id space. Method pools are per invocation kind (§5.1).
enum class PoolKind : uint8_t {
  Package,
  SimpleName,
  ClassRefPool,
  FieldName,
  MethodName,
  FieldInstance,
  FieldStatic,
  MethodVirtual,
  MethodSpecial,
  MethodStatic,
  MethodInterface,
  StringConst,
};

inline uint32_t poolId(PoolKind K) { return static_cast<uint32_t>(K); }

inline constexpr unsigned NumPoolKinds =
    static_cast<unsigned>(PoolKind::StringConst) + 1;

/// Printable pool name for telemetry reporting; exhaustive over
/// PoolKind (-Wswitch keeps it in sync with the enum).
constexpr const char *poolName(PoolKind K) {
  switch (K) {
  case PoolKind::Package: return "Package";
  case PoolKind::SimpleName: return "SimpleName";
  case PoolKind::ClassRefPool: return "ClassRef";
  case PoolKind::FieldName: return "FieldName";
  case PoolKind::MethodName: return "MethodName";
  case PoolKind::FieldInstance: return "FieldInstance";
  case PoolKind::FieldStatic: return "FieldStatic";
  case PoolKind::MethodVirtual: return "MethodVirtual";
  case PoolKind::MethodSpecial: return "MethodSpecial";
  case PoolKind::MethodStatic: return "MethodStatic";
  case PoolKind::MethodInterface: return "MethodInterface";
  case PoolKind::StringConst: return "StringConst";
  }
  return "?"; // unreachable for in-range kinds
}

/// A class reference: \p Dims array dimensions over either a primitive
/// base or a (package, simple-name) class.
struct MClassRef {
  uint8_t Dims = 0;
  char Base = 'L'; ///< 'L' or a primitive descriptor letter
  uint32_t Package = 0;
  uint32_t Simple = 0;

  bool operator==(const MClassRef &) const = default;
};

/// A field reference: owner class, field name, field type.
struct MFieldRef {
  uint32_t Owner = 0;
  uint32_t Name = 0;
  uint32_t Type = 0;

  bool operator==(const MFieldRef &) const = default;
};

/// A method reference: owner class, method name, signature as class
/// references (return type first, then arguments).
struct MMethodRef {
  uint32_t Owner = 0;
  uint32_t Name = 0;
  std::vector<uint32_t> Sig;

  bool operator==(const MMethodRef &) const = default;
};

/// Interned pools for the restructured format.
class Model {
public:
  /// \name Interning (compressor side; idempotent)
  /// Each returns the id of an equal value already in the pool, else
  /// adds the value under the next id. Text may be transient.
  /// @{
  uint32_t internPackage(std::string_view Name);
  uint32_t internSimpleName(std::string_view Name);
  uint32_t internFieldName(std::string_view Name);
  uint32_t internMethodName(std::string_view Name);
  uint32_t internStringConst(std::string_view Value);
  uint32_t internClassRef(const MClassRef &Ref);
  uint32_t internFieldRef(const MFieldRef &Ref);
  uint32_t internMethodRef(MMethodRef Ref);

  /// Interns the class named by a Class constant-pool entry's name,
  /// which may be a plain internal name or an array descriptor.
  Expected<uint32_t> internClassByInternalName(std::string_view Name);

  /// Interns the class reference for a field/parameter type.
  Expected<uint32_t> internTypeDesc(const TypeDesc &T);

  /// Interns a method descriptor as [return, args...] class refs.
  Expected<std::vector<uint32_t>> internSignature(std::string_view Desc);
  /// @}

  /// \name Appending (decompressor side: ids assigned in decode order)
  /// Like interning, a value already in the pool keeps its id (a hostile
  /// archive may define a value twice); a new value is moved in.
  /// @{
  uint32_t appendPackage(std::string Name);
  uint32_t appendSimpleName(std::string Name);
  uint32_t appendFieldName(std::string Name);
  uint32_t appendMethodName(std::string Name);
  uint32_t appendStringConst(std::string Value);
  uint32_t appendClassRef(const MClassRef &Ref);
  uint32_t appendFieldRef(MFieldRef Ref);
  uint32_t appendMethodRef(MMethodRef Ref);
  /// @}

  /// \name Lookup
  /// @{
  const std::string &package(uint32_t Id) const { return Packages[Id]; }
  const std::string &simpleName(uint32_t Id) const { return Simples[Id]; }
  const std::string &fieldName(uint32_t Id) const { return FieldNames[Id]; }
  const std::string &methodName(uint32_t Id) const {
    return MethodNames[Id];
  }
  const std::string &stringConst(uint32_t Id) const { return Strings[Id]; }
  const MClassRef &classRef(uint32_t Id) const { return ClassRefs[Id]; }
  const MFieldRef &fieldRef(uint32_t Id) const { return FieldRefs[Id]; }
  const MMethodRef &methodRef(uint32_t Id) const { return MethodRefs[Id]; }
  /// @}

  /// \name Pool sizes (ids are dense, so these bound the id spaces)
  /// @{
  size_t packageCount() const { return Packages.size(); }
  size_t simpleNameCount() const { return Simples.size(); }
  size_t fieldNameCount() const { return FieldNames.size(); }
  size_t methodNameCount() const { return MethodNames.size(); }
  size_t stringConstCount() const { return Strings.size(); }
  size_t classRefCount() const { return ClassRefs.size(); }
  size_t fieldRefCount() const { return FieldRefs.size(); }
  size_t methodRefCount() const { return MethodRefs.size(); }
  /// @}

  /// Internal name of \p Id as a Class constant-pool entry would spell
  /// it ("java/util/Map", or "[I" / "[Lfoo/Bar;" for arrays).
  std::string classRefInternalName(uint32_t Id) const;

  /// \p Id as a field-descriptor TypeDesc.
  TypeDesc classRefTypeDesc(uint32_t Id) const;

  /// Descriptor string of the signature [ret, args...] in \p Sig.
  std::string signatureDescriptor(const std::vector<uint32_t> &Sig) const;

  /// Stack-machine type of the value of class ref \p Id (from its
  /// dimensions and base alone).
  VType classRefVType(uint32_t Id) const {
    const MClassRef &Ref = ClassRefs[Id];
    return vtypeOf(Ref.Dims, Ref.Base);
  }

  /// Stack-machine types of method ref \p Id's arguments, receiver
  /// excluded: a span over the model, valid until the next intern or
  /// append.
  std::span<const VType> methodArgVTypes(uint32_t Id) const {
    const MethodTypes &T = MethodRefTypes[Id];
    return {ArgVTypes.data() + T.ArgStart, T.ArgCount};
  }

  /// Stack-machine type method ref \p Id returns (Void for void).
  VType methodRetVType(uint32_t Id) const { return MethodRefTypes[Id].Ret; }

private:
  /// Strings with dense ids, in first-intern order.
  class StringPool {
  public:
    uint32_t intern(std::string_view S);
    uint32_t append(std::string &&S);
    const std::string &operator[](uint32_t Id) const { return Values[Id]; }
    size_t size() const { return Values.size(); }

  private:
    std::vector<std::string> Values;
    IdIndex Index;
  };

  /// Where method ref Id's argument types sit in ArgVTypes, and the
  /// type it returns.
  struct MethodTypes {
    uint32_t ArgStart = 0;
    uint32_t ArgCount = 0;
    VType Ret = VType::Void;
  };

  /// Records the stack-machine types of \p Ref, the method ref just
  /// added.
  void noteMethodTypes(const MMethodRef &Ref);

  /// Interns \p Dims dimensions over \p Base (class \p Name for 'L');
  /// Corrupt unless isWellFormedClassRef, so every class ref the encoder
  /// defines is one the decoder accepts.
  Expected<uint32_t> internClass(uint8_t Dims, char Base,
                                 std::string_view Name);

  StringPool Packages, Simples, FieldNames, MethodNames, Strings;
  std::vector<MClassRef> ClassRefs;
  std::vector<MFieldRef> FieldRefs;
  std::vector<MMethodRef> MethodRefs;
  IdIndex ClassRefIndex, FieldRefIndex, MethodRefIndex;
  std::vector<MethodTypes> MethodRefTypes;
  std::vector<VType> ArgVTypes;
};

/// Whether a class ref of \p Dims dimensions over \p Base (named
/// \p Package / \p Simple when Base is 'L') spells a classfile type: a
/// descriptor letter, no dimensions over void, and a class name that is
/// nonempty and holds no ';'. The decoder refuses any other definition,
/// and the encoder never interns one.
bool isWellFormedClassRef(uint8_t Dims, char Base, std::string_view Package,
                          std::string_view Simple);

/// Splits an internal class name into views of its package and simple
/// name (an empty package for the default package).
void splitClassName(std::string_view Internal, std::string_view &Package,
                    std::string_view &Simple);

} // namespace cjpack

#endif // CJPACK_PACK_MODEL_H
