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
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_MODEL_H
#define CJPACK_PACK_MODEL_H

#include "classfile/ClassFile.h"
#include "classfile/Descriptor.h"
#include "support/Error.h"
#include <cstdint>
#include <map>
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

  bool operator<(const MClassRef &O) const {
    return std::tie(Dims, Base, Package, Simple) <
           std::tie(O.Dims, O.Base, O.Package, O.Simple);
  }
};

/// A field reference: owner class, field name, field type.
struct MFieldRef {
  uint32_t Owner = 0;
  uint32_t Name = 0;
  uint32_t Type = 0;

  bool operator<(const MFieldRef &O) const {
    return std::tie(Owner, Name, Type) < std::tie(O.Owner, O.Name, O.Type);
  }
};

/// A method reference: owner class, method name, signature as class
/// references (return type first, then arguments).
struct MMethodRef {
  uint32_t Owner = 0;
  uint32_t Name = 0;
  std::vector<uint32_t> Sig;

  bool operator<(const MMethodRef &O) const {
    return std::tie(Owner, Name, Sig) < std::tie(O.Owner, O.Name, O.Sig);
  }
};

/// Interned pools for the restructured format.
class Model {
public:
  /// \name Interning (compressor side; idempotent)
  /// @{
  uint32_t internPackage(std::string_view Name);
  uint32_t internSimpleName(std::string_view Name);
  uint32_t internFieldName(std::string_view Name);
  uint32_t internMethodName(std::string_view Name);
  uint32_t internStringConst(std::string_view Value);
  uint32_t internClassRef(const MClassRef &Ref);
  uint32_t internFieldRef(const MFieldRef &Ref);
  uint32_t internMethodRef(const MMethodRef &Ref);

  /// Interns the class named by a Class constant-pool entry's name,
  /// which may be a plain internal name or an array descriptor.
  Expected<uint32_t> internClassByInternalName(std::string_view Name);

  /// Interns the class reference for a field/parameter type.
  Expected<uint32_t> internTypeDesc(const TypeDesc &T);

  /// Interns a method descriptor as [return, args...] class refs.
  Expected<std::vector<uint32_t>> internSignature(std::string_view Desc);
  /// @}

  /// \name Appending (decompressor side: ids assigned in decode order)
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

  /// Stack-machine types of \p Sig (arguments and return).
  void signatureVTypes(const std::vector<uint32_t> &Sig,
                       std::vector<VType> &Args, VType &Ret) const;

  /// Stack-machine type of the value of class ref \p Id.
  VType classRefVType(uint32_t Id) const;

private:
  /// Interns \p Dims dimensions over \p Base (class \p Name for 'L');
  /// Corrupt unless isWellFormedClassRef, so every class ref the encoder
  /// defines is one the decoder accepts.
  Expected<uint32_t> internClass(uint8_t Dims, char Base,
                                 std::string_view Name);

  std::vector<std::string> Packages, Simples, FieldNames, MethodNames,
      Strings;
  std::vector<MClassRef> ClassRefs;
  std::vector<MFieldRef> FieldRefs;
  std::vector<MMethodRef> MethodRefs;

  std::map<std::string, uint32_t, std::less<>> PackageIds, SimpleIds,
      FieldNameIds, MethodNameIds, StringIds;
  std::map<MClassRef, uint32_t> ClassRefIds;
  std::map<MFieldRef, uint32_t> FieldRefIds;
  std::map<MMethodRef, uint32_t> MethodRefIds;
};

/// Whether a class ref of \p Dims dimensions over \p Base (named
/// \p Package / \p Simple when Base is 'L') spells a classfile type: a
/// descriptor letter, no dimensions over void, and a class name that is
/// nonempty and holds no ';'. The decoder refuses any other definition,
/// and the encoder never interns one.
bool isWellFormedClassRef(uint8_t Dims, char Base, std::string_view Package,
                          std::string_view Simple);

/// Splits an internal class name into package and simple name ("" for
/// the default package).
void splitClassName(std::string_view Internal, std::string &Package,
                    std::string &Simple);

} // namespace cjpack

#endif // CJPACK_PACK_MODEL_H
