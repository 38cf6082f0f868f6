//===- Descriptor.h - JVM type descriptor parsing --------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Field and method descriptor parsing ("(IJLjava/lang/String;)V") and
/// printing. The packed format factors descriptors into arrays of class
/// references (§4); TypeDesc is the unit of that factoring: a base type
/// (primitive or class) plus an array dimension count.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CLASSFILE_DESCRIPTOR_H
#define CJPACK_CLASSFILE_DESCRIPTOR_H

#include "bytecode/StackState.h"
#include "support/Error.h"
#include <string>
#include <string_view>
#include <vector>

namespace cjpack {

/// One type in a descriptor: \p Dims array dimensions over a base that is
/// either a primitive ('B','C','D','F','I','J','S','Z','V') or a class
/// ('L', with ClassName holding the internal name).
struct TypeDesc {
  uint8_t Dims = 0;
  char Base = 'V';
  std::string ClassName;

  bool isClass() const { return Base == 'L'; }
  bool isVoid() const { return Base == 'V' && Dims == 0; }

  bool operator==(const TypeDesc &O) const {
    return Dims == O.Dims && Base == O.Base && ClassName == O.ClassName;
  }
};

/// A parsed method descriptor.
struct MethodDesc {
  std::vector<TypeDesc> Params;
  TypeDesc Ret;
};

/// Parses a field descriptor such as "[[Ljava/lang/String;".
Expected<TypeDesc> parseFieldDescriptor(std::string_view Desc);

/// Parses a method descriptor such as "(I[J)Ljava/lang/Object;".
Expected<MethodDesc> parseMethodDescriptor(std::string_view Desc);

/// Prints \p T back into descriptor syntax.
std::string printTypeDesc(const TypeDesc &T);

/// Prints \p M back into descriptor syntax.
std::string printMethodDesc(const MethodDesc &M);

/// Stack-machine type of a value of \p Dims array dimensions over base
/// \p Base (arrays and classes are Ref; B/C/S/Z/I are Int; V maps to
/// Void).
VType vtypeOf(uint8_t Dims, char Base);

/// Stack-machine type of a value of type \p T.
inline VType vtypeOf(const TypeDesc &T) { return vtypeOf(T.Dims, T.Base); }

/// Stack-machine type for a field descriptor string; Unknown on parse
/// failure.
VType vtypeOfFieldDescriptor(std::string_view Desc);

/// Argument/return stack-machine types for a method descriptor string.
/// Returns false on parse failure.
bool vtypesOfMethodDescriptor(std::string_view Desc,
                              std::vector<VType> &Args, VType &Ret);

} // namespace cjpack

#endif // CJPACK_CLASSFILE_DESCRIPTOR_H
