//===- Writer.h - JVM classfile serializer ---------------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a ClassFile model into standard .class bytes. Attribute
/// names are looked up in the constant pool without modifying it; a
/// name the pool lacks is interned into a copy of the pool before that
/// copy is emitted, so the model never needs to pre-intern them.
/// parse(write(cf)) is the identity on the model.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CLASSFILE_WRITER_H
#define CJPACK_CLASSFILE_WRITER_H

#include "classfile/ClassFile.h"
#include <cstdint>
#include <vector>

namespace cjpack {

/// Serializes \p CF to classfile bytes.
std::vector<uint8_t> writeClassFile(const ClassFile &CF);

} // namespace cjpack

#endif // CJPACK_CLASSFILE_WRITER_H
