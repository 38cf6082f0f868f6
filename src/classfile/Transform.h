//===- Transform.h - Classfile preprocessing (§2, §9) ----------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's baseline preprocessing of classfiles (§2):
///
///  * strip LineNumberTable, LocalVariableTable, SourceFile, and any
///    attribute the packed format does not recognize (whose constant-pool
///    references could not be renumbered);
///  * garbage-collect the constant pool;
///  * sort entries by type, Utf8 entries by content;
///  * assign int/float/string constants the smallest indices so every
///    `ldc` operand fits in one byte (§9).
///
/// These transforms alone give the ~20% jar-size improvement the paper
/// reports before any new techniques are applied.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CLASSFILE_TRANSFORM_H
#define CJPACK_CLASSFILE_TRANSFORM_H

#include "classfile/ClassFile.h"
#include "support/Error.h"

namespace cjpack {

/// Attributes the packed format understands; everything else is dropped
/// by stripForPacking.
bool isRecognizedAttribute(std::string_view Name);

/// Removes debug attributes (LineNumberTable, LocalVariableTable,
/// SourceFile) and, when \p DropUnrecognized, every attribute outside
/// the recognized set — including all attributes nested in Code.
void stripDebugInfo(ClassFile &CF, bool DropUnrecognized = true);

/// Garbage-collects and canonically re-orders the constant pool,
/// renumbering every reference (including inside bytecode). The order
/// is CanonicalPoolBuilder's (CanonicalPool.h), the one the unpacker
/// builds restored classes in: the reachable entries are copied into
/// it, duplicates kept, plus a Utf8 entry for each attribute name the
/// pool lacks. Requires unrecognized attributes to have been stripped
/// first; fails otherwise, on malformed bytecode, on a dangling index
/// (Corrupt), on an ldc constant that cannot stay below index 256
/// (Corrupt) and on pool overflow (LimitExceeded).
Error canonicalizeConstantPool(ClassFile &CF);

/// stripDebugInfo + canonicalizeConstantPool.
Error prepareForPacking(ClassFile &CF);

} // namespace cjpack

#endif // CJPACK_CLASSFILE_TRANSFORM_H
