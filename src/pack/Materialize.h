//===- Materialize.h - class records back to classfiles --------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a decoded wire record (Transcode.h) plus the model it indexes
/// into a standard ClassFile in one pass. Every entry the record
/// references goes into a CanonicalPoolBuilder, which places ldc
/// constants below index 256 (§9) and fixes the canonical order (§12),
/// the same order canonicalizeConstantPool gives a packed class; the
/// members, attributes and code are then written once with the final
/// indices, so decompression is deterministic and nothing is re-parsed.
/// Records the wire cannot produce from a valid class (a branch outside
/// its code, a wide prefix on a non-local opcode, too many ldc
/// constants) are Corrupt, an oversized pool LimitExceeded. Shared by
/// the eager archive decoder (Decoder.cpp) and the lazy random-access
/// reader (ArchiveReader.h), so both produce identical classfiles.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_MATERIALIZE_H
#define CJPACK_PACK_MATERIALIZE_H

#include "classfile/ClassFile.h"
#include "support/Error.h"

namespace cjpack {

class Model;
struct ClassRec;

/// Materializes \p Rec (whose ids index \p M) into a classfile.
Expected<ClassFile> materializeClass(const Model &M, const ClassRec &Rec);

} // namespace cjpack

#endif // CJPACK_PACK_MATERIALIZE_H
