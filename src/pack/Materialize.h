//===- Materialize.h - class records back to classfiles --------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a wire record (Transcode.h) plus the model it indexes into a
/// standard ClassFile in one pass. Every entry the record references
/// goes into a CanonicalPoolBuilder, which places ldc constants below
/// index 256 (§9) and fixes the canonical order (§12); the members,
/// attributes and code are then written once with the final indices, so
/// decompression is deterministic and nothing is re-parsed. This is the
/// one definition of the canonical form: the eager archive decoder
/// (Decoder.cpp), the lazy random-access reader (ArchiveReader.h) and
/// prepareForPacking (Packer.h), which materializes a freshly lowered
/// record, all produce classfiles here. Records no valid class lowers to
/// (a branch outside its code, a wide prefix on a non-local opcode, too
/// many ldc constants) are Corrupt, an oversized pool LimitExceeded.
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
