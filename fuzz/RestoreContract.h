//===- RestoreContract.h - what a successful decode must return -*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Shared by the decode fuzz targets. However hostile the archive, every
// class a successful decode returns must be a valid classfile in
// canonical form: it re-parses from its written bytes under the
// target's limits, every Code attribute decodes, and prepareForPacking
// gives it back unchanged. The materializer writes each class once and
// never reads it back, so the targets check it. A violation aborts.
//
//===----------------------------------------------------------------------===//

#ifndef CJPACK_FUZZ_RESTORECONTRACT_H
#define CJPACK_FUZZ_RESTORECONTRACT_H

#include "bytecode/Instruction.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "pack/Packer.h"
#include <cstdlib>

inline void requireValidCanonical(const std::vector<cjpack::ClassFile> &Classes,
                                  const cjpack::DecodeLimits &Limits) {
  using namespace cjpack;
  for (const ClassFile &Restored : Classes) {
    std::vector<uint8_t> Bytes = writeClassFile(Restored);
    auto CF = parseClassFile(Bytes, Limits);
    if (!CF)
      abort();
    for (const MemberInfo &M : CF->Methods) {
      const AttributeInfo *A = findAttribute(M.Attributes, "Code");
      if (!A)
        continue;
      auto Code = parseCodeAttribute(*A, CF->CP);
      if (!Code || !decodeCode(Code->Code))
        abort();
    }
    if (prepareForPacking(*CF) || writeClassFile(*CF) != Bytes)
      abort();
  }
}

#endif // CJPACK_FUZZ_RESTORECONTRACT_H
