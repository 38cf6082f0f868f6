//===- fuzz_classfile.cpp - fuzz the classfile parser ---------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Parses arbitrary bytes as a classfile; on success, decodes every Code
// attribute's bytecode and round-trips the file through the writer to
// exercise the full parse/encode surface on near-valid inputs. Then
// packs the class (one class, one thread): packing may refuse it, but
// an archive it writes must restore exactly prepareForPacking of the
// class, and fail to restore exactly when prepareForPacking fails. A
// violation aborts.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Instruction.h"
#include "classfile/ClassFile.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "pack/Packer.h"
#include <cstdlib>

using namespace cjpack;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Bytes(Data, Data + Size);
  auto CF = parseClassFile(Bytes);
  if (!CF)
    return 0;
  for (const MemberInfo &M : CF->Methods)
    for (const AttributeInfo &A : M.Attributes)
      if (A.Name == "Code") {
        auto Code = parseCodeAttribute(A, CF->CP);
        if (Code)
          (void)decodeCode(Code->Code);
      }
  (void)writeClassFile(*CF);

  PackOptions Options;
  Options.Threads = 1;
  auto Packed = packClasses({*CF}, Options);
  if (!Packed)
    return 0;
  bool Prepared = !prepareForPacking(*CF);
  auto Restored = unpackClasses(Packed->Archive, 1);
  if (static_cast<bool>(Restored) != Prepared)
    abort();
  if (Restored && (Restored->size() != 1 ||
                   writeClassFile(Restored->front()) != writeClassFile(*CF)))
    abort();
  return 0;
}
