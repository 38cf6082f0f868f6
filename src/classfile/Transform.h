//===- Transform.h - forwards to pack/Packer.h -----------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// prepareForPacking now lives in pack/Packer.h, beside the restore
/// contract that defines it; this header remains for code that still
/// includes it.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CLASSFILE_TRANSFORM_H
#define CJPACK_CLASSFILE_TRANSFORM_H

#include "pack/Packer.h"

#endif // CJPACK_CLASSFILE_TRANSFORM_H
