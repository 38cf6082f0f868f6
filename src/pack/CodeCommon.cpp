//===- CodeCommon.cpp - shared bytecode wire definitions ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/CodeCommon.h"

using namespace cjpack;

InsnTypes cjpack::insnTypesFor(const Model &M, const Insn &I,
                               const CodeOperand &Operand) {
  InsnTypes T;
  switch (I.Opcode) {
  case Op::Ldc:
  case Op::LdcW:
  case Op::Ldc2W:
    T.ConstType = constVType(Operand.Kind);
    break;
  case Op::GetField:
  case Op::PutField:
  case Op::GetStatic:
  case Op::PutStatic:
    assert(Operand.Kind == ConstKind::Field);
    T.FieldType = M.classRefVType(M.fieldRef(Operand.Id).Type);
    break;
  case Op::InvokeVirtual:
  case Op::InvokeSpecial:
  case Op::InvokeStatic:
  case Op::InvokeInterface:
    assert(Operand.Kind == ConstKind::Method);
    T.ArgTypes = M.methodArgVTypes(Operand.Id);
    T.RetType = M.methodRetVType(Operand.Id);
    break;
  default:
    break;
  }
  return T;
}

unsigned cjpack::invokeInterfaceCount(std::span<const VType> Args) {
  unsigned Count = 1; // the receiver
  for (VType T : Args)
    Count += vtypeWidth(T);
  return Count;
}

PoolKind cjpack::methodPoolFor(Op O) {
  switch (O) {
  case Op::InvokeVirtual:
    return PoolKind::MethodVirtual;
  case Op::InvokeSpecial:
    return PoolKind::MethodSpecial;
  case Op::InvokeStatic:
    return PoolKind::MethodStatic;
  case Op::InvokeInterface:
    return PoolKind::MethodInterface;
  default:
    assert(false && "not an invoke opcode");
    return PoolKind::MethodVirtual;
  }
}

PoolKind cjpack::effectivePool(PoolKind K, RefScheme S) {
  if (S != RefScheme::Simple)
    return K;
  switch (K) {
  case PoolKind::MethodVirtual:
  case PoolKind::MethodSpecial:
  case PoolKind::MethodStatic:
  case PoolKind::MethodInterface:
    return PoolKind::MethodVirtual;
  case PoolKind::FieldInstance:
  case PoolKind::FieldStatic:
    return PoolKind::FieldInstance;
  default:
    return K;
  }
}

PoolKind cjpack::fieldPoolFor(Op O) {
  switch (O) {
  case Op::GetField:
  case Op::PutField:
    return PoolKind::FieldInstance;
  case Op::GetStatic:
  case Op::PutStatic:
    return PoolKind::FieldStatic;
  default:
    assert(false && "not a field opcode");
    return PoolKind::FieldInstance;
  }
}
