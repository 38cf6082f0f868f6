//===- ClassFile.cpp - JVM classfile model helpers ------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/ClassFile.h"
#include "support/ByteBuffer.h"

using namespace cjpack;

const AttributeInfo *
cjpack::findAttribute(const std::vector<AttributeInfo> &Attrs,
                      std::string_view Name) {
  for (const AttributeInfo &A : Attrs)
    if (A.Name == Name)
      return &A;
  return nullptr;
}

Expected<CodeAttribute>
cjpack::parseCodeAttribute(const AttributeInfo &Attr,
                           const ConstantPool &CP) {
  assert(Attr.Name == "Code" && "not a Code attribute");
  ByteReader R(Attr.Bytes);
  CodeAttribute Out;
  Out.MaxStack = R.readU2();
  Out.MaxLocals = R.readU2();
  uint32_t CodeLen = R.readU4();
  if (CodeLen > R.remaining())
    return Error::failure(ErrorCode::Corrupt,
                          "Code attribute: code_length overruns attribute");
  Out.Code = R.readSpan(CodeLen);
  uint16_t ExcCount = R.readU2();
  Out.ExceptionTable.reserve(ExcCount);
  for (uint16_t I = 0; I < ExcCount; ++I) {
    ExceptionTableEntry E;
    E.StartPc = R.readU2();
    E.EndPc = R.readU2();
    E.HandlerPc = R.readU2();
    E.CatchType = R.readU2();
    Out.ExceptionTable.push_back(E);
  }
  uint16_t AttrCount = R.readU2();
  for (uint16_t I = 0; I < AttrCount; ++I) {
    uint16_t NameIdx = R.readU2();
    uint32_t Len = R.readU4();
    if (R.hasError() || !CP.isValidIndex(NameIdx) ||
        CP.entry(NameIdx).Tag != CpTag::Utf8)
      return Error::failure(ErrorCode::Corrupt,
                            "Code attribute: bad nested attribute header");
    AttributeInfo Nested;
    Nested.Name = CP.utf8(NameIdx);
    Nested.Bytes = R.readSpan(Len);
    Out.Attributes.push_back(Nested);
  }
  if (auto E = R.takeError("Code attribute"))
    return E;
  return Out;
}

AttributeInfo cjpack::encodeCodeAttribute(const CodeAttribute &Code,
                                          ConstantPool &CP) {
  ByteWriter W;
  W.writeU2(Code.MaxStack);
  W.writeU2(Code.MaxLocals);
  W.writeU4(static_cast<uint32_t>(Code.Code.size()));
  W.writeBytes(Code.Code);
  W.writeU2(static_cast<uint16_t>(Code.ExceptionTable.size()));
  for (const ExceptionTableEntry &E : Code.ExceptionTable) {
    W.writeU2(E.StartPc);
    W.writeU2(E.EndPc);
    W.writeU2(E.HandlerPc);
    W.writeU2(E.CatchType);
  }
  W.writeU2(static_cast<uint16_t>(Code.Attributes.size()));
  for (const AttributeInfo &A : Code.Attributes) {
    W.writeU2(CP.addUtf8(A.Name));
    W.writeU4(static_cast<uint32_t>(A.Bytes.size()));
    W.writeBytes(A.Bytes);
  }
  AttributeInfo Out;
  Out.Name = "Code";
  // The writer's buffer dies with this frame; park the encoded body in
  // the pool's arena so the returned view survives.
  Out.Bytes = CP.arena().copy(W.data());
  return Out;
}
