//===- Writer.cpp - JVM classfile serializer ------------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Writer.h"
#include "support/ByteBuffer.h"
#include <optional>

using namespace cjpack;

namespace {

/// Resolves attribute names to Utf8 indices for one write without
/// touching the class's pool. A name the pool holds resolves to its
/// first Utf8 entry, as addUtf8 would find it; a name it lacks (only
/// hand-built classes) is added to a copy of the pool, made on first
/// need, and that copy is what gets written.
class AttributeNames {
public:
  explicit AttributeNames(const ConstantPool &CP) : Pool(&CP) {}

  uint16_t index(std::string_view Name) {
    for (const auto &[Known, Index] : Resolved)
      if (Known == Name)
        return Index;
    uint16_t Index = find(Name);
    if (Index == 0) {
      if (!Copy)
        Pool = &Copy.emplace(*Pool);
      Index = Copy->addUtf8(Name);
    }
    Resolved.emplace_back(Name, Index);
    return Index;
  }

  const ConstantPool &pool() const { return *Pool; }

private:
  uint16_t find(std::string_view Name) const {
    for (uint16_t I = 1; I < Pool->count(); ++I) {
      const CpEntry &E = Pool->entry(I);
      if (E.Tag == CpTag::Utf8 && E.Text == Name)
        return I;
    }
    return 0;
  }

  const ConstantPool *Pool;
  std::optional<ConstantPool> Copy;
  std::vector<std::pair<std::string_view, uint16_t>> Resolved;
};

} // namespace

static void writeAttributes(ByteWriter &W, AttributeNames &Names,
                            const std::vector<AttributeInfo> &Attrs) {
  W.writeU2(static_cast<uint16_t>(Attrs.size()));
  for (const AttributeInfo &A : Attrs) {
    W.writeU2(Names.index(A.Name));
    W.writeU4(static_cast<uint32_t>(A.Bytes.size()));
    W.writeBytes(A.Bytes);
  }
}

static void writeMembers(ByteWriter &W, AttributeNames &Names,
                         const std::vector<MemberInfo> &Members) {
  W.writeU2(static_cast<uint16_t>(Members.size()));
  for (const MemberInfo &M : Members) {
    W.writeU2(M.AccessFlags);
    W.writeU2(M.NameIndex);
    W.writeU2(M.DescriptorIndex);
    writeAttributes(W, Names, M.Attributes);
  }
}

static void writeConstantPool(ByteWriter &W, const ConstantPool &CP) {
  W.writeU2(CP.count());
  for (uint16_t I = 1; I < CP.count(); ++I) {
    const CpEntry &E = CP.entry(I);
    if (E.Tag == CpTag::None)
      continue; // shadow slot of a Long/Double
    W.writeU1(static_cast<uint8_t>(E.Tag));
    switch (E.Tag) {
    case CpTag::Utf8:
      W.writeU2(static_cast<uint16_t>(E.Text.size()));
      W.writeString(E.Text);
      break;
    case CpTag::Integer:
    case CpTag::Float:
      W.writeU4(static_cast<uint32_t>(E.Bits));
      break;
    case CpTag::Long:
    case CpTag::Double:
      W.writeU8(E.Bits);
      break;
    case CpTag::Class:
    case CpTag::String:
    case CpTag::MethodType:
    case CpTag::Module:
    case CpTag::Package:
      W.writeU2(E.Ref1);
      break;
    case CpTag::FieldRef:
    case CpTag::MethodRef:
    case CpTag::InterfaceMethodRef:
    case CpTag::NameAndType:
    case CpTag::Dynamic:
    case CpTag::InvokeDynamic:
      W.writeU2(E.Ref1);
      W.writeU2(E.Ref2);
      break;
    case CpTag::MethodHandle:
      W.writeU1(E.RefKind);
      W.writeU2(E.Ref1);
      break;
    case CpTag::None:
      break;
    }
  }
}

std::vector<uint8_t> cjpack::writeClassFile(const ClassFile &CF) {
  // Serialize the body first: a missing attribute name grows the pool
  // that is emitted ahead of it.
  AttributeNames Names(CF.CP);
  ByteWriter Body;
  Body.writeU2(CF.AccessFlags);
  Body.writeU2(CF.ThisClass);
  Body.writeU2(CF.SuperClass);
  Body.writeU2(static_cast<uint16_t>(CF.Interfaces.size()));
  for (uint16_t I : CF.Interfaces)
    Body.writeU2(I);
  writeMembers(Body, Names, CF.Fields);
  writeMembers(Body, Names, CF.Methods);
  writeAttributes(Body, Names, CF.Attributes);

  ByteWriter W;
  W.writeU4(0xCAFEBABEu);
  W.writeU2(CF.MinorVersion);
  W.writeU2(CF.MajorVersion);
  writeConstantPool(W, Names.pool());
  W.writeBytes(Body.data());
  return W.take();
}
