//===- ConstantPool.cpp - JVM classfile constant pool ---------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/ConstantPool.h"

using namespace cjpack;

const char *cjpack::cpTagName(CpTag Tag) {
  switch (Tag) {
  case CpTag::None: return "None";
  case CpTag::Utf8: return "Utf8";
  case CpTag::Integer: return "Integer";
  case CpTag::Float: return "Float";
  case CpTag::Long: return "Long";
  case CpTag::Double: return "Double";
  case CpTag::Class: return "Class";
  case CpTag::String: return "String";
  case CpTag::FieldRef: return "FieldRef";
  case CpTag::MethodRef: return "MethodRef";
  case CpTag::InterfaceMethodRef: return "InterfaceMethodRef";
  case CpTag::NameAndType: return "NameAndType";
  case CpTag::MethodHandle: return "MethodHandle";
  case CpTag::MethodType: return "MethodType";
  case CpTag::Dynamic: return "Dynamic";
  case CpTag::InvokeDynamic: return "InvokeDynamic";
  case CpTag::Module: return "Module";
  case CpTag::Package: return "Package";
  }
  return "Invalid";
}

uint16_t ConstantPool::appendRaw(CpEntry E) {
  uint16_t Index = count();
  bool Wide = E.isWide();
  Entries.push_back(std::move(E));
  if (Wide)
    Entries.emplace_back(); // shadow slot
  return Index;
}

std::string ConstantPool::keyOf(const CpEntry &E) const {
  // A compact textual key: tag byte, then the discriminating payload.
  std::string Key;
  Key.push_back(static_cast<char>(E.Tag));
  switch (E.Tag) {
  case CpTag::Utf8:
    Key += E.Text;
    break;
  case CpTag::Integer:
  case CpTag::Float:
  case CpTag::Long:
  case CpTag::Double:
    Key.append(reinterpret_cast<const char *>(&E.Bits), sizeof(E.Bits));
    break;
  case CpTag::MethodHandle:
    Key.push_back(static_cast<char>(E.RefKind));
    Key.append(reinterpret_cast<const char *>(&E.Ref1), sizeof(E.Ref1));
    break;
  default:
    Key.append(reinterpret_cast<const char *>(&E.Ref1), sizeof(E.Ref1));
    Key.append(reinterpret_cast<const char *>(&E.Ref2), sizeof(E.Ref2));
    break;
  }
  return Key;
}

uint16_t ConstantPool::addKeyed(CpEntry E) {
  if (IndexPending)
    buildIndex();
  std::string Key = keyOf(E);
  auto It = Dedup.find(Key);
  if (It != Dedup.end())
    return It->second;
  // The caller's Text view may be transient (a temporary, a buffer the
  // pool does not own); intern the copy that the entry will keep.
  if (E.Tag == CpTag::Utf8)
    E.Text = arena().internString(E.Text);
  uint16_t Index = appendRaw(std::move(E));
  Dedup.emplace(std::move(Key), Index);
  return Index;
}

void ConstantPool::buildIndex() {
  IndexPending = false;
  Dedup.clear();
  for (uint16_t I = 1; I < count(); ++I)
    if (Entries[I].Tag != CpTag::None)
      Dedup.emplace(keyOf(Entries[I]), I);
}

uint16_t ConstantPool::addUtf8(std::string_view Text) {
  CpEntry E;
  E.Tag = CpTag::Utf8;
  E.Text = Text;
  // Dedup hit returns the existing entry; only a genuinely new string
  // is interned into the arena (addKeyed copies E.Text before insert).
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addInteger(int32_t Value) {
  CpEntry E;
  E.Tag = CpTag::Integer;
  E.Bits = static_cast<uint32_t>(Value);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addFloat(uint32_t RawBits) {
  CpEntry E;
  E.Tag = CpTag::Float;
  E.Bits = RawBits;
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addLong(int64_t Value) {
  CpEntry E;
  E.Tag = CpTag::Long;
  E.Bits = static_cast<uint64_t>(Value);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addDouble(uint64_t RawBits) {
  CpEntry E;
  E.Tag = CpTag::Double;
  E.Bits = RawBits;
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addClass(std::string_view InternalName) {
  CpEntry E;
  E.Tag = CpTag::Class;
  E.Ref1 = addUtf8(InternalName);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addString(std::string_view Value) {
  CpEntry E;
  E.Tag = CpTag::String;
  E.Ref1 = addUtf8(Value);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addNameAndType(std::string_view Name,
                                      std::string_view Desc) {
  CpEntry E;
  E.Tag = CpTag::NameAndType;
  E.Ref1 = addUtf8(Name);
  E.Ref2 = addUtf8(Desc);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addRef(CpTag Kind, std::string_view ClassName,
                              std::string_view Name, std::string_view Desc) {
  assert((Kind == CpTag::FieldRef || Kind == CpTag::MethodRef ||
          Kind == CpTag::InterfaceMethodRef) &&
         "addRef takes a member-reference tag");
  CpEntry E;
  E.Tag = Kind;
  E.Ref1 = addClass(ClassName);
  E.Ref2 = addNameAndType(Name, Desc);
  return addKeyed(std::move(E));
}

std::string_view ConstantPool::utf8(uint16_t Index) const {
  const CpEntry &E = entry(Index);
  assert(E.Tag == CpTag::Utf8 && "expected a Utf8 entry");
  return E.Text;
}

std::string_view ConstantPool::className(uint16_t Index) const {
  const CpEntry &E = entry(Index);
  assert(E.Tag == CpTag::Class && "expected a Class entry");
  return utf8(E.Ref1);
}

static Error notA(const char *Kind, uint16_t Index) {
  return makeError(ErrorCode::Corrupt, "constant pool: index " +
                                           std::to_string(Index) +
                                           " is not a " + Kind + " entry");
}

Expected<std::string_view> ConstantPool::checkedUtf8(uint16_t Index) const {
  if (const CpEntry *E = find(Index, CpTag::Utf8))
    return E->Text;
  return notA("Utf8", Index);
}

Expected<std::string_view>
ConstantPool::checkedClassName(uint16_t Index) const {
  if (const CpEntry *E = find(Index, CpTag::Class))
    return checkedUtf8(E->Ref1);
  return notA("Class", Index);
}
