//===- Reader.cpp - JVM classfile parser ----------------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Reader.h"
#include "support/ByteBuffer.h"
#include <string>

using namespace cjpack;

namespace {

class ClassParser {
public:
  /// Borrowed parse over \p Bytes; Owning mode first lands the whole
  /// input in CF's arena with one bulk copy and borrows from that.
  /// (CF is declared before R so the arena exists when R is built.)
  ClassParser(std::span<const uint8_t> Bytes, const DecodeLimits &Limits,
              ParseMode Mode)
      : R(Mode == ParseMode::Owning ? CF.arena().copy(Bytes) : Bytes),
        Limits(Limits) {}

  /// Zero-copy owning parse: adopt the caller's buffer into the arena.
  ClassParser(std::vector<uint8_t> &&Bytes, const DecodeLimits &Limits)
      : R(CF.arena().adopt(std::move(Bytes))), Limits(Limits) {}

  Expected<ClassFile> parse() {
    if (R.readU4() != 0xCAFEBABEu)
      return makeError(ErrorCode::Corrupt, "classfile: bad magic");
    CF.MinorVersion = R.readU2();
    CF.MajorVersion = R.readU2();

    if (auto E = parseConstantPool())
      return E;

    CF.AccessFlags = R.readU2();
    CF.ThisClass = R.readU2();
    CF.SuperClass = R.readU2();
    uint16_t IfaceCount = R.readU2();
    for (uint16_t I = 0; I < IfaceCount; ++I)
      CF.Interfaces.push_back(R.readU2());

    if (auto E = parseMembers(CF.Fields))
      return E;
    if (auto E = parseMembers(CF.Methods))
      return E;
    if (auto E = parseAttributes(CF.Attributes))
      return E;

    if (auto E = R.takeError("classfile"))
      return E;
    if (!R.atEnd())
      return makeError(ErrorCode::Corrupt,
                       "classfile: trailing bytes after attributes");
    if (!CF.CP.isValidIndex(CF.ThisClass) ||
        CF.CP.entry(CF.ThisClass).Tag != CpTag::Class)
      return makeError(ErrorCode::Corrupt,
                       "classfile: this_class is not a Class entry");
    return std::move(CF);
  }

private:
  Error parseConstantPool() {
    uint16_t Count = R.readU2();
    if (R.hasError() || Count == 0)
      return makeError(ErrorCode::Corrupt,
                       "classfile: bad constant pool count");
    if (Count > Limits.MaxPoolCount)
      return makeError(ErrorCode::LimitExceeded,
                       "classfile: constant pool count over limit");
    // Every entry costs at least three bytes (tag + two payload bytes),
    // so a count the remaining input cannot hold is corrupt up front.
    if (static_cast<uint64_t>(Count - 1) * 3 > R.remaining())
      return makeError(ErrorCode::Corrupt,
                       "classfile: constant pool larger than input");
    uint16_t Index = 1;
    while (Index < Count) {
      CpEntry E;
      uint8_t Tag = R.readU1();
      E.Tag = static_cast<CpTag>(Tag);
      switch (E.Tag) {
      case CpTag::Utf8: {
        uint16_t Len = R.readU2();
        E.Text = R.readStringView(Len);
        break;
      }
      case CpTag::Integer:
      case CpTag::Float:
        E.Bits = R.readU4();
        break;
      case CpTag::Long:
      case CpTag::Double:
        E.Bits = R.readU8();
        break;
      case CpTag::Class:
      case CpTag::String:
      case CpTag::MethodType:
      case CpTag::Module:
      case CpTag::Package:
        E.Ref1 = R.readU2();
        break;
      case CpTag::FieldRef:
      case CpTag::MethodRef:
      case CpTag::InterfaceMethodRef:
      case CpTag::NameAndType:
      case CpTag::Dynamic:
      case CpTag::InvokeDynamic:
        E.Ref1 = R.readU2();
        E.Ref2 = R.readU2();
        break;
      case CpTag::MethodHandle:
        E.RefKind = R.readU1();
        E.Ref1 = R.readU2();
        break;
      case CpTag::None:
      default:
        return makeError(ErrorCode::Corrupt,
                         "classfile: unknown constant tag " +
                             std::to_string(Tag) + " at cp index " +
                             std::to_string(Index) + " (byte " +
                             std::to_string(R.position() - 1) + ")");
      }
      bool Wide = E.isWide();
      CF.CP.appendRaw(std::move(E));
      Index += Wide ? 2 : 1;
    }
    if (Index != Count)
      return makeError(ErrorCode::Corrupt,
                       "classfile: wide constant overruns pool");
    CF.CP.invalidateIndex();
    return R.takeError("classfile constant pool");
  }

  Error parseAttributes(std::vector<AttributeInfo> &Out) {
    uint16_t Count = R.readU2();
    for (uint16_t I = 0; I < Count; ++I) {
      uint16_t NameIdx = R.readU2();
      uint32_t Len = R.readU4();
      if (R.hasError())
        return makeError(ErrorCode::Truncated,
                         "classfile: truncated attribute header");
      if (!CF.CP.isValidIndex(NameIdx) ||
          CF.CP.entry(NameIdx).Tag != CpTag::Utf8)
        return makeError(ErrorCode::Corrupt,
                         "classfile: attribute name index " +
                             std::to_string(NameIdx) + " is not Utf8");
      if (Len > R.remaining())
        return makeError(ErrorCode::Truncated,
                         "classfile: attribute length " +
                             std::to_string(Len) + " overruns input at byte " +
                             std::to_string(R.position()));
      AttributeInfo A;
      A.Name = CF.CP.utf8(NameIdx);
      A.Bytes = R.readSpan(Len);
      Out.push_back(A);
    }
    return R.takeError("classfile attributes");
  }

  Error parseMembers(std::vector<MemberInfo> &Out) {
    uint16_t Count = R.readU2();
    for (uint16_t I = 0; I < Count; ++I) {
      MemberInfo M;
      M.AccessFlags = R.readU2();
      M.NameIndex = R.readU2();
      M.DescriptorIndex = R.readU2();
      if (auto E = parseAttributes(M.Attributes))
        return E;
      Out.push_back(std::move(M));
    }
    return R.takeError("classfile members");
  }

  ClassFile CF;
  ByteReader R;
  DecodeLimits Limits;
};

} // namespace

Expected<ClassFile>
cjpack::parseClassFile(std::span<const uint8_t> Bytes,
                       const DecodeLimits &Limits, ParseMode Mode) {
  return ClassParser(Bytes, Limits, Mode).parse();
}

Expected<ClassFile> cjpack::parseClassFile(std::vector<uint8_t> &&Bytes,
                                           const DecodeLimits &Limits) {
  return ClassParser(std::move(Bytes), Limits).parse();
}
