//===- Jazz.cpp - the Jazz comparator format (§13.1) ----------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jazz/Jazz.h"
#include "bytecode/Instruction.h"
#include "classfile/Reader.h"
#include "coder/RefCoder.h"
#include "pack/CodeCommon.h"
#include "pack/Packer.h"
#include "support/VarInt.h"
#include "zip/Zlib.h"
#include <map>

using namespace cjpack;

namespace {

/// Jazz's global pools: standard constant-pool entry kinds, shared
/// across classfiles, unfactored.
enum class JPool : uint32_t { Utf8, Loadable, Class, Nat, Field, Method };

struct JLoadable {
  CpTag Tag = CpTag::Integer;
  uint64_t Bits = 0;
  uint32_t Utf8 = 0; ///< for String entries

  bool operator<(const JLoadable &O) const {
    return std::tie(Tag, Bits, Utf8) < std::tie(O.Tag, O.Bits, O.Utf8);
  }
};

struct JNat {
  uint32_t Name = 0, Desc = 0;
  bool operator<(const JNat &O) const {
    return std::tie(Name, Desc) < std::tie(O.Name, O.Desc);
  }
};

struct JMember {
  uint32_t Class = 0, Nat = 0;
  bool IsInterface = false; ///< method refs only
  bool operator<(const JMember &O) const {
    return std::tie(Class, Nat, IsInterface) <
           std::tie(O.Class, O.Nat, O.IsInterface);
  }
};

class JazzModel {
public:
  template <typename T, typename MapT>
  static uint32_t internInto(MapT &Ids, std::vector<T> &Items,
                             const T &Key) {
    auto It = Ids.find(Key);
    if (It != Ids.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Items.size());
    Items.push_back(Key);
    Ids.emplace(Key, Id);
    return Id;
  }

  uint32_t utf8(std::string_view S) {
    auto It = UtfIds.find(S);
    if (It != UtfIds.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Utfs.size());
    Utfs.emplace_back(S);
    UtfIds.emplace(S, Id);
    return Id;
  }
  uint32_t loadable(const JLoadable &L) {
    return internInto(LoadIds, Loads, L);
  }
  uint32_t classEntry(std::string_view Name) {
    return internInto(ClassIds, Classes, utf8(Name));
  }
  uint32_t nat(std::string_view Name, std::string_view Desc) {
    return internInto(NatIds, Nats, JNat{utf8(Name), utf8(Desc)});
  }
  uint32_t fieldRef(uint32_t Cls, uint32_t Nat) {
    return internInto(FieldIds, Fields, JMember{Cls, Nat, false});
  }
  uint32_t methodRef(uint32_t Cls, uint32_t Nat, bool IsInterface) {
    return internInto(MethodIds, Methods, JMember{Cls, Nat, IsInterface});
  }

  std::vector<std::string> Utfs;
  std::vector<JLoadable> Loads;
  std::vector<uint32_t> Classes; ///< utf8 id of the name
  std::vector<JNat> Nats;
  std::vector<JMember> Fields, Methods;

private:
  std::map<std::string, uint32_t, std::less<>> UtfIds;
  std::map<JLoadable, uint32_t> LoadIds;
  std::map<uint32_t, uint32_t> ClassIds;
  std::map<JNat, uint32_t> NatIds;
  std::map<JMember, uint32_t> FieldIds, MethodIds;
};

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

class JazzEncoder {
public:
  JazzEncoder() : Enc(makeRefEncoder(RefScheme::Basic, nullptr)) {}

  Error encodeArchive(const std::vector<ClassFile> &Classes,
                      ByteWriter &W) {
    writeVarUInt(W, Classes.size());
    for (const ClassFile &CF : Classes)
      if (auto E = encodeClass(CF, W))
        return E;
    return Error::success();
  }

private:
  uint32_t pool(JPool P) { return static_cast<uint32_t>(P); }

  void refUtf8(uint32_t Id, ByteWriter &W) {
    if (Enc->encode(pool(JPool::Utf8), 0, Id, W)) {
      const std::string &S = M.Utfs[Id];
      writeVarUInt(W, S.size());
      W.writeString(S);
    }
  }

  void refLoadable(uint32_t Id, ByteWriter &W) {
    if (Enc->encode(pool(JPool::Loadable), 0, Id, W)) {
      const JLoadable &L = M.Loads[Id];
      W.writeU1(static_cast<uint8_t>(L.Tag));
      switch (L.Tag) {
      case CpTag::Integer:
      case CpTag::Float:
        W.writeU4(static_cast<uint32_t>(L.Bits));
        break;
      case CpTag::Long:
      case CpTag::Double:
        W.writeU8(L.Bits);
        break;
      case CpTag::String:
        refUtf8(L.Utf8, W);
        break;
      default:
        assert(false && "bad loadable tag");
      }
    }
  }

  void refClass(uint32_t Id, ByteWriter &W) {
    if (Enc->encode(pool(JPool::Class), 0, Id, W))
      refUtf8(M.Classes[Id], W);
  }

  void refNat(uint32_t Id, ByteWriter &W) {
    if (Enc->encode(pool(JPool::Nat), 0, Id, W)) {
      refUtf8(M.Nats[Id].Name, W);
      refUtf8(M.Nats[Id].Desc, W);
    }
  }

  void refMember(JPool P, uint32_t Id, ByteWriter &W) {
    const std::vector<JMember> &Items =
        P == JPool::Field ? M.Fields : M.Methods;
    if (Enc->encode(pool(P), 0, Id, W)) {
      const JMember &E = Items[Id];
      if (P == JPool::Method)
        W.writeU1(E.IsInterface ? 1 : 0);
      refClass(E.Class, W);
      refNat(E.Nat, W);
    }
  }

  Expected<uint32_t> loadableFromCp(const ClassFile &CF, uint16_t Index) {
    if (!CF.CP.isValidIndex(Index))
      return Error::failure("jazz: dangling constant index");
    const CpEntry &E = CF.CP.entry(Index);
    JLoadable L;
    L.Tag = E.Tag;
    switch (E.Tag) {
    case CpTag::Integer:
    case CpTag::Float:
    case CpTag::Long:
    case CpTag::Double:
      L.Bits = E.Bits;
      break;
    case CpTag::String:
      L.Utf8 = M.utf8(CF.CP.utf8(E.Ref1));
      break;
    default:
      return Error::failure("jazz: unsupported loadable kind");
    }
    return M.loadable(L);
  }

  uint32_t classFromCp(const ClassFile &CF, uint16_t Index) {
    return M.classEntry(CF.CP.className(Index));
  }

  Expected<uint32_t> memberFromCp(const ClassFile &CF, uint16_t Index,
                                  bool IsField) {
    const CpEntry &E = CF.CP.entry(Index);
    if (IsField ? E.Tag != CpTag::FieldRef
                : (E.Tag != CpTag::MethodRef &&
                   E.Tag != CpTag::InterfaceMethodRef))
      return Error::failure("jazz: member ref kind mismatch");
    const CpEntry &NT = CF.CP.entry(E.Ref2);
    uint32_t Cls = classFromCp(CF, E.Ref1);
    uint32_t Nat = M.nat(CF.CP.utf8(NT.Ref1), CF.CP.utf8(NT.Ref2));
    if (IsField)
      return M.fieldRef(Cls, Nat);
    return M.methodRef(Cls, Nat, E.Tag == CpTag::InterfaceMethodRef);
  }

  Error encodeClass(const ClassFile &CF, ByteWriter &W) {
    writeVarUInt(W, CF.MinorVersion);
    writeVarUInt(W, CF.MajorVersion);
    uint32_t Flags = CF.AccessFlags;
    if (CF.SuperClass != 0)
      Flags |= PackedFlagAux0;
    if (findAttribute(CF.Attributes, "Synthetic"))
      Flags |= PackedFlagSynthetic;
    if (findAttribute(CF.Attributes, "Deprecated"))
      Flags |= PackedFlagDeprecated;
    writeVarUInt(W, Flags);
    refClass(M.classEntry(CF.thisClassName()), W);
    if (CF.SuperClass != 0)
      refClass(M.classEntry(CF.superClassName()), W);
    writeVarUInt(W, CF.Interfaces.size());
    for (uint16_t I : CF.Interfaces)
      refClass(classFromCp(CF, I), W);

    writeVarUInt(W, CF.Fields.size());
    for (const MemberInfo &F : CF.Fields)
      if (auto E = encodeField(CF, F, W))
        return E;
    writeVarUInt(W, CF.Methods.size());
    for (const MemberInfo &Mth : CF.Methods)
      if (auto E = encodeMethod(CF, Mth, W))
        return E;
    return Error::success();
  }

  uint32_t memberFlags(const MemberInfo &MI) {
    uint32_t Flags = MI.AccessFlags;
    if (findAttribute(MI.Attributes, "Synthetic"))
      Flags |= PackedFlagSynthetic;
    if (findAttribute(MI.Attributes, "Deprecated"))
      Flags |= PackedFlagDeprecated;
    return Flags;
  }

  Error encodeField(const ClassFile &CF, const MemberInfo &F,
                    ByteWriter &W) {
    const AttributeInfo *Const =
        findAttribute(F.Attributes, "ConstantValue");
    uint32_t Flags = memberFlags(F);
    if (Const)
      Flags |= PackedFlagAux0;
    writeVarUInt(W, Flags);
    refUtf8(M.utf8(CF.CP.utf8(F.NameIndex)), W);
    refUtf8(M.utf8(CF.CP.utf8(F.DescriptorIndex)), W);
    if (Const) {
      if (Const->Bytes.size() != 2)
        return makeError("jazz: malformed ConstantValue");
      ByteReader CR(Const->Bytes);
      auto Id = loadableFromCp(CF, CR.readU2());
      if (!Id)
        return Id.takeError();
      refLoadable(*Id, W);
    }
    return Error::success();
  }

  Error encodeMethod(const ClassFile &CF, const MemberInfo &Mth,
                     ByteWriter &W) {
    const AttributeInfo *Code = findAttribute(Mth.Attributes, "Code");
    const AttributeInfo *Exceptions =
        findAttribute(Mth.Attributes, "Exceptions");
    uint32_t Flags = memberFlags(Mth);
    if (Code)
      Flags |= PackedFlagAux0;
    if (Exceptions)
      Flags |= PackedFlagAux1;
    writeVarUInt(W, Flags);
    refUtf8(M.utf8(CF.CP.utf8(Mth.NameIndex)), W);
    refUtf8(M.utf8(CF.CP.utf8(Mth.DescriptorIndex)), W);
    if (Exceptions) {
      ByteReader ER(Exceptions->Bytes);
      uint16_t N = ER.readU2();
      writeVarUInt(W, N);
      for (uint16_t K = 0; K < N; ++K)
        refClass(classFromCp(CF, ER.readU2()), W);
    }
    if (Code)
      return encodeCode(CF, *Code, W);
    return Error::success();
  }

  Error encodeCode(const ClassFile &CF, const AttributeInfo &Attr,
                   ByteWriter &W) {
    auto Code = parseCodeAttribute(Attr, CF.CP);
    if (!Code)
      return Code.takeError();
    auto Insns = decodeCode(Code->Code);
    if (!Insns)
      return Insns.takeError();
    writeVarUInt(W, Code->MaxStack);
    writeVarUInt(W, Code->MaxLocals);
    writeVarUInt(W, Code->ExceptionTable.size());
    writeVarUInt(W, Insns->size());
    for (const ExceptionTableEntry &E : Code->ExceptionTable) {
      writeVarUInt(W, E.StartPc);
      writeVarUInt(W, E.EndPc - E.StartPc);
      writeVarUInt(W, E.HandlerPc);
      if (E.CatchType == 0) {
        W.writeU1(0);
      } else {
        W.writeU1(1);
        refClass(classFromCp(CF, E.CatchType), W);
      }
    }
    for (const Insn &I : *Insns)
      if (auto E = encodeInsn(CF, I, W))
        return E;
    return Error::success();
  }

  Error encodeInsn(const ClassFile &CF, const Insn &I, ByteWriter &W) {
    if (I.IsWide)
      W.writeU1(static_cast<uint8_t>(Op::Wide));
    W.writeU1(static_cast<uint8_t>(I.Opcode));
    switch (opInfo(I.Opcode).Format) {
    case OpFormat::None:
      break;
    case OpFormat::S1:
    case OpFormat::S2:
    case OpFormat::NewArrayType:
      writeVarInt(W, I.Const);
      break;
    case OpFormat::LocalU1:
      writeVarUInt(W, I.LocalIndex);
      break;
    case OpFormat::Iinc:
      writeVarUInt(W, I.LocalIndex);
      writeVarInt(W, I.Const);
      break;
    case OpFormat::CpU1:
    case OpFormat::CpU2:
    case OpFormat::InvokeInterface: {
      switch (cpRefKind(I.Opcode)) {
      case CpRefKind::LoadConst:
      case CpRefKind::LoadConst2: {
        auto Id = loadableFromCp(CF, I.CpIndex);
        if (!Id)
          return Id.takeError();
        refLoadable(*Id, W);
        break;
      }
      case CpRefKind::ClassRef:
        refClass(classFromCp(CF, I.CpIndex), W);
        break;
      case CpRefKind::FieldInstance:
      case CpRefKind::FieldStatic: {
        auto Id = memberFromCp(CF, I.CpIndex, /*IsField=*/true);
        if (!Id)
          return Id.takeError();
        refMember(JPool::Field, *Id, W);
        break;
      }
      default: {
        auto Id = memberFromCp(CF, I.CpIndex, /*IsField=*/false);
        if (!Id)
          return Id.takeError();
        refMember(JPool::Method, *Id, W);
        if (I.Opcode == Op::InvokeInterface)
          writeVarUInt(W, I.InvokeCount);
        break;
      }
      }
      break;
    }
    case OpFormat::Branch2:
    case OpFormat::Branch4:
      writeVarInt(W, I.BranchTarget - static_cast<int32_t>(I.Offset));
      break;
    case OpFormat::MultiANewArray:
      refClass(classFromCp(CF, I.CpIndex), W);
      writeVarUInt(W, static_cast<uint32_t>(I.Const));
      break;
    case OpFormat::TableSwitch:
      writeVarInt(W, I.SwitchLow);
      writeVarInt(W, I.SwitchHigh);
      writeVarInt(W, I.SwitchDefault - static_cast<int32_t>(I.Offset));
      for (int32_t T : I.SwitchTargets)
        writeVarInt(W, T - static_cast<int32_t>(I.Offset));
      break;
    case OpFormat::LookupSwitch:
      writeVarUInt(W, I.SwitchMatches.size());
      writeVarInt(W, I.SwitchDefault - static_cast<int32_t>(I.Offset));
      for (size_t K = 0; K < I.SwitchMatches.size(); ++K) {
        writeVarInt(W, I.SwitchMatches[K]);
        writeVarInt(W, I.SwitchTargets[K] - static_cast<int32_t>(I.Offset));
      }
      break;
    case OpFormat::InvokeDynamic:
      return makeError("jazz: invokedynamic is not supported");
    case OpFormat::Wide:
      return makeError("jazz: unexpected wide format");
    }
    return Error::success();
  }

  JazzModel M;
  std::unique_ptr<RefEncoder> Enc;
};

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//

class JazzDecoder {
public:
  JazzDecoder() : Dec(makeRefDecoder(RefScheme::Basic)) {}

  Expected<std::vector<ClassFile>> decodeArchive(ByteReader &R) {
    size_t Count = static_cast<size_t>(readVarUInt(R));
    if (R.hasError() || Count > (1u << 24))
      return Error::failure("jazz: implausible class count");
    std::vector<ClassFile> Out;
    for (size_t I = 0; I < Count; ++I) {
      auto CF = decodeClass(R);
      if (!CF)
        return CF.takeError();
      Out.push_back(std::move(*CF));
    }
    return Out;
  }

private:
  uint32_t pool(JPool P) { return static_cast<uint32_t>(P); }

  uint32_t readUtf8(ByteReader &R) {
    auto Existing = Dec->decode(pool(JPool::Utf8), 0, R);
    if (Existing)
      return *Existing;
    size_t Len = static_cast<size_t>(readVarUInt(R));
    uint32_t Id = JazzModel::internInto(UtfIds, M.Utfs, R.readString(Len));
    Dec->registerNew(pool(JPool::Utf8), 0, Id);
    return Id;
  }

  uint32_t readLoadable(ByteReader &R) {
    auto Existing = Dec->decode(pool(JPool::Loadable), 0, R);
    if (Existing)
      return *Existing;
    JLoadable L;
    L.Tag = static_cast<CpTag>(R.readU1());
    switch (L.Tag) {
    case CpTag::Integer:
    case CpTag::Float:
      L.Bits = R.readU4();
      break;
    case CpTag::Long:
    case CpTag::Double:
      L.Bits = R.readU8();
      break;
    default: // String (validated on materialization)
      L.Utf8 = readUtf8(R);
      break;
    }
    uint32_t Id = static_cast<uint32_t>(M.Loads.size());
    M.Loads.push_back(L);
    Dec->registerNew(pool(JPool::Loadable), 0, Id);
    return Id;
  }

  uint32_t readClass(ByteReader &R) {
    auto Existing = Dec->decode(pool(JPool::Class), 0, R);
    if (Existing)
      return *Existing;
    uint32_t Utf = readUtf8(R);
    uint32_t Id = static_cast<uint32_t>(M.Classes.size());
    M.Classes.push_back(Utf);
    Dec->registerNew(pool(JPool::Class), 0, Id);
    return Id;
  }

  uint32_t readNat(ByteReader &R) {
    auto Existing = Dec->decode(pool(JPool::Nat), 0, R);
    if (Existing)
      return *Existing;
    JNat N;
    N.Name = readUtf8(R);
    N.Desc = readUtf8(R);
    uint32_t Id = static_cast<uint32_t>(M.Nats.size());
    M.Nats.push_back(N);
    Dec->registerNew(pool(JPool::Nat), 0, Id);
    return Id;
  }

  uint32_t readMember(JPool P, ByteReader &R) {
    auto Existing = Dec->decode(pool(P), 0, R);
    if (Existing)
      return *Existing;
    JMember E;
    if (P == JPool::Method)
      E.IsInterface = R.readU1() != 0;
    E.Class = readClass(R);
    E.Nat = readNat(R);
    std::vector<JMember> &Items =
        P == JPool::Field ? M.Fields : M.Methods;
    uint32_t Id = static_cast<uint32_t>(Items.size());
    Items.push_back(E);
    Dec->registerNew(pool(P), 0, Id);
    return Id;
  }

  uint16_t materializeLoadable(ClassFile &CF, uint32_t Id) {
    const JLoadable &L = M.Loads[Id];
    switch (L.Tag) {
    case CpTag::Integer:
      return CF.CP.addInteger(static_cast<int32_t>(L.Bits));
    case CpTag::Float:
      return CF.CP.addFloat(static_cast<uint32_t>(L.Bits));
    case CpTag::Long:
      return CF.CP.addLong(static_cast<int64_t>(L.Bits));
    case CpTag::Double:
      return CF.CP.addDouble(L.Bits);
    default:
      return CF.CP.addString(M.Utfs[L.Utf8]);
    }
  }

  const std::string &classNameOf(uint32_t Id) {
    return M.Utfs[M.Classes[Id]];
  }

  Expected<ClassFile> decodeClass(ByteReader &R) {
    uint32_t MinorV = static_cast<uint32_t>(readVarUInt(R));
    uint32_t MajorV = static_cast<uint32_t>(readVarUInt(R));
    uint32_t Flags = static_cast<uint32_t>(readVarUInt(R));
    uint32_t ThisId = readClass(R);
    uint32_t SuperId = 0;
    bool HasSuper = (Flags & PackedFlagAux0) != 0;
    if (HasSuper)
      SuperId = readClass(R);
    size_t IfaceCount = static_cast<size_t>(readVarUInt(R));
    if (R.hasError() || IfaceCount > 0xFFFF)
      return Error::failure("jazz: truncated class header");
    std::vector<uint32_t> Ifaces;
    for (size_t I = 0; I < IfaceCount; ++I)
      Ifaces.push_back(readClass(R));

    // Collect everything first so ldc constants can claim low indices.
    struct FieldRec {
      uint32_t Flags, Name, Desc;
      bool HasConst = false;
      uint32_t Const = 0;
    };
    struct MethodRec {
      uint32_t Flags, Name, Desc;
      std::vector<uint32_t> Exceptions;
      bool HasCode = false;
      uint32_t MaxStack = 0, MaxLocals = 0;
      struct Exc {
        uint32_t Start, End, Handler;
        bool HasCatch;
        uint32_t CatchClass;
      };
      std::vector<Exc> Table;
      std::vector<Insn> Insns;
      struct OperandRec {
        CpRefKind Kind = CpRefKind::None;
        uint32_t Id = 0;
      };
      std::vector<OperandRec> Operands;
    };

    std::vector<FieldRec> FieldRecs;
    size_t FieldCount = static_cast<size_t>(readVarUInt(R));
    if (R.hasError() || FieldCount > 0xFFFF)
      return Error::failure("jazz: truncated fields");
    for (size_t I = 0; I < FieldCount; ++I) {
      FieldRec F;
      F.Flags = static_cast<uint32_t>(readVarUInt(R));
      F.Name = readUtf8(R);
      F.Desc = readUtf8(R);
      if (F.Flags & PackedFlagAux0) {
        F.HasConst = true;
        F.Const = readLoadable(R);
      }
      FieldRecs.push_back(F);
    }

    std::vector<MethodRec> MethodRecs;
    size_t MethodCount = static_cast<size_t>(readVarUInt(R));
    if (R.hasError() || MethodCount > 0xFFFF)
      return Error::failure("jazz: truncated methods");
    for (size_t I = 0; I < MethodCount; ++I) {
      MethodRec DM;
      DM.Flags = static_cast<uint32_t>(readVarUInt(R));
      DM.Name = readUtf8(R);
      DM.Desc = readUtf8(R);
      if (DM.Flags & PackedFlagAux1) {
        size_t N = static_cast<size_t>(readVarUInt(R));
        if (R.hasError() || N > 0xFFFF)
          return Error::failure("jazz: truncated Exceptions");
        for (size_t K = 0; K < N; ++K)
          DM.Exceptions.push_back(readClass(R));
      }
      if (DM.Flags & PackedFlagAux0) {
        DM.HasCode = true;
        DM.MaxStack = static_cast<uint32_t>(readVarUInt(R));
        DM.MaxLocals = static_cast<uint32_t>(readVarUInt(R));
        size_t ExcCount = static_cast<size_t>(readVarUInt(R));
        size_t InsnCount = static_cast<size_t>(readVarUInt(R));
        if (R.hasError() || ExcCount > 0xFFFF)
          return Error::failure("jazz: truncated code header");
        for (size_t K = 0; K < ExcCount; ++K) {
          MethodRec::Exc E;
          E.Start = static_cast<uint32_t>(readVarUInt(R));
          E.End = E.Start + static_cast<uint32_t>(readVarUInt(R));
          E.Handler = static_cast<uint32_t>(readVarUInt(R));
          E.HasCatch = R.readU1() != 0;
          E.CatchClass = E.HasCatch ? readClass(R) : 0;
          DM.Table.push_back(E);
        }
        uint32_t Offset = 0;
        for (size_t K = 0; K < InsnCount; ++K) {
          auto Decoded = decodeInsn(R, Offset);
          if (!Decoded)
            return Decoded.takeError();
          Decoded->first.Offset = Offset;
          Decoded->first.Length =
              encodedLength(Decoded->first, Offset);
          Offset += Decoded->first.Length;
          DM.Insns.push_back(std::move(Decoded->first));
          DM.Operands.push_back(
              {cpRefKind(DM.Insns.back().Opcode), Decoded->second});
        }
      }
      MethodRecs.push_back(std::move(DM));
    }
    if (R.hasError())
      return Error::failure("jazz: truncated class body");

    // Materialize.
    ClassFile CF;
    CF.MinorVersion = static_cast<uint16_t>(MinorV);
    CF.MajorVersion = static_cast<uint16_t>(MajorV);
    CF.AccessFlags = static_cast<uint16_t>(Flags & 0xFFFF);
    for (const MethodRec &DM : MethodRecs)
      for (size_t K = 0; K < DM.Insns.size(); ++K)
        if (DM.Insns[K].Opcode == Op::Ldc)
          materializeLoadable(CF, DM.Operands[K].Id);
    CF.ThisClass = CF.CP.addClass(classNameOf(ThisId));
    CF.SuperClass = HasSuper ? CF.CP.addClass(classNameOf(SuperId)) : 0;
    for (uint32_t I : Ifaces)
      CF.Interfaces.push_back(CF.CP.addClass(classNameOf(I)));
    if (Flags & PackedFlagSynthetic)
      CF.Attributes.push_back({"Synthetic", {}});
    if (Flags & PackedFlagDeprecated)
      CF.Attributes.push_back({"Deprecated", {}});

    for (const FieldRec &F : FieldRecs) {
      MemberInfo MI;
      MI.AccessFlags = static_cast<uint16_t>(F.Flags & 0xFFFF);
      MI.NameIndex = CF.CP.addUtf8(M.Utfs[F.Name]);
      MI.DescriptorIndex = CF.CP.addUtf8(M.Utfs[F.Desc]);
      if (F.HasConst) {
        ByteWriter W;
        W.writeU2(materializeLoadable(CF, F.Const));
        MI.Attributes.push_back({"ConstantValue", CF.arena().adopt(W.take())});
      }
      if (F.Flags & PackedFlagSynthetic)
        MI.Attributes.push_back({"Synthetic", {}});
      if (F.Flags & PackedFlagDeprecated)
        MI.Attributes.push_back({"Deprecated", {}});
      CF.Fields.push_back(std::move(MI));
    }

    for (MethodRec &DM : MethodRecs) {
      MemberInfo MI;
      MI.AccessFlags = static_cast<uint16_t>(DM.Flags & 0xFFFF);
      MI.NameIndex = CF.CP.addUtf8(M.Utfs[DM.Name]);
      MI.DescriptorIndex = CF.CP.addUtf8(M.Utfs[DM.Desc]);
      if (DM.HasCode) {
        CodeAttribute Code;
        Code.MaxStack = static_cast<uint16_t>(DM.MaxStack);
        Code.MaxLocals = static_cast<uint16_t>(DM.MaxLocals);
        for (size_t K = 0; K < DM.Insns.size(); ++K) {
          Insn &I = DM.Insns[K];
          uint32_t Id = DM.Operands[K].Id;
          switch (cpRefKind(I.Opcode)) {
          case CpRefKind::None:
            break;
          case CpRefKind::LoadConst:
          case CpRefKind::LoadConst2:
            I.CpIndex = materializeLoadable(CF, Id);
            if (I.Opcode == Op::Ldc && I.CpIndex > 0xFF)
              return Error::failure("jazz: ldc constant escaped the low "
                                    "indices");
            break;
          case CpRefKind::ClassRef:
            I.CpIndex = CF.CP.addClass(classNameOf(Id));
            break;
          case CpRefKind::FieldInstance:
          case CpRefKind::FieldStatic: {
            const JMember &E = M.Fields[Id];
            I.CpIndex = CF.CP.addRef(CpTag::FieldRef,
                                     classNameOf(E.Class),
                                     M.Utfs[M.Nats[E.Nat].Name],
                                     M.Utfs[M.Nats[E.Nat].Desc]);
            break;
          }
          default: {
            const JMember &E = M.Methods[Id];
            I.CpIndex = CF.CP.addRef(
                E.IsInterface ? CpTag::InterfaceMethodRef
                              : CpTag::MethodRef,
                classNameOf(E.Class), M.Utfs[M.Nats[E.Nat].Name],
                M.Utfs[M.Nats[E.Nat].Desc]);
            break;
          }
          }
        }
        std::vector<uint8_t> CodeBytes = encodeCode(DM.Insns);
        Code.Code = CodeBytes;
        for (const MethodRec::Exc &E : DM.Table) {
          ExceptionTableEntry T;
          T.StartPc = static_cast<uint16_t>(E.Start);
          T.EndPc = static_cast<uint16_t>(E.End);
          T.HandlerPc = static_cast<uint16_t>(E.Handler);
          T.CatchType =
              E.HasCatch ? CF.CP.addClass(classNameOf(E.CatchClass)) : 0;
          Code.ExceptionTable.push_back(T);
        }
        MI.Attributes.push_back(encodeCodeAttribute(Code, CF.CP));
      }
      if (DM.Flags & PackedFlagAux1) {
        ByteWriter W;
        W.writeU2(static_cast<uint16_t>(DM.Exceptions.size()));
        for (uint32_t C : DM.Exceptions)
          W.writeU2(CF.CP.addClass(classNameOf(C)));
        MI.Attributes.push_back({"Exceptions", CF.arena().adopt(W.take())});
      }
      if (DM.Flags & PackedFlagSynthetic)
        MI.Attributes.push_back({"Synthetic", {}});
      if (DM.Flags & PackedFlagDeprecated)
        MI.Attributes.push_back({"Deprecated", {}});
      CF.Methods.push_back(std::move(MI));
    }

    if (auto E = prepareForPacking(CF))
      return E;
    return CF;
  }

  Expected<std::pair<Insn, uint32_t>> decodeInsn(ByteReader &R,
                                                 uint32_t Offset) {
    Insn I;
    uint32_t OperandId = 0;
    uint8_t Code = R.readU1();
    if (Code == static_cast<uint8_t>(Op::Wide)) {
      I.IsWide = true;
      Code = R.readU1();
    }
    if (R.hasError() || !isValidOpcode(Code))
      return Error::failure("jazz: bad opcode byte");
    I.Opcode = static_cast<Op>(Code);
    switch (opInfo(I.Opcode).Format) {
    case OpFormat::None:
      break;
    case OpFormat::S1:
    case OpFormat::S2:
    case OpFormat::NewArrayType:
      I.Const = static_cast<int32_t>(readVarInt(R));
      break;
    case OpFormat::LocalU1:
      I.LocalIndex = static_cast<uint32_t>(readVarUInt(R));
      break;
    case OpFormat::Iinc:
      I.LocalIndex = static_cast<uint32_t>(readVarUInt(R));
      I.Const = static_cast<int32_t>(readVarInt(R));
      break;
    case OpFormat::CpU1:
    case OpFormat::CpU2:
    case OpFormat::InvokeInterface:
      switch (cpRefKind(I.Opcode)) {
      case CpRefKind::LoadConst:
      case CpRefKind::LoadConst2:
        OperandId = readLoadable(R);
        break;
      case CpRefKind::ClassRef:
        OperandId = readClass(R);
        break;
      case CpRefKind::FieldInstance:
      case CpRefKind::FieldStatic:
        OperandId = readMember(JPool::Field, R);
        break;
      default:
        OperandId = readMember(JPool::Method, R);
        if (I.Opcode == Op::InvokeInterface)
          I.InvokeCount = static_cast<uint8_t>(readVarUInt(R));
        break;
      }
      break;
    case OpFormat::Branch2:
    case OpFormat::Branch4:
      I.BranchTarget = static_cast<int32_t>(Offset) +
                       static_cast<int32_t>(readVarInt(R));
      break;
    case OpFormat::MultiANewArray:
      OperandId = readClass(R);
      I.Const = static_cast<int32_t>(readVarUInt(R));
      break;
    case OpFormat::TableSwitch: {
      I.SwitchLow = static_cast<int32_t>(readVarInt(R));
      I.SwitchHigh = static_cast<int32_t>(readVarInt(R));
      if (I.SwitchHigh < I.SwitchLow ||
          static_cast<int64_t>(I.SwitchHigh) - I.SwitchLow >= (1 << 24))
        return Error::failure("jazz: malformed tableswitch");
      I.SwitchDefault = static_cast<int32_t>(Offset) +
                        static_cast<int32_t>(readVarInt(R));
      int64_t N = static_cast<int64_t>(I.SwitchHigh) - I.SwitchLow + 1;
      for (int64_t K = 0; K < N; ++K)
        I.SwitchTargets.push_back(static_cast<int32_t>(Offset) +
                                  static_cast<int32_t>(readVarInt(R)));
      break;
    }
    case OpFormat::LookupSwitch: {
      size_t N = static_cast<size_t>(readVarUInt(R));
      if (N >= (1u << 24))
        return Error::failure("jazz: malformed lookupswitch");
      I.SwitchDefault = static_cast<int32_t>(Offset) +
                        static_cast<int32_t>(readVarInt(R));
      for (size_t K = 0; K < N; ++K) {
        I.SwitchMatches.push_back(static_cast<int32_t>(readVarInt(R)));
        I.SwitchTargets.push_back(static_cast<int32_t>(Offset) +
                                  static_cast<int32_t>(readVarInt(R)));
      }
      break;
    }
    case OpFormat::InvokeDynamic:
    case OpFormat::Wide:
      return Error::failure("jazz: unsupported opcode format");
    }
    return std::make_pair(std::move(I), OperandId);
  }

  JazzModel M;
  std::map<std::string, uint32_t, std::less<>> UtfIds;
  std::unique_ptr<RefDecoder> Dec;
};

} // namespace

Expected<std::vector<uint8_t>>
cjpack::jazzPack(const std::vector<ClassFile> &Classes, bool Compress) {
  ByteWriter Body;
  JazzEncoder Enc;
  if (auto E = Enc.encodeArchive(Classes, Body))
    return E;
  ByteWriter W;
  W.writeU4(0x4A415A31u); // "JAZ1"
  W.writeU1(Compress ? 1 : 0);
  if (Compress) {
    std::vector<uint8_t> Deflated = deflateBytes(Body.data());
    writeVarUInt(W, Body.size());
    W.writeBytes(Deflated);
  } else {
    writeVarUInt(W, Body.size());
    W.writeBytes(Body.data());
  }
  return W.take();
}

Expected<std::vector<ClassFile>>
cjpack::jazzUnpack(const std::vector<uint8_t> &Archive) {
  ByteReader R(Archive);
  if (R.readU4() != 0x4A415A31u)
    return Error::failure("jazz: bad magic");
  uint8_t Compressed = R.readU1();
  uint64_t RawLen64 = readVarUInt(R);
  std::vector<uint8_t> Body = R.readBytes(R.remaining());
  if (R.hasError())
    return makeError(ErrorCode::Truncated, "jazz: truncated archive");
  // Validate the declared length before it drives the inflate
  // allocation; cap inflation by it so a lying header cannot bomb.
  if (RawLen64 > DecodeLimits().MaxStreamBytes)
    return makeError(ErrorCode::LimitExceeded,
                     "jazz: declared size over limit");
  size_t RawLen = static_cast<size_t>(RawLen64);
  if (Compressed) {
    auto Raw = inflateBytes(Body, RawLen, RawLen ? RawLen : 1);
    if (!Raw)
      return Raw.takeError();
    if (Raw->size() != RawLen)
      return makeError(ErrorCode::Corrupt, "jazz: declared size mismatch");
    Body = std::move(*Raw);
  }
  ByteReader BR(Body);
  JazzDecoder Dec;
  return Dec.decodeArchive(BR);
}

Expected<std::vector<uint8_t>>
cjpack::jazzPackBytes(const std::vector<NamedClass> &Classes) {
  std::vector<ClassFile> Parsed;
  for (const NamedClass &C : Classes) {
    auto CF = parseClassFile(C.Data);
    if (!CF)
      return Error::failure(C.Name + ": " + CF.message());
    if (auto E = prepareForPacking(*CF))
      return Error::failure(C.Name + ": " + E.message());
    Parsed.push_back(std::move(*CF));
  }
  return jazzPack(Parsed);
}
