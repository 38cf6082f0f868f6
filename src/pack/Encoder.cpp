//===- Encoder.cpp - packed archive encoder -------------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Packing is three passes. A lowering pass converts each classfile into
// the shared wire records (Transcode.h), interning every object into the
// shard's Model in traversal order — the order that fixes object ids on
// both sides. A counting pass then drives the shared Transcriber over
// the records with a counting coder to gather the reference statistics
// the transient/frequency schemes need, and the emitting pass drives the
// same Transcriber again with the real coder to write the streams. The
// two codec passes perform the identical traversal (same records, same
// transcriber), so first-occurrence structure and ids line up by
// construction.
//
//===----------------------------------------------------------------------===//

#include "analysis/ArchiveAnalysis.h"
#include "analysis/Verifier.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "pack/ArchiveFormat.h"
#include "pack/ClassOrder.h"
#include "pack/Dictionary.h"
#include "pack/Materialize.h"
#include "pack/Packer.h"
#include "pack/Preload.h"
#include "pack/Transcode.h"
#include "support/Sha1.h"
#include "support/ThreadPool.h"
#include "support/VarInt.h"
#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

using namespace cjpack;

namespace {

/// RefEncoder that only counts (the counting pass). Writes nothing.
class CountingRefEncoder final : public RefEncoder {
public:
  explicit CountingRefEncoder(RefStats &Stats) : Stats(Stats) {}

  bool encode(uint32_t Pool, uint32_t, uint32_t Object,
              ByteWriter &) override {
    Stats.note(Pool, Object);
    return Seen.insert(Pool, Object);
  }

  bool preload(uint32_t Pool, uint32_t Object) override {
    Seen.insert(Pool, Object);
    return true;
  }

private:
  RefStats &Stats;
  PoolSeenSet Seen;
};

/// Lowers classfiles into the shared wire records, interning every
/// referenced object into \p M. The intern calls happen in the same
/// preorder the Transcriber will visit the records in, so object ids
/// equal their first-occurrence order on the wire. It reads only what
/// the format carries (debug and unknown attributes are never looked
/// at), and nothing before it vets the pool, so every index it follows
/// is checked for range and kind: a bad one is Corrupt.
class Lowerer {
public:
  explicit Lowerer(Model &M) : M(M) {}

  Expected<ClassRec> lowerClass(const ClassFile &CF) {
    ClassRec R;
    R.MinorVersion = CF.MinorVersion;
    R.MajorVersion = CF.MajorVersion;

    uint32_t ClassFlags = CF.AccessFlags;
    if (CF.SuperClass != 0)
      ClassFlags |= PackedFlagAux0;
    if (findAttribute(CF.Attributes, "Synthetic"))
      ClassFlags |= PackedFlagSynthetic;
    if (findAttribute(CF.Attributes, "Deprecated"))
      ClassFlags |= PackedFlagDeprecated;
    R.Flags = ClassFlags;

    auto This = classAt(CF.CP, CF.ThisClass);
    if (!This)
      return This.takeError();
    R.ThisId = *This;
    R.HasSuper = CF.SuperClass != 0;
    if (R.HasSuper) {
      auto Super = classAt(CF.CP, CF.SuperClass);
      if (!Super)
        return Super.takeError();
      R.SuperId = *Super;
    }
    for (uint16_t Iface : CF.Interfaces) {
      auto Id = classAt(CF.CP, Iface);
      if (!Id)
        return Id.takeError();
      R.Interfaces.push_back(*Id);
    }

    for (const MemberInfo &F : CF.Fields) {
      FieldRec Rec;
      if (auto E = lowerField(CF, R.ThisId, F, Rec))
        return E;
      R.Fields.push_back(std::move(Rec));
    }
    for (const MemberInfo &Mth : CF.Methods) {
      MethodRec Rec;
      if (auto E = lowerMethod(CF, R.ThisId, Mth, Rec))
        return E;
      R.Methods.push_back(std::move(Rec));
    }
    return R;
  }

private:
  static uint32_t packedMemberFlags(const MemberInfo &MI) {
    uint32_t Flags = MI.AccessFlags;
    if (findAttribute(MI.Attributes, "Synthetic"))
      Flags |= PackedFlagSynthetic;
    if (findAttribute(MI.Attributes, "Deprecated"))
      Flags |= PackedFlagDeprecated;
    return Flags;
  }

  static Error corrupt(std::string Msg) {
    return makeError(ErrorCode::Corrupt, "pack: " + std::move(Msg));
  }

  /// Interns the class Class entry \p Index names.
  Expected<uint32_t> classAt(const ConstantPool &CP, uint16_t Index) {
    auto Name = CP.checkedClassName(Index);
    if (!Name)
      return Name.takeError();
    return M.internClassByInternalName(*Name);
  }

  /// A loadable constant (ldc operand or ConstantValue) of \p E's kind;
  /// Kind stays None for any other kind.
  Expected<CodeOperand> constantOf(const ConstantPool &CP,
                                   const CpEntry &E) {
    CodeOperand Out;
    switch (E.Tag) {
    case CpTag::Integer:
      Out.Kind = ConstKind::Int;
      Out.IntValue = static_cast<int32_t>(E.Bits);
      break;
    case CpTag::Float:
      Out.Kind = ConstKind::Float;
      Out.RawBits = E.Bits;
      break;
    case CpTag::Long:
      Out.Kind = ConstKind::Long;
      Out.RawBits = E.Bits;
      break;
    case CpTag::Double:
      Out.Kind = ConstKind::Double;
      Out.RawBits = E.Bits;
      break;
    case CpTag::String: {
      auto Text = CP.checkedUtf8(E.Ref1);
      if (!Text)
        return Text.takeError();
      Out.Kind = ConstKind::String;
      Out.Id = M.internStringConst(*Text);
      break;
    }
    default:
      break;
    }
    return Out;
  }

  Error lowerField(const ClassFile &CF, uint32_t ThisId,
                   const MemberInfo &F, FieldRec &Out) {
    const AttributeInfo *Const =
        findAttribute(F.Attributes, "ConstantValue");
    Out.Flags = packedMemberFlags(F);
    if (Const)
      Out.Flags |= PackedFlagAux0;

    auto Name = CF.CP.checkedUtf8(F.NameIndex);
    if (!Name)
      return Name.takeError();
    auto Desc = CF.CP.checkedUtf8(F.DescriptorIndex);
    if (!Desc)
      return Desc.takeError();
    auto Type = parseFieldDescriptor(*Desc);
    if (!Type)
      return Type.takeError();
    MFieldRef Ref;
    Ref.Owner = ThisId;
    Ref.Name = M.internFieldName(*Name);
    auto TypeId = M.internTypeDesc(*Type);
    if (!TypeId)
      return TypeId.takeError();
    Ref.Type = *TypeId;
    Out.RefId = M.internFieldRef(Ref);

    if (Const) {
      if (Const->Bytes.size() != 2)
        return corrupt("malformed ConstantValue");
      ByteReader CR(Const->Bytes);
      uint16_t CpIdx = CR.readU2();
      if (!CF.CP.isValidIndex(CpIdx))
        return corrupt("dangling ConstantValue index");
      auto Value = constantOf(CF.CP, CF.CP.entry(CpIdx));
      if (!Value)
        return Value.takeError();
      if (Value->Kind == ConstKind::None)
        return corrupt("unsupported ConstantValue tag");
      if (constVType(Value->Kind) != M.classRefVType(Ref.Type))
        return corrupt("ConstantValue type mismatch");
      Out.Const = *Value;
    }
    return Error::success();
  }

  Error lowerMethod(const ClassFile &CF, uint32_t ThisId,
                    const MemberInfo &Mth, MethodRec &Out) {
    const AttributeInfo *Code = findAttribute(Mth.Attributes, "Code");
    const AttributeInfo *Exceptions =
        findAttribute(Mth.Attributes, "Exceptions");
    Out.Flags = packedMemberFlags(Mth);
    if (Code)
      Out.Flags |= PackedFlagAux0;
    if (Exceptions)
      Out.Flags |= PackedFlagAux1;

    auto Name = CF.CP.checkedUtf8(Mth.NameIndex);
    if (!Name)
      return Name.takeError();
    auto Desc = CF.CP.checkedUtf8(Mth.DescriptorIndex);
    if (!Desc)
      return Desc.takeError();
    MMethodRef Ref;
    Ref.Owner = ThisId;
    Ref.Name = M.internMethodName(*Name);
    auto Sig = M.internSignature(*Desc);
    if (!Sig)
      return Sig.takeError();
    Ref.Sig = std::move(*Sig);
    Out.RefId = M.internMethodRef(Ref);

    if (Exceptions) {
      ByteReader ER(Exceptions->Bytes);
      uint16_t N = ER.readU2();
      for (uint16_t K = 0; K < N; ++K) {
        uint16_t CpIdx = ER.readU2();
        if (ER.hasError())
          return corrupt("malformed Exceptions attribute");
        auto CId = classAt(CF.CP, CpIdx);
        if (!CId)
          return CId.takeError();
        Out.Exceptions.push_back(*CId);
      }
    }

    if (Code) {
      CodeRec Rec;
      if (auto E = lowerCode(CF, *Code, Rec))
        return E;
      Out.Code = std::move(Rec);
    }
    return Error::success();
  }

  Error lowerCode(const ClassFile &CF, const AttributeInfo &Attr,
                  CodeRec &Out) {
    auto Code = parseCodeAttribute(Attr, CF.CP);
    if (!Code)
      return Code.takeError();
    auto Insns = decodeCode(Code->Code);
    if (!Insns)
      return Insns.takeError();

    Out.MaxStack = Code->MaxStack;
    Out.MaxLocals = Code->MaxLocals;
    for (const ExceptionTableEntry &E : Code->ExceptionTable) {
      CodeRec::Handler H;
      H.StartPc = E.StartPc;
      H.EndPc = E.EndPc;
      H.HandlerPc = E.HandlerPc;
      H.HasCatch = E.CatchType != 0;
      if (H.HasCatch) {
        auto CId = classAt(CF.CP, E.CatchType);
        if (!CId)
          return CId.takeError();
        H.CatchClass = *CId;
      }
      Out.Table.push_back(H);
    }

    Out.Insns = std::move(*Insns);
    Out.Operands.reserve(Out.Insns.size());
    for (Insn &I : Out.Insns) {
      auto Operand = makeOperand(CF.CP, I);
      if (!Operand)
        return Operand.takeError();
      // invokeinterface's count never travels: the decoder derives it
      // from the signature, so the record holds the derived count.
      if (I.Opcode == Op::InvokeInterface)
        I.InvokeCount = static_cast<uint8_t>(
            invokeInterfaceCount(M, M.methodRef(Operand->Id).Sig));
      Out.Operands.push_back(*Operand);
    }
    return Error::success();
  }

  /// The owner, name and descriptor of the member reference at
  /// \p Index, whose tag must be one of \p Kinds; the owner is interned.
  struct MemberParts {
    uint32_t Owner;
    std::string_view Name, Desc;
  };
  Expected<MemberParts> memberAt(const ConstantPool &CP, uint16_t Index,
                                 std::initializer_list<CpTag> Kinds) {
    const CpEntry *E = nullptr;
    for (CpTag Kind : Kinds)
      if ((E = CP.find(Index, Kind)))
        break;
    if (!E)
      return corrupt("member opcode on constant pool index " +
                     std::to_string(Index) + ", not a member reference");
    const CpEntry *NT = CP.find(E->Ref2, CpTag::NameAndType);
    if (!NT)
      return corrupt("member reference " + std::to_string(Index) +
                     " names no NameAndType entry");
    auto Owner = CP.checkedClassName(E->Ref1);
    if (!Owner)
      return Owner.takeError();
    auto Name = CP.checkedUtf8(NT->Ref1);
    if (!Name)
      return Name.takeError();
    auto Desc = CP.checkedUtf8(NT->Ref2);
    if (!Desc)
      return Desc.takeError();
    auto OwnerId = M.internClassByInternalName(*Owner);
    if (!OwnerId)
      return OwnerId.takeError();
    return MemberParts{*OwnerId, *Name, *Desc};
  }

  Expected<CodeOperand> makeOperand(const ConstantPool &CP, const Insn &I) {
    CodeOperand Out;
    switch (cpRefKind(I.Opcode)) {
    case CpRefKind::None:
      return Out;
    case CpRefKind::LoadConst:
    case CpRefKind::LoadConst2: {
      if (!CP.isValidIndex(I.CpIndex))
        return corrupt("dangling ldc operand");
      const CpEntry &E = CP.entry(I.CpIndex);
      auto Value = constantOf(CP, E);
      if (Value && Value->Kind == ConstKind::None)
        return Error::failure("pack: unsupported ldc constant kind " +
                              std::string(cpTagName(E.Tag)));
      // ldc2_w loads exactly the two-slot kinds.
      bool Wide = cpRefKind(I.Opcode) == CpRefKind::LoadConst2;
      if (Value && E.isWide() != Wide)
        return corrupt(std::string(opInfo(I.Opcode).Mnemonic) +
                       " cannot load constant kind " + cpTagName(E.Tag));
      return Value;
    }
    case CpRefKind::ClassRef: {
      auto Id = classAt(CP, I.CpIndex);
      if (!Id)
        return Id.takeError();
      Out.Kind = ConstKind::ClassTarget;
      Out.Id = *Id;
      return Out;
    }
    case CpRefKind::FieldInstance:
    case CpRefKind::FieldStatic: {
      auto Parts = memberAt(CP, I.CpIndex, {CpTag::FieldRef});
      if (!Parts)
        return Parts.takeError();
      MFieldRef Ref;
      Ref.Owner = Parts->Owner;
      Ref.Name = M.internFieldName(Parts->Name);
      auto Type = parseFieldDescriptor(Parts->Desc);
      if (!Type)
        return Type.takeError();
      auto TypeId = M.internTypeDesc(*Type);
      if (!TypeId)
        return TypeId.takeError();
      Ref.Type = *TypeId;
      Out.Kind = ConstKind::Field;
      Out.Id = M.internFieldRef(Ref);
      return Out;
    }
    case CpRefKind::MethodVirtual:
    case CpRefKind::MethodSpecial:
    case CpRefKind::MethodStatic:
    case CpRefKind::MethodInterface: {
      auto Parts = memberAt(CP, I.CpIndex,
                            {CpTag::MethodRef, CpTag::InterfaceMethodRef});
      if (!Parts)
        return Parts.takeError();
      MMethodRef Ref;
      Ref.Owner = Parts->Owner;
      Ref.Name = M.internMethodName(Parts->Name);
      auto Sig = M.internSignature(Parts->Desc);
      if (!Sig)
        return Sig.takeError();
      Ref.Sig = std::move(*Sig);
      Out.Kind = ConstKind::Method;
      Out.Id = M.internMethodRef(Ref);
      return Out;
    }
    }
    return Out;
  }

  Model &M;
};

/// RefEncoder sink for seeding a Model through the preload helpers
/// without a real coder (never asked to encode).
class NullRefEncoder final : public RefEncoder {
public:
  bool encode(uint32_t, uint32_t, uint32_t, ByteWriter &) override {
    assert(false && "null encoder only preloads");
    return false;
  }
  bool preload(uint32_t, uint32_t) override { return true; }
};

/// The counting pass's outputs: the shard's interned model, its classes
/// lowered to wire records, and the reference statistics the
/// transient/frequency schemes need.
struct ShardPlan {
  Model M;
  RefStats Stats;
  std::vector<ClassRec> Recs;
};

/// Pass one over \p Ordered: lowers every class (interning every
/// object) and drives the counting coder over the records.
Expected<ShardPlan>
countShardPass(const std::vector<const ClassFile *> &Ordered,
               const PackOptions &Options) {
  ShardPlan Plan;
  CountingRefEncoder Counting(Plan.Stats);
  if (Options.PreloadStandardRefs)
    preloadStandardRefs(Plan.M, Counting, Options.Scheme);
  Lowerer Low(Plan.M);
  Plan.Recs.reserve(Ordered.size());
  for (const ClassFile *CF : Ordered) {
    auto R = Low.lowerClass(*CF);
    if (!R)
      return R.takeError();
    Plan.Recs.push_back(std::move(*R));
  }
  StreamSet Scratch;
  EncodeContext C{Plan.M, Counting, Scratch, Options.Scheme,
                  Options.CollapseOpcodes};
  Transcriber<EncodeContext> Pass1(C);
  if (auto E = Pass1.transcodeArchive(Plan.Recs))
    return E;
  return Plan;
}

/// Pass two over \p Plan's records with the model and stats from the
/// counting pass: emits the streams. \p Dict, when non-null, is
/// replayed into the coder after the standard preload, exactly as the
/// decoder will. \p Items and \p Tally, when non-null, receive the
/// per-stream item counts and per-pool coder tallies (observational).
Expected<StreamSet>
emitShardStreams(ShardPlan &Plan, const SharedDictionary *Dict,
                 const PackOptions &Options,
                 std::array<uint64_t, NumStreams> *Items,
                 CoderTally *Tally) {
  auto Enc = makeRefEncoder(Options.Scheme, &Plan.Stats);
  if (Options.PreloadStandardRefs &&
      !preloadStandardRefs(Plan.M, *Enc, Options.Scheme))
    return Error::failure("pack: the " +
                          std::string(refSchemeName(Options.Scheme)) +
                          " scheme does not support preloaded "
                          "references");
  if (Dict && !preloadDictionary(Plan.M, *Enc, *Dict))
    return Error::failure("pack: the " +
                          std::string(refSchemeName(Options.Scheme)) +
                          " scheme does not support the shard "
                          "dictionary");
  Enc->setTally(Tally);
  StreamSet S;
  EncodeContext C{Plan.M, *Enc, S, Options.Scheme,
                  Options.CollapseOpcodes, Items};
  Transcriber<EncodeContext> Pass2(C);
  if (auto E = Pass2.transcodeArchive(Plan.Recs))
    return E;
  return S;
}

/// Rebuilds a counting-pass plan in the id space the emitting pass will
/// use once \p Dict is seeded first: a fresh model interning the
/// standard preloads, then the dictionary, then the shard's objects in
/// their original first-occurrence order (so ids match the decoder's
/// append order for non-preloaded objects), plus the shard's records
/// and reference stats translated into the new ids.
ShardPlan remapPlanForDictionary(ShardPlan Plan,
                                 const SharedDictionary &Dict,
                                 const PackOptions &Options) {
  ShardPlan Out;
  Model &M2 = Out.M;
  {
    NullRefEncoder Null;
    if (Options.PreloadStandardRefs)
      preloadStandardRefs(M2, Null, Options.Scheme);
    preloadDictionary(M2, Null, Dict);
  }

  const Model &MA = Plan.M;
  std::vector<uint32_t> PkgMap(MA.packageCount()),
      SimpMap(MA.simpleNameCount()), FldMap(MA.fieldNameCount()),
      MthMap(MA.methodNameCount()), StrMap(MA.stringConstCount()),
      CMap(MA.classRefCount()), FMap(MA.fieldRefCount()),
      MMap(MA.methodRefCount());
  for (uint32_t I = 0; I < PkgMap.size(); ++I)
    PkgMap[I] = M2.internPackage(MA.package(I));
  for (uint32_t I = 0; I < SimpMap.size(); ++I)
    SimpMap[I] = M2.internSimpleName(MA.simpleName(I));
  for (uint32_t I = 0; I < FldMap.size(); ++I)
    FldMap[I] = M2.internFieldName(MA.fieldName(I));
  for (uint32_t I = 0; I < MthMap.size(); ++I)
    MthMap[I] = M2.internMethodName(MA.methodName(I));
  for (uint32_t I = 0; I < StrMap.size(); ++I)
    StrMap[I] = M2.internStringConst(MA.stringConst(I));
  for (uint32_t I = 0; I < CMap.size(); ++I) {
    MClassRef R = MA.classRef(I);
    if (R.Base == 'L') {
      R.Package = PkgMap[R.Package];
      R.Simple = SimpMap[R.Simple];
    }
    CMap[I] = M2.internClassRef(R);
  }
  for (uint32_t I = 0; I < FMap.size(); ++I) {
    MFieldRef R = MA.fieldRef(I);
    R.Owner = CMap[R.Owner];
    R.Name = FldMap[R.Name];
    R.Type = CMap[R.Type];
    FMap[I] = M2.internFieldRef(R);
  }
  for (uint32_t I = 0; I < MMap.size(); ++I) {
    MMethodRef R = MA.methodRef(I);
    R.Owner = CMap[R.Owner];
    R.Name = MthMap[R.Name];
    for (uint32_t &C : R.Sig)
      C = CMap[C];
    MMap[I] = M2.internMethodRef(R);
  }

  Plan.Stats.forEachCount([&](uint32_t Pool, uint32_t Object,
                              uint32_t Count) {
    switch (static_cast<PoolKind>(Pool)) {
    case PoolKind::Package:
      Object = PkgMap[Object];
      break;
    case PoolKind::SimpleName:
      Object = SimpMap[Object];
      break;
    case PoolKind::ClassRefPool:
      Object = CMap[Object];
      break;
    case PoolKind::FieldName:
      Object = FldMap[Object];
      break;
    case PoolKind::MethodName:
      Object = MthMap[Object];
      break;
    case PoolKind::StringConst:
      Object = StrMap[Object];
      break;
    case PoolKind::FieldInstance:
    case PoolKind::FieldStatic:
      Object = FMap[Object];
      break;
    case PoolKind::MethodVirtual:
    case PoolKind::MethodSpecial:
    case PoolKind::MethodStatic:
    case PoolKind::MethodInterface:
      Object = MMap[Object];
      break;
    }
    Out.Stats.add(Pool, Object, Count);
  });

  // Translate the lowered records through the same maps. Every id in a
  // record was interned into Plan.M, and every Plan.M entry is mapped,
  // so this is equivalent to re-lowering against M2 — without touching
  // the classfiles again.
  Out.Recs = std::move(Plan.Recs);
  for (ClassRec &R : Out.Recs) {
    R.ThisId = CMap[R.ThisId];
    if (R.HasSuper)
      R.SuperId = CMap[R.SuperId];
    for (uint32_t &Id : R.Interfaces)
      Id = CMap[Id];
    for (FieldRec &F : R.Fields) {
      F.RefId = FMap[F.RefId];
      if (F.Const.Kind == ConstKind::String)
        F.Const.Id = StrMap[F.Const.Id];
    }
    for (MethodRec &Mth : R.Methods) {
      Mth.RefId = MMap[Mth.RefId];
      for (uint32_t &Id : Mth.Exceptions)
        Id = CMap[Id];
      if (!Mth.Code)
        continue;
      for (CodeRec::Handler &H : Mth.Code->Table)
        if (H.HasCatch)
          H.CatchClass = CMap[H.CatchClass];
      for (CodeOperand &Operand : Mth.Code->Operands) {
        switch (Operand.Kind) {
        case ConstKind::String:
          Operand.Id = StrMap[Operand.Id];
          break;
        case ConstKind::ClassTarget:
          Operand.Id = CMap[Operand.Id];
          break;
        case ConstKind::Field:
          Operand.Id = FMap[Operand.Id];
          break;
        case ConstKind::Method:
          Operand.Id = MMap[Operand.Id];
          break;
        default:
          break;
        }
      }
    }
  }
  return Out;
}

/// Workers for a pool whose widest phase has \p Tasks independent
/// tasks, given \p Threads (0 = one per hardware thread).
unsigned workerCount(unsigned Threads, size_t Tasks) {
  size_t Want = Threads ? Threads : ThreadPool::defaultThreadCount();
  return static_cast<unsigned>(std::min(Want, std::max<size_t>(Tasks, 1)));
}

/// The archive header \p Options describe, for format \p Version.
ArchiveHeader archiveHeader(uint8_t Version, const PackOptions &Options) {
  // The whole-archive backend choice; zlib (the default) maps to 0,
  // keeping historical archives bit-identical.
  uint8_t Backend = 0;
  if (Options.CompressStreams)
    Backend = Options.StreamBackends ? ArchiveBackendMixed
                                     : archiveBackendCode(Options.Backend);
  return {.Version = Version,
          .Scheme = Options.Scheme,
          .CollapseOpcodes = Options.CollapseOpcodes,
          .CompressStreams = Options.CompressStreams,
          .PreloadStandardRefs = Options.PreloadStandardRefs,
          .BackendCode = Backend};
}

} // namespace

size_t cjpack::autoShardCount(size_t ClassCount) {
  // Serial floor: below two shards' worth of classes the sharded
  // container's dictionary and per-shard stream headers cost more than
  // the parallelism buys, so stay on the single-shard format.
  if (ClassCount < 2 * AutoShardClassesPerShard)
    return 1;
  size_t ByWork = ClassCount / AutoShardClassesPerShard;
  size_t Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  return std::min({ByWork, Hw, MaxShards});
}

Expected<PackResult>
cjpack::packClasses(const std::vector<ClassFile> &Classes,
                    const PackOptions &Options) {
  std::vector<const ClassFile *> Ordered;
  if (Options.OrderForEagerLoading) {
    for (size_t I : eagerLoadOrder(Classes))
      Ordered.push_back(&Classes[I]);
  } else {
    for (const ClassFile &CF : Classes)
      Ordered.push_back(&CF);
  }

  // Shard assignment is by stable class order: contiguous, balanced
  // slices of the ordered list. Never let scheduling pick — the archive
  // must be a pure function of (input, options, shard count); Shards=0
  // delegates the count to the autotuner.
  size_t ShardCount =
      Options.Shards == 0 ? autoShardCount(Ordered.size()) : Options.Shards;
  ShardCount = std::min(ShardCount, std::max<size_t>(Ordered.size(), 1));
  ShardCount = std::min(ShardCount, MaxShards);

  PackResult Result;
  Result.ClassCount = Classes.size();

  // The random-access index addresses classes by internal name, so a
  // v3 archive cannot hold two classes with the same name. (v1/v2
  // archives can — they are positional — so this is checked only here.)
  std::vector<std::string_view> IndexNames;
  if (Options.RandomAccessIndex) {
    std::set<std::string_view> Seen;
    for (const ClassFile *CF : Ordered) {
      auto Name = CF->CP.checkedClassName(CF->ThisClass);
      if (!Name)
        return Name.takeError();
      if (!Seen.insert(*Name).second)
        return Error::failure("pack: duplicate class name '" +
                              std::string(*Name) +
                              "' not representable in an indexed archive");
      IndexNames.push_back(*Name);
    }
  }

  std::vector<std::vector<const ClassFile *>> Slices(ShardCount);
  size_t Base = Ordered.size() / ShardCount;
  size_t Extra = Ordered.size() % ShardCount;
  size_t Next = 0;
  for (size_t K = 0; K < ShardCount; ++K) {
    size_t Len = Base + (K < Extra ? 1 : 0);
    Slices[K].assign(Ordered.begin() + Next, Ordered.begin() + Next + Len);
    Next += Len;
  }

  // Everything the pool tasks capture must be declared before the pool:
  // on an early error return the pool is destroyed first, and its
  // destructor drains still-queued tasks (a packaged_task future does
  // not block on destruction), so those tasks must find this state
  // alive. Telemetry slots are per-shard (each task writes only its own
  // index) and rolled up after the joins, so tracing adds no sharing.
  std::vector<ShardPlan> Plans;
  Plans.reserve(ShardCount);
  std::vector<ShardPlan> Emit(ShardCount);
  SharedDictionary Dict;
  std::vector<std::array<uint64_t, NumStreams>> ShardItems(ShardCount);
  std::vector<CoderTally> ShardTallies(ShardCount);
  Result.Trace.Shards.resize(ShardCount);
  for (size_t K = 0; K < ShardCount; ++K) {
    Result.Trace.Shards[K].Shard = K;
    Result.Trace.Shards[K].Classes = Slices[K].size();
  }

  // No more workers than the widest phase has tasks: one per shard in
  // the codec passes, one per stream (per shard, for version 3) in the
  // compression batch.
  size_t StreamTasks =
      NumStreams * (Options.RandomAccessIndex ? ShardCount : 1);
  ThreadPool Pool(
      workerCount(Options.Threads, std::max(ShardCount, StreamTasks)));

  // Counting passes run one per shard, concurrently.
  Stopwatch ModelTimer;
  std::vector<std::future<Expected<ShardPlan>>> PlanFutures;
  PlanFutures.reserve(ShardCount);
  for (size_t K = 0; K < ShardCount; ++K)
    PlanFutures.push_back(Pool.submit([&Slices, &Options, &Result, K] {
      Stopwatch ShardTimer;
      auto Plan = countShardPass(Slices[K], Options);
      Result.Trace.Shards[K].ModelSec = ShardTimer.seconds();
      return Plan;
    }));
  for (auto &F : PlanFutures) {
    auto Plan = F.get();
    if (!Plan)
      return Plan.takeError();
    Plans.push_back(std::move(*Plan));
  }

  // Factor definitions shared by two or more shards into the
  // dictionary, so shards reference them instead of redefining them.
  // Schemes that cannot preload keep fully independent shards.
  if (refSchemeSupportsPreload(Options.Scheme)) {
    Model Standard;
    if (Options.PreloadStandardRefs) {
      NullRefEncoder Null;
      preloadStandardRefs(Standard, Null, Options.Scheme);
    }
    std::vector<const Model *> ShardModels;
    ShardModels.reserve(ShardCount);
    for (const ShardPlan &Plan : Plans)
      ShardModels.push_back(&Plan.M);
    Dict = buildSharedDictionary(
        ShardModels, Options.PreloadStandardRefs ? &Standard : nullptr);
  }
  Result.DictionaryEntries = Dict.entryCount();
  Result.Trace.Phases.ModelSec = ModelTimer.seconds();

  // Emitting passes, again one per shard, on models rebuilt around the
  // dictionary's id space.
  Stopwatch EmitTimer;
  std::vector<std::future<Expected<StreamSet>>> Futures;
  Futures.reserve(ShardCount);
  for (size_t K = 0; K < ShardCount; ++K)
    Futures.push_back(Pool.submit([&Plans, &Emit, &Dict, &Options, &Result,
                                   &ShardItems, &ShardTallies, K] {
      Stopwatch ShardTimer;
      Emit[K] = Dict.empty()
                    ? std::move(Plans[K])
                    : remapPlanForDictionary(std::move(Plans[K]), Dict,
                                             Options);
      auto S = emitShardStreams(Emit[K], Dict.empty() ? nullptr : &Dict,
                                Options, &ShardItems[K], &ShardTallies[K]);
      Result.Trace.Shards[K].EmitSec = ShardTimer.seconds();
      return S;
    }));

  std::vector<StreamSet> ShardStreams;
  ShardStreams.reserve(ShardCount);
  for (auto &F : Futures) {
    auto S = F.get();
    if (!S)
      return S.takeError();
    ShardStreams.push_back(std::move(*S));
  }
  Result.Trace.Phases.EmitSec = EmitTimer.seconds();

  // Only now does the format version matter: every version shares the
  // pipeline above and differs in how the shard streams are framed.
  Stopwatch DeflateTimer;
  uint8_t Version = Options.RandomAccessIndex ? FormatVersionIndexed
                    : ShardCount == 1         ? FormatVersionSerial
                                              : FormatVersionSharded;
  ByteWriter W;
  writeArchiveHeader(W, archiveHeader(Version, Options));
  // Versions 2 and 3 carry the dictionary frame. Its body deflates as one
  // more task of the stream batch.
  std::vector<uint8_t> DictBody = Dict.frameBody();
  BatchExtra DictJob{DictBody, &SharedDictionary::deflateFrame, {}};
  BatchExtra *DictTask = Options.CompressStreams ? &DictJob : nullptr;
  auto WriteDictionary = [&] {
    size_t DictStart = W.size();
    SharedDictionary::writeFrame(W, DictBody, DictJob.Out);
    Result.DictionaryBytes = W.size() - DictStart;
  };
  if (Version == FormatVersionIndexed) {
    // Version 3: header, per-class index, dictionary frame, then each
    // shard's streams serialized as an independent self-contained blob
    // (the v1 stream body), so a reader can inflate one shard without
    // touching the others. Per-blob compression costs a little ratio
    // versus v2's joint per-stream compression — that is the price of
    // random access.
    std::vector<std::vector<uint8_t>> Blobs =
        serializeStreamSets(ShardStreams, Options.backendPlan(),
                            &Result.Sizes, &Pool, DictTask);
    ArchiveIndex Index;
    uint64_t Offset = 0;
    auto Name = IndexNames.begin(); // the slices tile Ordered in order
    for (size_t K = 0; K < ShardCount; ++K) {
      Index.Shards.push_back({Offset, Blobs[K].size()});
      Offset += Blobs[K].size();
      for (size_t I = 0; I < Slices[K].size(); ++I)
        Index.Classes.push_back({std::string(*Name++),
                                 static_cast<uint32_t>(K),
                                 static_cast<uint32_t>(I)});
    }
    std::vector<uint8_t> IndexBytes = Index.serialize();
    size_t IndexStart = W.size();
    writeVarUInt(W, IndexBytes.size());
    W.writeBytes(IndexBytes);
    Result.IndexBytes = W.size() - IndexStart;
    WriteDictionary();
    for (const std::vector<uint8_t> &B : Blobs)
      W.writeBytes(B);
  } else if (Version == FormatVersionSharded) {
    std::vector<uint8_t> Container = serializeShardedStreams(
        ShardStreams, Options.backendPlan(), &Result.Sizes, &Pool, DictTask);
    WriteDictionary();
    W.writeBytes(Container);
  } else {
    // Version 1: the lone shard's streams, with no dictionary frame —
    // one shard shares definitions with nobody.
    assert(Dict.empty() && "a single shard has no shared dictionary");
    W.writeBytes(ShardStreams[0].serialize(Options.backendPlan(),
                                           &Result.Sizes, &Pool));
  }
  Result.Archive = W.take();
  Result.Trace.Phases.DeflateSec = DeflateTimer.seconds();
  for (size_t K = 0; K < ShardCount; ++K) {
    for (unsigned I = 0; I < NumStreams; ++I)
      Result.Sizes.Items[I] += ShardItems[K][I];
    Result.Trace.Coder.add(ShardTallies[K]);
  }
  return Result;
}

namespace {

/// Parses each of \p Classes into the same slot of \p Parsed, and
/// prepares it when \p Prepare, on the calling thread and up to
/// \p Threads - 1 pool workers (0 = one per hardware thread); one thread
/// runs inline and creates no pool. Classes parse independently; the
/// error returned is the first failing class's in input order, whatever
/// the thread count.
Error parseForPacking(const std::vector<NamedClass> &Classes,
                      std::vector<ClassFile> &Parsed, unsigned Threads,
                      bool Prepare) {
  std::vector<Error> Failed(Classes.size());
  std::atomic<size_t> Next{0};
  auto Drain = [&Classes, &Parsed, &Failed, &Next, Prepare] {
    for (size_t I; (I = Next.fetch_add(1)) < Classes.size();) {
      const NamedClass &C = Classes[I];
      auto CF = parseClassFile(C.Data);
      if (!CF)
        Failed[I] = Error::failure(CF.code(), C.Name + ": " + CF.message());
      else if (Error E = Prepare ? prepareForPacking(*CF) : Error())
        Failed[I] = Error::failure(E.code(), C.Name + ": " + E.message());
      else
        Parsed[I] = std::move(*CF);
    }
  };
  unsigned Workers = workerCount(Threads, Classes.size());
  if (Workers <= 1) {
    Drain();
  } else {
    ThreadPool Pool(Workers - 1);
    std::vector<std::future<void>> Done;
    Done.reserve(Workers - 1);
    for (unsigned I = 1; I < Workers; ++I)
      Done.push_back(Pool.submit(Drain));
    Drain();
    for (std::future<void> &F : Done)
      F.get();
  }
  for (Error &E : Failed)
    if (E)
      return E;
  return Error::success();
}

/// The StripUnreferenced gate: the packed archive must restore exactly
/// the stripped classes (order-independent byte comparison, since
/// packing may reorder) and stripping must not have introduced verifier
/// diagnostics beyond \p BaselineDiags.
Error verifyStrippedArchive(const std::vector<ClassFile> &Stripped,
                            const std::vector<uint8_t> &Archive,
                            unsigned Threads, size_t BaselineDiags) {
  auto Restored = unpackClasses(Archive, Threads);
  if (!Restored)
    return Error::failure("strip-unreferenced gate: archive does not "
                          "restore: " +
                          Restored.message());
  if (Restored->size() != Stripped.size())
    return Error::failure("strip-unreferenced gate: restored " +
                          std::to_string(Restored->size()) + " classes, "
                          "expected " +
                          std::to_string(Stripped.size()));
  std::vector<std::array<uint8_t, 20>> Want, Got;
  Want.reserve(Stripped.size());
  Got.reserve(Stripped.size());
  for (const ClassFile &CF : Stripped)
    Want.push_back(sha1Of(writeClassFile(CF)));
  size_t RestoredDiags = 0;
  for (const ClassFile &CF : *Restored) {
    Got.push_back(sha1Of(writeClassFile(CF)));
    RestoredDiags += analysis::verifyClass(CF).Diags.size();
  }
  std::sort(Want.begin(), Want.end());
  std::sort(Got.begin(), Got.end());
  if (Want != Got)
    return Error::failure("strip-unreferenced gate: restored classes "
                          "differ from the stripped input");
  if (RestoredDiags > BaselineDiags)
    return Error::failure("strip-unreferenced gate: stripping introduced " +
                          std::to_string(RestoredDiags - BaselineDiags) +
                          " verifier diagnostics");
  return Error::success();
}

} // namespace

Expected<PackResult>
cjpack::packClassBytes(const std::vector<NamedClass> &Classes,
                       const PackOptions &Options) {
  // A plain pack lowers each parse as it is. StripUnreferenced analyses,
  // strips and gates prepared classes, and prepares them again after
  // the strip so the members' pool entries leave too.
  Stopwatch ParseTimer;
  std::vector<ClassFile> Parsed(Classes.size());
  if (auto E = parseForPacking(Classes, Parsed, Options.Threads,
                               Options.StripUnreferenced))
    return E;
  analysis::StripStats Strip;
  size_t BaselineDiags = 0;
  if (Options.StripUnreferenced) {
    for (const ClassFile &CF : Parsed)
      BaselineDiags += analysis::verifyClass(CF).Diags.size();
    Strip = analysis::stripUnreferencedMembers(Parsed);
    for (ClassFile &CF : Parsed)
      if (auto E = prepareForPacking(CF))
        return E;
  }
  double ParseSec = ParseTimer.seconds();
  auto Result = packClasses(Parsed, Options);
  if (Result && Options.StripUnreferenced) {
    if (auto E = verifyStrippedArchive(Parsed, Result->Archive,
                                       Options.Threads, BaselineDiags))
      return E;
    Result->StrippedFields = Strip.FieldsRemoved;
    Result->StrippedMethods = Strip.MethodsRemoved;
  }
  if (Result)
    Result->Trace.Phases.ParseSec = ParseSec;
  return Result;
}

Error cjpack::prepareForPacking(ClassFile &CF) {
  Model M;
  auto Rec = Lowerer(M).lowerClass(CF);
  if (!Rec)
    return Rec.takeError();
  auto Canonical = materializeClass(M, *Rec);
  if (!Canonical)
    return Canonical.takeError();
  CF = std::move(*Canonical);
  return Error::success();
}
