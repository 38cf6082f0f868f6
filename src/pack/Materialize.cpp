//===- Materialize.cpp - class records back to classfiles -----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Materialize.h"
#include "classfile/CanonicalPool.h"
#include "pack/Transcode.h"

using namespace cjpack;

namespace {

using Ref = CanonicalPoolBuilder::Ref;

/// \name Names rendered into reused buffers
/// Spelled exactly as Model::classRefInternalName, printTypeDesc of
/// Model::classRefTypeDesc and Model::signatureDescriptor spell them,
/// without a string per call. The builder copies new text out, so a
/// buffer may be reused as soon as the add returns.
/// @{
void appendClassName(const Model &M, std::string &Out, const MClassRef &R) {
  const std::string &Pkg = M.package(R.Package);
  if (!Pkg.empty()) {
    Out += Pkg;
    Out += '/';
  }
  Out += M.simpleName(R.Simple);
}

void appendTypeDesc(const Model &M, std::string &Out, uint32_t Id) {
  const MClassRef &R = M.classRef(Id);
  Out.append(R.Dims, '[');
  if (R.Base != 'L') {
    Out += R.Base;
    return;
  }
  Out += 'L';
  appendClassName(M, Out, R);
  Out += ';';
}

std::string_view internalName(const Model &M, std::string &Buf,
                              uint32_t Id) {
  Buf.clear();
  const MClassRef &R = M.classRef(Id);
  if (R.Dims == 0 && R.Base == 'L')
    appendClassName(M, Buf, R);
  else
    appendTypeDesc(M, Buf, Id);
  return Buf;
}

std::string_view fieldDesc(const Model &M, std::string &Buf, uint32_t Id) {
  Buf.clear();
  appendTypeDesc(M, Buf, Id);
  return Buf;
}

std::string_view methodDesc(const Model &M, std::string &Buf,
                            const std::vector<uint32_t> &Sig) {
  assert(!Sig.empty() && "signature must contain a return type");
  Buf.assign(1, '(');
  for (size_t K = 1; K < Sig.size(); ++K)
    appendTypeDesc(M, Buf, Sig[K]);
  Buf += ')';
  appendTypeDesc(M, Buf, Sig[0]);
  return Buf;
}
/// @}

/// Builds one class in two walks over its record. collect() adds every
/// entry the class references to the canonical pool builder and keeps
/// the handles in the order write() uses them; after the pool is
/// finished, write() fills the members, attributes and code with the
/// final indices. The two walks must visit the handles in the same
/// order.
class Materializer {
public:
  Materializer(const Model &M, const ClassRec &Rec)
      : M(M), Rec(Rec), Pool(std::make_shared<Arena>()) {}

  Expected<ClassFile> run() {
    CF.MinorVersion = static_cast<uint16_t>(Rec.MinorVersion);
    CF.MajorVersion = static_cast<uint16_t>(Rec.MajorVersion);
    CF.AccessFlags = static_cast<uint16_t>(Rec.Flags & 0xFFFF);
    if (auto E = collect())
      return E;
    if (auto E = Pool.finish(CF.CP))
      return E;
    if (auto E = write())
      return E;
    return std::move(CF);
  }

private:
  Ref classRef(uint32_t Id) {
    return Pool.classRef(internalName(M, Owner, Id));
  }

  /// The entry a code operand names (Null for none).
  Ref operand(const CodeOperand &C, Op Opcode) {
    switch (C.Kind) {
    case ConstKind::None:
      return CanonicalPoolBuilder::Null;
    case ConstKind::Int:
      return Pool.constant(CpTag::Integer,
                           static_cast<uint32_t>(C.IntValue));
    case ConstKind::Float:
      return Pool.constant(CpTag::Float, static_cast<uint32_t>(C.RawBits));
    case ConstKind::Long:
      return Pool.constant(CpTag::Long, C.RawBits);
    case ConstKind::Double:
      return Pool.constant(CpTag::Double, C.RawBits);
    case ConstKind::String:
      return Pool.string(M.stringConst(C.Id));
    case ConstKind::ClassTarget:
      return classRef(C.Id);
    case ConstKind::Field: {
      const MFieldRef &R = M.fieldRef(C.Id);
      return Pool.memberRef(CpTag::FieldRef, internalName(M, Owner, R.Owner),
                            M.fieldName(R.Name), fieldDesc(M, Desc, R.Type));
    }
    case ConstKind::Method: {
      const MMethodRef &R = M.methodRef(C.Id);
      return Pool.memberRef(Opcode == Op::InvokeInterface
                                ? CpTag::InterfaceMethodRef
                                : CpTag::MethodRef,
                            internalName(M, Owner, R.Owner),
                            M.methodName(R.Name), methodDesc(M, Desc, R.Sig));
    }
    }
    return CanonicalPoolBuilder::Null;
  }

  /// Whether instruction \p I writes a constant-pool operand from \p C.
  static bool takesOperand(const Insn &I, const CodeOperand &C) {
    return I.hasCpOperand() && C.Kind != ConstKind::None;
  }

  void addMarkerNames(uint32_t Flags) {
    if (Flags & PackedFlagSynthetic)
      Pool.utf8("Synthetic");
    if (Flags & PackedFlagDeprecated)
      Pool.utf8("Deprecated");
  }

  Error collect() {
    Refs.push_back(classRef(Rec.ThisId));
    if (Rec.HasSuper)
      Refs.push_back(classRef(Rec.SuperId));
    for (uint32_t Iface : Rec.Interfaces)
      Refs.push_back(classRef(Iface));
    addMarkerNames(Rec.Flags);

    for (const FieldRec &F : Rec.Fields) {
      const MFieldRef &R = M.fieldRef(F.RefId);
      Refs.push_back(Pool.utf8(M.fieldName(R.Name)));
      Refs.push_back(Pool.utf8(fieldDesc(M, Desc, R.Type)));
      if (F.Flags & PackedFlagAux0) {
        if (constVType(F.Const.Kind) == VType::Unknown)
          return makeError(ErrorCode::Corrupt,
                           "unpack: field constant is not a loadable "
                           "constant");
        Refs.push_back(operand(F.Const, Op::Nop));
        Pool.utf8("ConstantValue");
      }
      addMarkerNames(F.Flags);
    }

    for (const MethodRec &DM : Rec.Methods) {
      const MMethodRef &R = M.methodRef(DM.RefId);
      Refs.push_back(Pool.utf8(M.methodName(R.Name)));
      Refs.push_back(Pool.utf8(methodDesc(M, Desc, R.Sig)));
      if (DM.Code) {
        Pool.utf8("Code");
        const CodeRec &Code = *DM.Code;
        for (size_t K = 0; K < Code.Insns.size(); ++K) {
          const Insn &I = Code.Insns[K];
          if (!takesOperand(I, Code.Operands[K]))
            continue;
          Ref Operand = operand(Code.Operands[K], I.Opcode);
          if (I.Opcode == Op::Ldc)
            Pool.markLdc(Operand);
          Refs.push_back(Operand);
        }
        for (const CodeRec::Handler &H : Code.Table)
          if (H.HasCatch)
            Refs.push_back(classRef(H.CatchClass));
      }
      if (DM.Flags & PackedFlagAux1) {
        Pool.utf8("Exceptions");
        for (uint32_t C : DM.Exceptions)
          Refs.push_back(classRef(C));
      }
      addMarkerNames(DM.Flags);
    }
    return Error::success();
  }

  uint16_t next() { return Pool.index(Refs[Used++]); }

  void addMarkers(std::vector<AttributeInfo> &Attrs, uint32_t Flags) {
    if (Flags & PackedFlagSynthetic)
      Attrs.push_back({"Synthetic", {}});
    if (Flags & PackedFlagDeprecated)
      Attrs.push_back({"Deprecated", {}});
  }

  Error write() {
    CF.ThisClass = next();
    CF.SuperClass = Rec.HasSuper ? next() : 0;
    for (size_t K = 0; K < Rec.Interfaces.size(); ++K)
      CF.Interfaces.push_back(next());
    addMarkers(CF.Attributes, Rec.Flags);

    CF.Fields.reserve(Rec.Fields.size());
    for (const FieldRec &F : Rec.Fields) {
      MemberInfo &MI = CF.Fields.emplace_back();
      MI.AccessFlags = static_cast<uint16_t>(F.Flags & 0xFFFF);
      MI.NameIndex = next();
      MI.DescriptorIndex = next();
      if (F.Flags & PackedFlagAux0) {
        ByteWriter W;
        W.writeU2(next());
        MI.Attributes.push_back({"ConstantValue", CF.arena().copy(W.data())});
      }
      addMarkers(MI.Attributes, F.Flags);
    }

    CF.Methods.reserve(Rec.Methods.size());
    for (const MethodRec &DM : Rec.Methods) {
      MemberInfo &MI = CF.Methods.emplace_back();
      MI.AccessFlags = static_cast<uint16_t>(DM.Flags & 0xFFFF);
      MI.NameIndex = next();
      MI.DescriptorIndex = next();
      if (DM.Code) {
        auto Attr = writeCode(*DM.Code);
        if (!Attr)
          return Attr.takeError();
        MI.Attributes.push_back(*Attr);
      }
      if (DM.Flags & PackedFlagAux1) {
        ByteWriter W;
        W.writeU2(static_cast<uint16_t>(DM.Exceptions.size()));
        for (size_t K = 0; K < DM.Exceptions.size(); ++K)
          W.writeU2(next());
        MI.Attributes.push_back({"Exceptions", CF.arena().copy(W.data())});
      }
      addMarkers(MI.Attributes, DM.Flags);
    }
    return Error::success();
  }

  Expected<AttributeInfo> writeCode(const CodeRec &Code) {
    CpIndex.assign(Code.Insns.size(), 0);
    for (size_t K = 0; K < Code.Insns.size(); ++K)
      if (takesOperand(Code.Insns[K], Code.Operands[K]))
        CpIndex[K] = next();
    auto Bytes = encodeCode(Code.Insns, CpIndex);
    if (!Bytes)
      return Bytes.takeError();

    CodeAttribute Attr;
    Attr.MaxStack = static_cast<uint16_t>(Code.MaxStack);
    Attr.MaxLocals = static_cast<uint16_t>(Code.MaxLocals);
    Attr.Code = *Bytes;
    Attr.ExceptionTable.reserve(Code.Table.size());
    for (const CodeRec::Handler &H : Code.Table) {
      ExceptionTableEntry T;
      T.StartPc = static_cast<uint16_t>(H.StartPc);
      T.EndPc = static_cast<uint16_t>(H.EndPc);
      T.HandlerPc = static_cast<uint16_t>(H.HandlerPc);
      T.CatchType = H.HasCatch ? next() : 0;
      Attr.ExceptionTable.push_back(T);
    }
    return encodeCodeAttribute(Attr, CF.CP);
  }

  const Model &M;
  const ClassRec &Rec;
  ClassFile CF;
  CanonicalPoolBuilder Pool;
  /// Scratch for rendered owner names and descriptors.
  std::string Owner, Desc;
  /// Handles in the order write() turns them into indices.
  std::vector<Ref> Refs;
  size_t Used = 0;
  /// Final cp operand of each instruction of the method being written.
  std::vector<uint16_t> CpIndex;
};

} // namespace

Expected<ClassFile> cjpack::materializeClass(const Model &M,
                                             const ClassRec &Rec) {
  return Materializer(M, Rec).run();
}
