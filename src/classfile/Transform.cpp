//===- Transform.cpp - Classfile preprocessing (§2, §9) -------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Transform.h"
#include "bytecode/Instruction.h"
#include "classfile/CanonicalPool.h"
#include "support/ByteBuffer.h"

using namespace cjpack;

bool cjpack::isRecognizedAttribute(std::string_view Name) {
  return Name == "Code" || Name == "ConstantValue" || Name == "Exceptions" ||
         Name == "Synthetic" || Name == "Deprecated";
}

static bool isDebugAttribute(std::string_view Name) {
  return Name == "LineNumberTable" || Name == "LocalVariableTable" ||
         Name == "SourceFile";
}

static void filterAttributes(std::vector<AttributeInfo> &Attrs,
                             bool DropUnrecognized) {
  std::erase_if(Attrs, [&](const AttributeInfo &A) {
    if (isDebugAttribute(A.Name))
      return true;
    return DropUnrecognized && !isRecognizedAttribute(A.Name);
  });
}

void cjpack::stripDebugInfo(ClassFile &CF, bool DropUnrecognized) {
  filterAttributes(CF.Attributes, DropUnrecognized);
  for (MemberInfo &F : CF.Fields)
    filterAttributes(F.Attributes, DropUnrecognized);
  for (MemberInfo &M : CF.Methods) {
    filterAttributes(M.Attributes, DropUnrecognized);
    for (AttributeInfo &A : M.Attributes) {
      if (A.Name != "Code")
        continue;
      // Rewrite the Code attribute with all nested attributes removed.
      auto Code = parseCodeAttribute(A, CF.CP);
      if (!Code)
        continue; // malformed code is caught later by canonicalize
      Code->Attributes.clear();
      A = encodeCodeAttribute(*Code, CF.CP);
    }
  }
}

namespace {

/// One method's decoded Code attribute, kept so bytecode constant-pool
/// operands can be renumbered and the attribute re-encoded.
struct DecodedMethod {
  MemberInfo *Member = nullptr;
  AttributeInfo *Attr = nullptr;
  CodeAttribute Code;
  std::vector<Insn> Insns;
};

/// Per-index flags over the old pool.
enum : uint8_t {
  Reached = 1,    ///< reachable from the class structure
  LdcOperand = 2, ///< operand of a one-byte ldc
};

class PoolCanonicalizer {
public:
  explicit PoolCanonicalizer(ClassFile &CF)
      : CF(CF), Flags(CF.CP.count(), 0) {}

  Error run() {
    if (auto E = decodeMethods())
      return E;
    markRoots();
    closeOverReferences();
    if (auto E = checkDangling())
      return E;
    // The new pool shares the class's arena: copied entries keep views
    // into it, and attribute names the pool lacks are interned there.
    CF.arena();
    CanonicalPoolBuilder Pool(CF.CP.arenaPtr());
    Handles = Pool.copyFrom(CF.CP, Flags);
    for (uint16_t I = 1; I < Flags.size(); ++I)
      if (Flags[I] & LdcOperand)
        Pool.markLdc(Handles[I]);
    addAttributeNames(Pool);
    if (auto E = Pool.finish(CF.CP))
      return E;
    remapStructure(Pool);
    return Error::success();
  }

private:
  Error decodeMethods() {
    for (MemberInfo &M : CF.Methods) {
      for (AttributeInfo &A : M.Attributes) {
        if (A.Name != "Code")
          continue;
        auto Code = parseCodeAttribute(A, CF.CP);
        if (!Code)
          return Code.takeError();
        auto Insns = decodeCode(Code->Code);
        if (!Insns)
          return Insns.takeError();
        DecodedMethod D;
        D.Member = &M;
        D.Attr = &A;
        D.Code = std::move(*Code);
        D.Insns = std::move(*Insns);
        Methods.push_back(std::move(D));
      }
    }
    return Error::success();
  }

  void mark(uint16_t Index, uint8_t Bits = Reached) {
    if (Index == 0)
      return;
    if (Index >= Flags.size()) {
      if (!FirstOutOfRange || Index < FirstOutOfRange)
        FirstOutOfRange = Index;
      return;
    }
    if (!(Flags[Index] & Reached))
      Work.push_back(Index);
    Flags[Index] |= Bits | Reached;
  }

  void markRoots() {
    mark(CF.ThisClass);
    mark(CF.SuperClass);
    for (uint16_t I : CF.Interfaces)
      mark(I);
    auto MarkMember = [&](const MemberInfo &M) {
      mark(M.NameIndex);
      mark(M.DescriptorIndex);
      for (const AttributeInfo &A : M.Attributes) {
        if (A.Name == "ConstantValue" && A.Bytes.size() == 2) {
          ByteReader R(A.Bytes);
          mark(R.readU2());
        } else if (A.Name == "Exceptions") {
          ByteReader R(A.Bytes);
          uint16_t N = R.readU2();
          for (uint16_t K = 0; K < N; ++K)
            mark(R.readU2());
        }
      }
    };
    for (const MemberInfo &F : CF.Fields)
      MarkMember(F);
    for (const MemberInfo &M : CF.Methods)
      MarkMember(M);
    for (const DecodedMethod &D : Methods) {
      for (const ExceptionTableEntry &E : D.Code.ExceptionTable)
        mark(E.CatchType);
      for (const Insn &I : D.Insns)
        if (I.hasCpOperand())
          mark(I.CpIndex, I.Opcode == Op::Ldc ? LdcOperand : Reached);
    }
  }

  void closeOverReferences() {
    while (!Work.empty()) {
      const CpEntry &E = CF.CP.entry(Work.back());
      Work.pop_back();
      unsigned N = CanonicalPoolBuilder::refFields(E.Tag);
      if (N >= 1)
        mark(E.Ref1);
      if (N == 2)
        mark(E.Ref2);
    }
  }

  /// The smallest reachable index naming no entry is an error.
  Error checkDangling() const {
    uint16_t Dangling = FirstOutOfRange;
    for (uint16_t I = 1; I < Flags.size(); ++I)
      if ((Flags[I] & Reached) && CF.CP.entry(I).Tag == CpTag::None) {
        Dangling = I;
        break;
      }
    if (Dangling)
      return makeError(ErrorCode::Corrupt,
                       "canonicalize: dangling constant pool index " +
                           std::to_string(Dangling));
    return Error::success();
  }

  /// Attribute names must live in the pool; add every one in use, so a
  /// name no reachable entry spells gets its own Utf8 entry.
  void addAttributeNames(CanonicalPoolBuilder &Pool) {
    auto Add = [&](const std::vector<AttributeInfo> &Attrs) {
      for (const AttributeInfo &A : Attrs)
        Pool.utf8(A.Name);
    };
    Add(CF.Attributes);
    for (const MemberInfo &F : CF.Fields)
      Add(F.Attributes);
    for (const MemberInfo &M : CF.Methods)
      Add(M.Attributes);
    for (const DecodedMethod &D : Methods)
      Add(D.Code.Attributes);
  }

  void remapStructure(const CanonicalPoolBuilder &Pool) {
    auto Remap = [&](uint16_t Old) { return Pool.index(Handles[Old]); };
    CF.ThisClass = Remap(CF.ThisClass);
    CF.SuperClass = Remap(CF.SuperClass);
    for (uint16_t &I : CF.Interfaces)
      I = Remap(I);
    auto RemapMember = [&](MemberInfo &M) {
      M.NameIndex = Remap(M.NameIndex);
      M.DescriptorIndex = Remap(M.DescriptorIndex);
      for (AttributeInfo &A : M.Attributes) {
        if (A.Name == "ConstantValue" && A.Bytes.size() == 2) {
          ByteReader R(A.Bytes);
          uint16_t V = Remap(R.readU2());
          ByteWriter W;
          W.writeU2(V);
          A.Bytes = CF.arena().copy(W.data());
        } else if (A.Name == "Exceptions") {
          ByteReader R(A.Bytes);
          uint16_t N = R.readU2();
          ByteWriter W;
          W.writeU2(N);
          for (uint16_t K = 0; K < N; ++K)
            W.writeU2(Remap(R.readU2()));
          A.Bytes = CF.arena().copy(W.data());
        }
      }
    };
    for (MemberInfo &F : CF.Fields)
      RemapMember(F);
    for (MemberInfo &M : CF.Methods)
      RemapMember(M);
    for (DecodedMethod &D : Methods) {
      for (ExceptionTableEntry &E : D.Code.ExceptionTable)
        E.CatchType = Remap(E.CatchType);
      for (Insn &I : D.Insns)
        if (I.hasCpOperand())
          I.CpIndex = Remap(I.CpIndex);
      D.Code.Code = CF.arena().adopt(encodeCode(D.Insns));
      *D.Attr = encodeCodeAttribute(D.Code, CF.CP);
    }
  }

  ClassFile &CF;
  std::vector<DecodedMethod> Methods;
  std::vector<uint8_t> Flags;
  std::vector<uint16_t> Work;
  uint16_t FirstOutOfRange = 0;
  /// Builder handle of each old index (Null where unreachable).
  std::vector<CanonicalPoolBuilder::Ref> Handles;
};

} // namespace

Error cjpack::canonicalizeConstantPool(ClassFile &CF) {
  auto CheckRecognized =
      [&](const std::vector<AttributeInfo> &Attrs) -> Error {
    for (const AttributeInfo &A : Attrs)
      if (!isRecognizedAttribute(A.Name))
        return makeError("canonicalize: unrecognized attribute '" +
                         std::string(A.Name) + "' (strip first)");
    return Error::success();
  };
  if (auto E = CheckRecognized(CF.Attributes))
    return E;
  for (const MemberInfo &F : CF.Fields)
    if (auto E = CheckRecognized(F.Attributes))
      return E;
  for (const MemberInfo &M : CF.Methods)
    if (auto E = CheckRecognized(M.Attributes))
      return E;
  return PoolCanonicalizer(CF).run();
}

Error cjpack::prepareForPacking(ClassFile &CF) {
  stripDebugInfo(CF);
  return canonicalizeConstantPool(CF);
}
