//===- Transcode.h - direction-neutral wire transcoder ---------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packed format's per-record wire layout, written once and driven
/// in both directions. Encoder.cpp and Decoder.cpp used to be two
/// hand-mirrored traversals; every format change had to be patched in
/// lockstep on both sides. Here each record's layout (class header,
/// constant-pool definitions, fields, methods, code) is a single
/// function over a shared record type, parameterized by a direction
/// context:
///
///  * Transcriber<EncodeContext> walks fully-populated records and
///    writes their streams (the record fields are inputs; every
///    x-function returns its input unchanged, so the shared assignments
///    are identities);
///  * Transcriber<DecodeContext> reads the streams and fills the same
///    records (the x-functions return what they read).
///
/// Decode-only validation (range checks, resource limits, the
/// poison-object error latch from the hostile-input hardening) lives in
/// `if constexpr (!Ctx::IsEncode)` blocks, so the encoder's behavior is
/// untouched by decoder hardening and vice versa. The convention keeps
/// the §3–§9 invariant — the decoder replays the encoder's model
/// decisions exactly — true by construction: there is only one
/// description of the wire layout to diverge from.
///
/// Telemetry: the encoding context carries an optional per-stream item
/// counter (StreamSizes::Items) and the coder's counted entry points
/// feed a CoderTally; both are observational and cannot change the
/// emitted bytes.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_TRANSCODE_H
#define CJPACK_PACK_TRANSCODE_H

#include "analysis/FlowState.h"
#include "bytecode/Instruction.h"
#include "coder/RefCoder.h"
#include "pack/CodeCommon.h"
#include "pack/Model.h"
#include "pack/Streams.h"
#include "support/DecodeLimits.h"
#include "support/Error.h"
#include "support/VarInt.h"
#include <array>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

namespace cjpack {

//===----------------------------------------------------------------------===//
// Shared wire records
//===----------------------------------------------------------------------===//

/// One method body on the wire. Insns/Operands are parallel arrays; the
/// operand record routes each instruction's constant to its stream.
struct CodeRec {
  uint32_t MaxStack = 0;
  uint32_t MaxLocals = 0;
  struct Handler {
    uint32_t StartPc = 0, EndPc = 0, HandlerPc = 0;
    bool HasCatch = false;
    uint32_t CatchClass = 0;
  };
  std::vector<Handler> Table;
  std::vector<Insn> Insns;
  std::vector<CodeOperand> Operands; ///< parallel to Insns
};

/// One field on the wire. Const is meaningful iff Flags has Aux0.
struct FieldRec {
  uint32_t Flags = 0;
  uint32_t RefId = 0;
  CodeOperand Const;
};

/// One method on the wire.
struct MethodRec {
  uint32_t Flags = 0;
  uint32_t RefId = 0;
  std::vector<uint32_t> Exceptions;
  std::optional<CodeRec> Code;
};

/// One class on the wire.
struct ClassRec {
  uint32_t MinorVersion = 0, MajorVersion = 0;
  uint32_t Flags = 0;
  uint32_t ThisId = 0;
  bool HasSuper = false;
  uint32_t SuperId = 0;
  std::vector<uint32_t> Interfaces;
  std::vector<FieldRec> Fields;
  std::vector<MethodRec> Methods;
};

/// The pool a method definition's reference is encoded in, derived from
/// information the decoder has before reading the reference. Shared so
/// the two directions cannot disagree.
inline PoolKind methodDefPool(uint32_t MethodFlags, uint32_t ClassFlags) {
  if (ClassFlags & AccInterface)
    return PoolKind::MethodInterface;
  if (MethodFlags & AccStatic)
    return PoolKind::MethodStatic;
  if (MethodFlags & AccPrivate)
    return PoolKind::MethodSpecial;
  return PoolKind::MethodVirtual;
}

//===----------------------------------------------------------------------===//
// Direction contexts
//===----------------------------------------------------------------------===//

/// Encoding side: a model whose ids the records already use, a
/// reference coder, and the stream sinks. Items, when non-null,
/// receives a per-stream count of values written (telemetry only).
struct EncodeContext {
  static constexpr bool IsEncode = true;

  Model &M;
  RefEncoder &Enc;
  StreamSet &S;
  RefScheme Scheme;
  bool Collapse;
  std::array<uint64_t, NumStreams> *Items = nullptr;

  void countItem(StreamId Id) {
    if (Items)
      ++(*Items)[static_cast<unsigned>(Id)];
  }
};

/// Decoding side: an empty model filled in decode order, a reference
/// decoder, stream sources, and the hostile-input state — resource
/// limits plus the poison-object error latch. The readers keep
/// returning in-bounds poison objects after a validation failure so
/// downstream model lookups stay safe; the next structural checkpoint
/// aborts the decode with the latched error.
struct DecodeContext {
  static constexpr bool IsEncode = false;

  Model &M;
  RefDecoder &Dec;
  StreamSet &S;
  RefScheme Scheme;
  DecodeLimits Limits;
  Error Latch{};

  /// Records the first wire-validation failure.
  void fail(ErrorCode Code, std::string Msg) {
    if (!Latch)
      Latch = makeError(Code, std::move(Msg));
  }

  /// An always-valid class-ref id used after a validation failure. The
  /// non-'L' base means nothing downstream indexes the string pools.
  uint32_t poisonClass() {
    MClassRef Void;
    Void.Base = 'V';
    return M.appendClassRef(Void);
  }
};

//===----------------------------------------------------------------------===//
// The transcriber
//===----------------------------------------------------------------------===//

template <typename Ctx> class Transcriber {
public:
  explicit Transcriber(Ctx &C) : C(C) {}

  /// The whole archive body: class count, then every class record.
  /// Encode walks \p Recs; decode fills it.
  Error transcodeArchive(std::vector<ClassRec> &Recs) {
    if constexpr (Ctx::IsEncode) {
      xVarU(StreamId::Counts, Recs.size());
      for (ClassRec &R : Recs)
        if (auto E = xClassRec(R))
          return E;
      return Error::success();
    } else {
      size_t Count = 0;
      if (auto E = beginArchive(Count))
        return E;
      Recs.reserve(Count);
      for (size_t I = 0; I < Count; ++I) {
        ClassRec R;
        if (auto E = transcodeOneClass(R))
          return E;
        Recs.push_back(std::move(R));
      }
      return Error::success();
    }
  }

  /// Decode side only: reads and validates the archive's class count
  /// without decoding any record. The adaptive coder state means class
  /// records are only decodable as a prefix in order, so incremental
  /// readers call this once and then transcodeOneClass per record.
  Error beginArchive(size_t &Count) {
    static_assert(!Ctx::IsEncode,
                  "beginArchive is for incremental decoding");
    ByteReader &Counts = C.S.in(StreamId::Counts);
    Count = static_cast<size_t>(readVarUInt(Counts));
    if (Counts.hasError())
      return Counts.takeError("unpack");
    if (Count > C.Limits.MaxClasses)
      return makeError(ErrorCode::LimitExceeded,
                       "unpack: class count over limit");
    // Every class costs at least five varint bytes from the Counts
    // stream (versions plus three member counts), so a count the
    // stream cannot hold is corrupt before anything is reserved.
    if (Count * 5 > Counts.remaining())
      return makeError(ErrorCode::Corrupt,
                       "unpack: class count exceeds stream size");
    return Error::success();
  }

  /// Decode side only: decodes the next class record in archive order.
  /// Valid only after beginArchive, at most Count times.
  Error transcodeOneClass(ClassRec &R) {
    static_assert(!Ctx::IsEncode,
                  "transcodeOneClass is for incremental decoding");
    if (auto E = xClassRec(R))
      return E;
    if (C.Latch)
      return std::move(C.Latch);
    return Error::success();
  }

private:
  //===--------------------------------------------------------------===//
  // Primitives: encode writes the argument and returns it; decode reads.
  //===--------------------------------------------------------------===//

  uint64_t xVarU(StreamId Sid, uint64_t V) {
    if constexpr (Ctx::IsEncode) {
      writeVarUInt(C.S.out(Sid), V);
      C.countItem(Sid);
      return V;
    } else {
      return readVarUInt(C.S.in(Sid));
    }
  }

  int64_t xVarS(StreamId Sid, int64_t V) {
    if constexpr (Ctx::IsEncode) {
      writeVarInt(C.S.out(Sid), V);
      C.countItem(Sid);
      return V;
    } else {
      return readVarInt(C.S.in(Sid));
    }
  }

  uint8_t xU1(StreamId Sid, uint8_t V) {
    if constexpr (Ctx::IsEncode) {
      C.S.out(Sid).writeU1(V);
      C.countItem(Sid);
      return V;
    } else {
      return C.S.in(Sid).readU1();
    }
  }

  uint32_t xU4(StreamId Sid, uint32_t V) {
    if constexpr (Ctx::IsEncode) {
      C.S.out(Sid).writeU4(V);
      C.countItem(Sid);
      return V;
    } else {
      return C.S.in(Sid).readU4();
    }
  }

  uint64_t xU8(StreamId Sid, uint64_t V) {
    if constexpr (Ctx::IsEncode) {
      C.S.out(Sid).writeU8(V);
      C.countItem(Sid);
      return V;
    } else {
      return C.S.in(Sid).readU8();
    }
  }

  /// A newly defined string: varint length in StringLengths, characters
  /// in \p Chars. Decode enforces the string-length resource cap.
  std::string xStringDef(const std::string &EncStr, StreamId Chars) {
    if constexpr (Ctx::IsEncode) {
      xVarU(StreamId::StringLengths, EncStr.size());
      C.S.out(Chars).writeString(EncStr);
      C.countItem(Chars);
      return std::string();
    } else {
      (void)EncStr;
      size_t Len =
          static_cast<size_t>(readVarUInt(C.S.in(StreamId::StringLengths)));
      if (Len > C.Limits.MaxStringBytes) {
        C.fail(ErrorCode::LimitExceeded, "unpack: string length over limit");
        return std::string();
      }
      return C.S.in(Chars).readString(Len);
    }
  }

  //===--------------------------------------------------------------===//
  // Reference sites with inline definitions
  //===--------------------------------------------------------------===//

  /// One string-pool reference site: coder reference in \p RefStream, a
  /// first occurrence followed by the string's definition in \p Chars.
  /// \p Count / \p Append / \p Get bind the helper to one Model pool;
  /// \p What names the pool in the out-of-range diagnostic.
  template <typename CountFn, typename AppendFn, typename GetFn>
  uint32_t xStringRef(PoolKind Pool, StreamId RefStream, StreamId Chars,
                      const char *What, uint32_t EncId, CountFn Count,
                      AppendFn Append, GetFn Get) {
    if constexpr (Ctx::IsEncode) {
      (void)Count;
      (void)Append;
      (void)What;
      bool Def = C.Enc.encodeCounted(poolId(Pool), 0, EncId,
                                     C.S.out(RefStream));
      C.countItem(RefStream);
      if (Def)
        xStringDef(Get(EncId), Chars);
      return EncId;
    } else {
      (void)Get;
      (void)EncId;
      auto Existing =
          C.Dec.decodeCounted(poolId(Pool), 0, C.S.in(RefStream));
      if (Existing) {
        if (*Existing < Count())
          return *Existing;
        C.fail(ErrorCode::Corrupt,
               std::string("unpack: ") + What + " ref out of range");
        return Append(std::string());
      }
      uint32_t Id = Append(xStringDef(std::string(), Chars));
      C.Dec.registerNew(poolId(Pool), 0, Id);
      return Id;
    }
  }

  uint32_t xPackage(uint32_t Id) {
    return xStringRef(
        PoolKind::Package, StreamId::PackageRefs, StreamId::ClassNameChars,
        "package", Id, [this] { return C.M.packageCount(); },
        [this](std::string S) { return C.M.appendPackage(std::move(S)); },
        [this](uint32_t I) -> const std::string & { return C.M.package(I); });
  }

  uint32_t xSimpleName(uint32_t Id) {
    return xStringRef(
        PoolKind::SimpleName, StreamId::SimpleNameRefs,
        StreamId::ClassNameChars, "simple-name", Id,
        [this] { return C.M.simpleNameCount(); },
        [this](std::string S) { return C.M.appendSimpleName(std::move(S)); },
        [this](uint32_t I) -> const std::string & {
          return C.M.simpleName(I);
        });
  }

  uint32_t xFieldName(uint32_t Id) {
    return xStringRef(
        PoolKind::FieldName, StreamId::FieldNameRefs, StreamId::NameChars,
        "field-name", Id, [this] { return C.M.fieldNameCount(); },
        [this](std::string S) { return C.M.appendFieldName(std::move(S)); },
        [this](uint32_t I) -> const std::string & {
          return C.M.fieldName(I);
        });
  }

  uint32_t xMethodName(uint32_t Id) {
    return xStringRef(
        PoolKind::MethodName, StreamId::MethodNameRefs, StreamId::NameChars,
        "method-name", Id, [this] { return C.M.methodNameCount(); },
        [this](std::string S) { return C.M.appendMethodName(std::move(S)); },
        [this](uint32_t I) -> const std::string & {
          return C.M.methodName(I);
        });
  }

  uint32_t xStringConst(uint32_t Id) {
    return xStringRef(
        PoolKind::StringConst, StreamId::StringConstRefs,
        StreamId::StringConstChars, "string-const", Id,
        [this] { return C.M.stringConstCount(); },
        [this](std::string S) { return C.M.appendStringConst(std::move(S)); },
        [this](uint32_t I) -> const std::string & {
          return C.M.stringConst(I);
        });
  }

  /// A class reference's definition body: dimensions and base in Counts,
  /// then (for 'L' bases) the package and simple-name references.
  /// Decode refuses a definition no classfile type spells.
  void classDefBody(MClassRef &R) {
    uint64_t Dims = xVarU(StreamId::Counts, R.Dims);
    R.Dims = static_cast<uint8_t>(Dims);
    R.Base = static_cast<char>(
        xU1(StreamId::Counts, static_cast<uint8_t>(R.Base)));
    if (R.Base == 'L') {
      R.Package = xPackage(R.Package);
      R.Simple = xSimpleName(R.Simple);
    }
    if constexpr (!Ctx::IsEncode) {
      std::string_view Package, Simple;
      if (R.Base == 'L') {
        Package = C.M.package(R.Package);
        Simple = C.M.simpleName(R.Simple);
      }
      if (Dims > 0xFF ||
          !isWellFormedClassRef(R.Dims, R.Base, Package, Simple))
        C.fail(ErrorCode::Corrupt, "unpack: malformed class-ref definition");
    }
  }

  /// Decode side: a field or parameter type must not be void.
  void requireValueType(uint32_t Id) {
    if constexpr (!Ctx::IsEncode) {
      if (C.M.classRef(Id).Base == 'V')
        C.fail(ErrorCode::Corrupt, "unpack: void field or parameter type");
    } else {
      (void)Id;
    }
  }

  uint32_t xClass(uint32_t EncId) {
    uint32_t Pool = poolId(PoolKind::ClassRefPool);
    if constexpr (Ctx::IsEncode) {
      bool Def =
          C.Enc.encodeCounted(Pool, 0, EncId, C.S.out(StreamId::ClassRefs));
      C.countItem(StreamId::ClassRefs);
      if (Def) {
        MClassRef R = C.M.classRef(EncId);
        classDefBody(R);
      }
      return EncId;
    } else {
      auto Existing = C.Dec.decodeCounted(Pool, 0, C.S.in(StreamId::ClassRefs));
      if (Existing) {
        if (*Existing < C.M.classRefCount())
          return *Existing;
        C.fail(ErrorCode::Corrupt, "unpack: class ref out of range");
        return C.poisonClass();
      }
      MClassRef R;
      classDefBody(R);
      uint32_t Id = C.M.appendClassRef(R);
      C.Dec.registerNew(Pool, 0, Id);
      return Id;
    }
  }

  /// A field reference's definition body: owner class, field name,
  /// field type.
  void fieldDefBody(MFieldRef &R) {
    R.Owner = xClass(R.Owner);
    R.Name = xFieldName(R.Name);
    R.Type = xClass(R.Type);
    requireValueType(R.Type);
  }

  uint32_t xFieldRef(PoolKind Pool, uint32_t EncId) {
    Pool = effectivePool(Pool, C.Scheme);
    if constexpr (Ctx::IsEncode) {
      bool Def = C.Enc.encodeCounted(poolId(Pool), 0, EncId,
                                     C.S.out(StreamId::FieldRefs));
      C.countItem(StreamId::FieldRefs);
      if (Def) {
        MFieldRef R = C.M.fieldRef(EncId);
        fieldDefBody(R);
      }
      return EncId;
    } else {
      auto Existing =
          C.Dec.decodeCounted(poolId(Pool), 0, C.S.in(StreamId::FieldRefs));
      if (Existing) {
        if (*Existing < C.M.fieldRefCount())
          return *Existing;
        C.fail(ErrorCode::Corrupt, "unpack: field ref out of range");
        MFieldRef P;
        P.Owner = C.poisonClass();
        P.Name = C.M.appendFieldName(std::string());
        P.Type = C.poisonClass();
        return C.M.appendFieldRef(P);
      }
      MFieldRef R;
      fieldDefBody(R);
      uint32_t Id = C.M.appendFieldRef(R);
      C.Dec.registerNew(poolId(Pool), 0, Id);
      return Id;
    }
  }

  /// A method reference's definition body: owner class, method name,
  /// then the signature as a counted list of class references.
  void methodDefBody(MMethodRef &R) {
    R.Owner = xClass(R.Owner);
    R.Name = xMethodName(R.Name);
    if constexpr (Ctx::IsEncode) {
      xVarU(StreamId::Counts, R.Sig.size());
      for (uint32_t Cl : R.Sig)
        xClass(Cl);
    } else {
      size_t SigLen =
          static_cast<size_t>(xVarU(StreamId::Counts, 0));
      // A method has at most 255 parameter slots plus the return type;
      // anything larger is corrupt input. Clamp so a garbage varint
      // cannot drive an unbounded loop; a too-short signature gets a
      // void return so later lookups stay in bounds.
      if (SigLen > 257)
        SigLen = 257;
      R.Sig.reserve(SigLen);
      for (size_t K = 0; K < SigLen; ++K) {
        R.Sig.push_back(xClass(0));
        if (K > 0)
          requireValueType(R.Sig.back());
      }
      if (R.Sig.empty()) {
        MClassRef Void;
        Void.Base = 'V';
        R.Sig.push_back(C.M.appendClassRef(Void));
      }
    }
  }

  uint32_t xMethodRef(PoolKind Pool, uint32_t Sub, uint32_t EncId) {
    Pool = effectivePool(Pool, C.Scheme);
    if constexpr (Ctx::IsEncode) {
      bool Def = C.Enc.encodeCounted(poolId(Pool), Sub, EncId,
                                     C.S.out(StreamId::MethodRefs));
      C.countItem(StreamId::MethodRefs);
      if (Def) {
        MMethodRef R = C.M.methodRef(EncId);
        methodDefBody(R);
      }
      return EncId;
    } else {
      auto Existing = C.Dec.decodeCounted(poolId(Pool), Sub,
                                          C.S.in(StreamId::MethodRefs));
      if (Existing) {
        if (*Existing < C.M.methodRefCount())
          return *Existing;
        C.fail(ErrorCode::Corrupt, "unpack: method ref out of range");
        MMethodRef P;
        P.Owner = C.poisonClass();
        P.Name = C.M.appendMethodName(std::string());
        P.Sig.push_back(C.poisonClass());
        return C.M.appendMethodRef(std::move(P));
      }
      MMethodRef R;
      methodDefBody(R);
      uint32_t Id = C.M.appendMethodRef(std::move(R));
      C.Dec.registerNew(poolId(Pool), Sub, Id);
      return Id;
    }
  }

  //===--------------------------------------------------------------===//
  // Structure
  //===--------------------------------------------------------------===//

  Error xClassRec(ClassRec &R) {
    R.MinorVersion =
        static_cast<uint32_t>(xVarU(StreamId::Counts, R.MinorVersion));
    R.MajorVersion =
        static_cast<uint32_t>(xVarU(StreamId::Counts, R.MajorVersion));
    R.Flags = static_cast<uint32_t>(xVarU(StreamId::Flags, R.Flags));
    R.ThisId = xClass(R.ThisId);
    // Aux0 on a class means "has a superclass"; the lowering pass set
    // the bit from the classfile, so deriving it here is an identity on
    // the encode side.
    R.HasSuper = (R.Flags & PackedFlagAux0) != 0;
    if (R.HasSuper)
      R.SuperId = xClass(R.SuperId);

    if constexpr (Ctx::IsEncode) {
      xVarU(StreamId::Counts, R.Interfaces.size());
      for (uint32_t Id : R.Interfaces)
        xClass(Id);
      xVarU(StreamId::Counts, R.Fields.size());
      for (FieldRec &F : R.Fields)
        if (auto E = xFieldRec(F))
          return E;
      xVarU(StreamId::Counts, R.Methods.size());
      for (MethodRec &Mth : R.Methods)
        if (auto E = xMethodRec(Mth, R.Flags))
          return E;
      return Error::success();
    } else {
      ByteReader &Counts = C.S.in(StreamId::Counts);
      size_t IfaceCount = static_cast<size_t>(readVarUInt(Counts));
      if (Counts.hasError() || IfaceCount > 0xFFFF)
        return makeError(ErrorCode::Corrupt, "unpack: bad class header");
      for (size_t K = 0; K < IfaceCount && !C.Latch; ++K)
        R.Interfaces.push_back(xClass(0));

      size_t FieldCount = static_cast<size_t>(readVarUInt(Counts));
      if (Counts.hasError() || FieldCount > 0xFFFF)
        return makeError(ErrorCode::Corrupt,
                         "unpack: implausible field count");
      for (size_t K = 0; K < FieldCount && !C.Latch; ++K) {
        FieldRec F;
        if (auto E = xFieldRec(F))
          return E;
        R.Fields.push_back(std::move(F));
      }
      size_t MethodCount = static_cast<size_t>(readVarUInt(Counts));
      if (Counts.hasError() || MethodCount > 0xFFFF)
        return makeError(ErrorCode::Corrupt,
                         "unpack: implausible method count");
      for (size_t K = 0; K < MethodCount && !C.Latch; ++K) {
        MethodRec Mth;
        if (auto E = xMethodRec(Mth, R.Flags))
          return E;
        R.Methods.push_back(std::move(Mth));
      }
      if (Counts.hasError())
        return Counts.takeError("unpack class body");
      return Error::success();
    }
  }

  Error xFieldRec(FieldRec &F) {
    F.Flags = static_cast<uint32_t>(xVarU(StreamId::Flags, F.Flags));
    PoolKind Pool = (F.Flags & AccStatic) ? PoolKind::FieldStatic
                                          : PoolKind::FieldInstance;
    F.RefId = xFieldRef(Pool, F.RefId);
    if (F.Flags & PackedFlagAux0) {
      // The constant's stream is routed by the field's declared type —
      // information both sides have before the value. The lowering pass
      // validated the classfile's ConstantValue tag against this type,
      // so on the encode side the switch always lands on F.Const.Kind.
      VType T = C.M.classRefVType(C.M.fieldRef(F.RefId).Type);
      switch (T) {
      case VType::Int:
        F.Const.Kind = ConstKind::Int;
        F.Const.IntValue = xVarS(StreamId::IntConsts, F.Const.IntValue);
        break;
      case VType::Float:
        F.Const.Kind = ConstKind::Float;
        F.Const.RawBits = xU4(StreamId::FloatConsts,
                              static_cast<uint32_t>(F.Const.RawBits));
        break;
      case VType::Long:
        F.Const.Kind = ConstKind::Long;
        F.Const.RawBits = xU8(StreamId::LongConsts, F.Const.RawBits);
        break;
      case VType::Double:
        F.Const.Kind = ConstKind::Double;
        F.Const.RawBits = xU8(StreamId::DoubleConsts, F.Const.RawBits);
        break;
      case VType::Ref:
        F.Const.Kind = ConstKind::String;
        F.Const.Id = xStringConst(F.Const.Id);
        break;
      default:
        return makeError(ErrorCode::Corrupt,
                         "unpack: constant on untyped field");
      }
    }
    return Error::success();
  }

  Error xMethodRec(MethodRec &R, uint32_t ClassFlags) {
    R.Flags = static_cast<uint32_t>(xVarU(StreamId::Flags, R.Flags));
    R.RefId = xMethodRef(methodDefPool(R.Flags, ClassFlags), 0, R.RefId);
    if (R.Flags & PackedFlagAux1) {
      if constexpr (Ctx::IsEncode) {
        xVarU(StreamId::Counts, R.Exceptions.size());
        for (uint32_t Id : R.Exceptions)
          xClass(Id);
      } else {
        size_t N =
            static_cast<size_t>(readVarUInt(C.S.in(StreamId::Counts)));
        if (C.S.in(StreamId::Counts).hasError() || N > 0xFFFF)
          return makeError(ErrorCode::Corrupt,
                           "unpack: bad Exceptions count");
        for (size_t K = 0; K < N && !C.Latch; ++K)
          R.Exceptions.push_back(xClass(0));
      }
    }
    if (R.Flags & PackedFlagAux0) {
      if constexpr (Ctx::IsEncode) {
        if (auto E = xCodeRec(*R.Code))
          return E;
      } else {
        CodeRec Code;
        if (auto E = xCodeRec(Code))
          return E;
        R.Code = std::move(Code);
      }
    }
    return Error::success();
  }

  //===--------------------------------------------------------------===//
  // Bytecode (§7)
  //===--------------------------------------------------------------===//

  /// One exception-table entry: pcs in BranchOffsets (end as a span so
  /// it stays small), catch flag in Counts, then the catch class.
  void xHandler(CodeRec::Handler &E) {
    E.StartPc =
        static_cast<uint32_t>(xVarU(StreamId::BranchOffsets, E.StartPc));
    uint32_t Span = static_cast<uint32_t>(
        xVarU(StreamId::BranchOffsets, E.EndPc - E.StartPc));
    if constexpr (!Ctx::IsEncode)
      E.EndPc = E.StartPc + Span;
    else
      (void)Span;
    E.HandlerPc =
        static_cast<uint32_t>(xVarU(StreamId::BranchOffsets, E.HandlerPc));
    E.HasCatch = xU1(StreamId::Counts, E.HasCatch ? 1 : 0) != 0;
    if (E.HasCatch)
      E.CatchClass = xClass(E.CatchClass);
  }

  Error xCodeRec(CodeRec &R) {
    R.MaxStack = static_cast<uint32_t>(xVarU(StreamId::Counts, R.MaxStack));
    R.MaxLocals =
        static_cast<uint32_t>(xVarU(StreamId::Counts, R.MaxLocals));
    uint64_t ExcCount = xVarU(StreamId::Counts, R.Table.size());
    uint64_t InsnCount = xVarU(StreamId::Counts, R.Insns.size());
    if constexpr (!Ctx::IsEncode) {
      ByteReader &Counts = C.S.in(StreamId::Counts);
      // A code array is capped at 65535 bytes, so instruction and
      // handler counts beyond that are corrupt.
      if (Counts.hasError() || ExcCount > 0xFFFF || InsnCount > 0xFFFF)
        return makeError(ErrorCode::Corrupt, "unpack: bad code header");
      if (InsnCount > C.Limits.MaxMethodInsns)
        return makeError(ErrorCode::LimitExceeded,
                         "unpack: method instruction count over limit");
      // Every handler costs at least one byte from the Counts stream
      // (the catch flag), so a count the stream cannot hold is corrupt.
      if (ExcCount > Counts.remaining())
        return makeError(ErrorCode::Corrupt,
                         "unpack: exception table exceeds stream size");
    }
    if constexpr (Ctx::IsEncode) {
      for (CodeRec::Handler &E : R.Table)
        xHandler(E);
    } else {
      for (uint64_t K = 0; K < ExcCount; ++K) {
        CodeRec::Handler E;
        xHandler(E);
        R.Table.push_back(E);
      }
    }

    // Both directions drive the same approximate stack machine past the
    // same instruction sequence, so collapsed opcodes resolve
    // identically (§7.1).
    FlowState State;
    State.startMethod();
    for (const CodeRec::Handler &E : R.Table)
      State.seedHandler(E.HandlerPc);

    if constexpr (Ctx::IsEncode) {
      for (size_t K = 0; K < R.Insns.size(); ++K) {
        Insn &I = R.Insns[K];
        CodeOperand &Operand = R.Operands[K];
        // Merge the states recorded on forward edges into this offset
        // before the opcode is chosen — the decoder does the same
        // before resolving it.
        State.enterInsn(I.Offset);
        if (auto E = xInsn(I, Operand, I.Offset, State))
          return E;
        InsnTypes Types = insnTypesFor(C.M, I, Operand);
        traceInsn(I, State);
        State.apply(I, &Types);
      }
    } else {
      uint32_t Offset = 0;
      R.Insns.reserve(static_cast<size_t>(InsnCount));
      R.Operands.reserve(static_cast<size_t>(InsnCount));
      for (uint64_t K = 0; K < InsnCount; ++K) {
        if (C.Latch)
          return std::move(C.Latch);
        // Same pre-opcode merge as the encoder: forward-edge states
        // land before the pseudo-opcode at this offset is resolved.
        State.enterInsn(Offset);
        Insn I;
        CodeOperand Operand;
        if (auto E = xInsn(I, Operand, Offset, State))
          return E;
        I.Offset = Offset;
        I.Length = encodedLength(I, Offset);
        Offset += I.Length;
        InsnTypes Types = insnTypesFor(C.M, I, Operand);
        traceInsn(I, State);
        State.apply(I, &Types);
        R.Insns.push_back(std::move(I));
        R.Operands.push_back(Operand);
      }
    }
    return Error::success();
  }

  /// Debug aid: CJPACK_TRACE=1 dumps the per-instruction stack state on
  /// both sides so encoder/decoder divergence is diffable.
  void traceInsn(const Insn &I, const FlowState &State) {
    static const bool Trace = getenv("CJPACK_TRACE") != nullptr;
    if (Trace)
      fprintf(stderr, "%c %u %s known=%d top=%d ctx=%u\n",
              Ctx::IsEncode ? 'E' : 'D', I.Offset,
              opInfo(I.Opcode).Mnemonic, State.isKnown(),
              static_cast<int>(State.top()), State.contextId());
  }

  /// Encode only: the wire code point for \p I given the current stack
  /// state — a typed ldc pseudo-opcode, a collapsed family
  /// pseudo-opcode when prediction succeeds, or the opcode itself.
  uint8_t wireOpcode(const Insn &I, const CodeOperand &Operand,
                     const FlowState &State) {
    if (I.Opcode == Op::Ldc || I.Opcode == Op::LdcW) {
      bool Short = I.Opcode == Op::Ldc;
      switch (Operand.Kind) {
      case ConstKind::Int:
        return Short ? PseudoLdcInt : PseudoLdcWInt;
      case ConstKind::Float:
        return Short ? PseudoLdcFloat : PseudoLdcWFloat;
      case ConstKind::String:
        return Short ? PseudoLdcString : PseudoLdcWString;
      default:
        assert(false && "bad ldc constant kind");
        return PseudoLdcInt;
      }
    }
    if (I.Opcode == Op::Ldc2W)
      return Operand.Kind == ConstKind::Long ? PseudoLdc2Long
                                             : PseudoLdc2Double;
    if (C.Collapse && !I.IsWide) {
      OpFamily F = familyOf(I.Opcode);
      if (F != OpFamily::None) {
        auto Predicted = variantFor(F, State.top(familyKeyDepth(F)));
        if (Predicted && *Predicted == I.Opcode)
          return pseudoOfFamily(F);
      }
    }
    return static_cast<uint8_t>(I.Opcode);
  }

  /// Decode only: reads the wire code point and resolves pseudo-opcodes
  /// (typed ldc and collapsed families) back to the real opcode.
  Error decodeOpcode(Insn &I, CodeOperand &Operand, FlowState &State) {
    ByteReader &Ops = C.S.in(StreamId::Opcodes);
    uint8_t Code = Ops.readU1();
    if (Code == static_cast<uint8_t>(Op::Wide)) {
      I.IsWide = true;
      Code = Ops.readU1();
    }
    if (Ops.hasError())
      return makeError(ErrorCode::Truncated,
                       "unpack: truncated opcode stream");

    bool LdcShort = false;
    switch (Code) {
    case PseudoLdcInt:
    case PseudoLdcWInt:
      Operand.Kind = ConstKind::Int;
      LdcShort = Code == PseudoLdcInt;
      I.Opcode = LdcShort ? Op::Ldc : Op::LdcW;
      break;
    case PseudoLdcFloat:
    case PseudoLdcWFloat:
      Operand.Kind = ConstKind::Float;
      LdcShort = Code == PseudoLdcFloat;
      I.Opcode = LdcShort ? Op::Ldc : Op::LdcW;
      break;
    case PseudoLdcString:
    case PseudoLdcWString:
      Operand.Kind = ConstKind::String;
      LdcShort = Code == PseudoLdcString;
      I.Opcode = LdcShort ? Op::Ldc : Op::LdcW;
      break;
    case PseudoLdc2Long:
      Operand.Kind = ConstKind::Long;
      I.Opcode = Op::Ldc2W;
      break;
    case PseudoLdc2Double:
      Operand.Kind = ConstKind::Double;
      I.Opcode = Op::Ldc2W;
      break;
    default:
      if (isFamilyPseudo(Code)) {
        OpFamily F = familyOfPseudo(Code);
        auto Variant = variantFor(F, State.top(familyKeyDepth(F)));
        if (!Variant)
          return makeError(ErrorCode::Corrupt,
                           "unpack: collapsed opcode with unknown stack "
                           "state");
        I.Opcode = *Variant;
      } else if (isValidOpcode(Code)) {
        I.Opcode = static_cast<Op>(Code);
      } else {
        return makeError(ErrorCode::Corrupt,
                         "unpack: undefined wire opcode " +
                             std::to_string(Code));
      }
      break;
    }
    return Error::success();
  }

  /// One instruction. Encode consumes a fully-populated (I, Operand)
  /// pair; decode fills one in (the caller assigns Offset/Length).
  Error xInsn(Insn &I, CodeOperand &Operand, uint32_t Offset,
              FlowState &State) {
    if constexpr (Ctx::IsEncode) {
      ByteWriter &Ops = C.S.out(StreamId::Opcodes);
      if (I.IsWide) {
        Ops.writeU1(static_cast<uint8_t>(Op::Wide));
        C.countItem(StreamId::Opcodes);
      }
      Ops.writeU1(wireOpcode(I, Operand, State));
      C.countItem(StreamId::Opcodes);
    } else {
      if (auto E = decodeOpcode(I, Operand, State))
        return E;
    }

    switch (opInfo(I.Opcode).Format) {
    case OpFormat::None:
      break;
    case OpFormat::S1:
    case OpFormat::S2:
    case OpFormat::NewArrayType:
      I.Const = static_cast<int32_t>(xVarS(StreamId::IntConsts, I.Const));
      break;
    case OpFormat::LocalU1:
      I.LocalIndex =
          static_cast<uint32_t>(xVarU(StreamId::Registers, I.LocalIndex));
      break;
    case OpFormat::Iinc:
      I.LocalIndex =
          static_cast<uint32_t>(xVarU(StreamId::Registers, I.LocalIndex));
      I.Const = static_cast<int32_t>(xVarS(StreamId::IntConsts, I.Const));
      break;
    case OpFormat::CpU1:
    case OpFormat::CpU2:
    case OpFormat::InvokeInterface:
      if (auto E = xCpOperand(I, Operand, State))
        return E;
      break;
    case OpFormat::Branch2:
    case OpFormat::Branch4: {
      // Branches travel as offsets relative to the instruction. Decode
      // computes the target in 64 bits and requires it to land in a
      // legal code array ([0, 65535]); a hostile offset would otherwise
      // overflow the 32-bit addition.
      int64_t T = static_cast<int64_t>(Offset) +
                  xVarS(StreamId::BranchOffsets,
                        static_cast<int64_t>(I.BranchTarget) -
                            static_cast<int32_t>(Offset));
      if constexpr (!Ctx::IsEncode) {
        if (T < 0 || T > 0xFFFF)
          return makeError(ErrorCode::Corrupt,
                           "unpack: branch target out of range");
        I.BranchTarget = static_cast<int32_t>(T);
      } else {
        (void)T;
      }
      break;
    }
    case OpFormat::MultiANewArray:
      Operand.Kind = ConstKind::ClassTarget;
      Operand.Id = xClass(Operand.Id);
      I.Const = static_cast<int32_t>(
          xVarU(StreamId::Counts, static_cast<uint32_t>(I.Const)));
      break;
    case OpFormat::TableSwitch: {
      I.SwitchLow =
          static_cast<int32_t>(xVarS(StreamId::IntConsts, I.SwitchLow));
      I.SwitchHigh =
          static_cast<int32_t>(xVarS(StreamId::IntConsts, I.SwitchHigh));
      if constexpr (Ctx::IsEncode) {
        xVarS(StreamId::BranchOffsets,
              static_cast<int64_t>(I.SwitchDefault) -
                  static_cast<int32_t>(Offset));
        for (int32_t T : I.SwitchTargets)
          xVarS(StreamId::BranchOffsets,
                static_cast<int64_t>(T) - static_cast<int32_t>(Offset));
      } else {
        if (I.SwitchHigh < I.SwitchLow ||
            static_cast<int64_t>(I.SwitchHigh) - I.SwitchLow >= (1 << 24))
          return makeError(ErrorCode::Corrupt,
                           "unpack: malformed tableswitch bounds");
        ByteReader &B = C.S.in(StreamId::BranchOffsets);
        int64_t N = static_cast<int64_t>(I.SwitchHigh) - I.SwitchLow + 1;
        // Every target costs at least one varint byte; a claimed count
        // the stream cannot hold is corrupt before the vector grows.
        if (N > static_cast<int64_t>(B.remaining()))
          return makeError(ErrorCode::Corrupt,
                           "unpack: tableswitch exceeds stream size");
        int64_t Def = static_cast<int64_t>(Offset) + readVarInt(B);
        if (Def < 0 || Def > 0xFFFF)
          return makeError(ErrorCode::Corrupt,
                           "unpack: switch default target out of range");
        I.SwitchDefault = static_cast<int32_t>(Def);
        I.SwitchTargets.reserve(static_cast<size_t>(N));
        for (int64_t K = 0; K < N; ++K) {
          int64_t T = static_cast<int64_t>(Offset) + readVarInt(B);
          if (!B.hasError() && (T < 0 || T > 0xFFFF))
            return makeError(ErrorCode::Corrupt,
                             "unpack: switch target out of range");
          I.SwitchTargets.push_back(static_cast<int32_t>(T));
        }
      }
      break;
    }
    case OpFormat::LookupSwitch: {
      uint64_t N = xVarU(StreamId::Counts, I.SwitchMatches.size());
      if constexpr (Ctx::IsEncode) {
        (void)N;
        xVarS(StreamId::BranchOffsets,
              static_cast<int64_t>(I.SwitchDefault) -
                  static_cast<int32_t>(Offset));
        for (size_t K = 0; K < I.SwitchMatches.size(); ++K) {
          xVarS(StreamId::IntConsts, I.SwitchMatches[K]);
          xVarS(StreamId::BranchOffsets,
                static_cast<int64_t>(I.SwitchTargets[K]) -
                    static_cast<int32_t>(Offset));
        }
      } else {
        ByteReader &B = C.S.in(StreamId::BranchOffsets);
        if (N >= (1u << 24) || N > B.remaining())
          return makeError(ErrorCode::Corrupt,
                           "unpack: malformed lookupswitch count");
        int64_t Def = static_cast<int64_t>(Offset) + readVarInt(B);
        if (Def < 0 || Def > 0xFFFF)
          return makeError(ErrorCode::Corrupt,
                           "unpack: switch default target out of range");
        I.SwitchDefault = static_cast<int32_t>(Def);
        I.SwitchMatches.reserve(static_cast<size_t>(N));
        I.SwitchTargets.reserve(static_cast<size_t>(N));
        for (uint64_t K = 0; K < N; ++K) {
          I.SwitchMatches.push_back(static_cast<int32_t>(
              readVarInt(C.S.in(StreamId::IntConsts))));
          int64_t T = static_cast<int64_t>(Offset) + readVarInt(B);
          if (!B.hasError() && (T < 0 || T > 0xFFFF))
            return makeError(ErrorCode::Corrupt,
                             "unpack: switch target out of range");
          I.SwitchTargets.push_back(static_cast<int32_t>(T));
        }
      }
      break;
    }
    case OpFormat::InvokeDynamic:
      if constexpr (Ctx::IsEncode)
        return makeError("pack: invokedynamic is not supported (post-1999)");
      else
        return makeError(ErrorCode::Corrupt,
                         "unpack: unexpected opcode format");
    case OpFormat::Wide:
      if constexpr (Ctx::IsEncode)
        return makeError("pack: unexpected wide format");
      else
        return makeError(ErrorCode::Corrupt,
                         "unpack: unexpected opcode format");
    }

    if constexpr (!Ctx::IsEncode) {
      // The count operand of invokeinterface never travels: it is a
      // function of the signature.
      if (I.Opcode == Op::InvokeInterface)
        I.InvokeCount = static_cast<uint8_t>(
            invokeInterfaceCount(C.M.methodArgVTypes(Operand.Id)));
    }
    return Error::success();
  }

  /// The constant-pool operand of one cp instruction, dispatched on the
  /// opcode's reference kind — information both sides have before the
  /// operand (for ldc, the typed pseudo-opcode already fixed
  /// Operand.Kind).
  Error xCpOperand(Insn &I, CodeOperand &Operand, FlowState &State) {
    switch (cpRefKind(I.Opcode)) {
    case CpRefKind::LoadConst:
    case CpRefKind::LoadConst2:
      switch (Operand.Kind) {
      case ConstKind::Int:
        Operand.IntValue = xVarS(StreamId::IntConsts, Operand.IntValue);
        break;
      case ConstKind::Float:
        Operand.RawBits = xU4(StreamId::FloatConsts,
                              static_cast<uint32_t>(Operand.RawBits));
        break;
      case ConstKind::Long:
        Operand.RawBits = xU8(StreamId::LongConsts, Operand.RawBits);
        break;
      case ConstKind::Double:
        Operand.RawBits = xU8(StreamId::DoubleConsts, Operand.RawBits);
        break;
      case ConstKind::String:
        Operand.Id = xStringConst(Operand.Id);
        break;
      default:
        if constexpr (Ctx::IsEncode)
          return makeError("pack: cp opcode without operand record");
        else
          return makeError(ErrorCode::Corrupt,
                           "unpack: ldc pseudo-op without constant kind");
      }
      return Error::success();
    case CpRefKind::ClassRef:
      Operand.Kind = ConstKind::ClassTarget;
      Operand.Id = xClass(Operand.Id);
      return Error::success();
    case CpRefKind::FieldInstance:
    case CpRefKind::FieldStatic:
      Operand.Kind = ConstKind::Field;
      Operand.Id = xFieldRef(fieldPoolFor(I.Opcode), Operand.Id);
      return Error::success();
    case CpRefKind::MethodVirtual:
    case CpRefKind::MethodSpecial:
    case CpRefKind::MethodStatic:
    case CpRefKind::MethodInterface:
      Operand.Kind = ConstKind::Method;
      Operand.Id =
          xMethodRef(methodPoolFor(I.Opcode), State.contextId(), Operand.Id);
      return Error::success();
    case CpRefKind::None:
      if constexpr (Ctx::IsEncode)
        return makeError("pack: cp opcode without operand record");
      else
        return makeError(ErrorCode::Corrupt,
                         "unpack: cp operand on non-cp opcode");
    }
    return Error::success();
  }

  Ctx &C;
};

} // namespace cjpack

#endif // CJPACK_PACK_TRANSCODE_H
