//===- Corpus.cpp - synthetic benchmark corpora ---------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "bytecode/Instruction.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "corpus/BytecodeBuilder.h"
#include <algorithm>
#include <cassert>
#include <set>

using namespace cjpack;

namespace {

//===----------------------------------------------------------------------===//
// Skeletons: signatures decided before any bytecode is generated, so
// method bodies can call across classes.
//===----------------------------------------------------------------------===//

struct FieldSig {
  std::string Name;
  std::string Desc;
  bool IsStatic = false;
  bool HasConst = false;
  int64_t ConstInt = 0;       ///< Integer/Long constant payload
  std::string ConstString;    ///< String constant payload
  char ConstKindChar = 0;     ///< 'I','J','F','D','S' when HasConst
  /// With the lint/strip knobs on, visibility is decided up front (so
  /// inherited-ref emission can respect it) instead of drawn in
  /// buildClass; PrivacyDecided distinguishes the two regimes so the
  /// default draw sequence is untouched.
  bool IsPrivate = false;
  bool PrivacyDecided = false;
  /// Seeded by CorpusSpec::DeadMembersPerClass; excluded from every
  /// reference-emitting picker so it stays genuinely unreferenced.
  bool IsDead = false;
};

struct MethodSig {
  std::string Name;
  std::string Desc;
  bool IsStatic = false;
  bool IsAbstract = false;
  bool IsPrivate = false; ///< only seeded dead methods are private
  bool IsDead = false;    ///< see FieldSig::IsDead
};

struct Skeleton {
  std::string Internal;
  std::string Super = "java/lang/Object";
  std::vector<std::string> Interfaces;
  bool IsInterface = false;
  std::vector<FieldSig> Fields;
  std::vector<MethodSig> Methods;
};

/// Well-known environment classes generated code may reference.
struct KnownMethod {
  const char *Cls, *Name, *Desc;
  Op Kind;
};

const KnownMethod KnownCalls[] = {
    {"java/lang/Math", "max", "(II)I", Op::InvokeStatic},
    {"java/lang/Math", "min", "(II)I", Op::InvokeStatic},
    {"java/lang/Math", "abs", "(I)I", Op::InvokeStatic},
    {"java/lang/System", "currentTimeMillis", "()J", Op::InvokeStatic},
    {"java/lang/String", "valueOf", "(I)Ljava/lang/String;",
     Op::InvokeStatic},
};
constexpr size_t NumKnownCalls = sizeof(KnownCalls) / sizeof(KnownCalls[0]);

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

class CorpusGenerator {
public:
  explicit CorpusGenerator(const CorpusSpec &Spec)
      : Spec(Spec), R(Spec.Seed), Names(R, Spec.Style) {}

  std::vector<ClassFile> run() {
    buildPackages();
    buildStringPool();
    buildSkeletons();
    std::vector<ClassFile> Out;
    Out.reserve(Skeletons.size());
    for (const Skeleton &Sk : Skeletons)
      Out.push_back(buildClass(Sk));
    return Out;
  }

private:
  struct Local {
    VType T = VType::Int;
    unsigned Index = 0;
    std::string RefClass; ///< for T == Ref: internal name, "" if opaque
  };

  /// Per-method-body generation state.
  struct BodyCtx {
    BytecodeBuilder *B = nullptr;
    const Skeleton *Self = nullptr;
    bool IsStatic = false;
    std::vector<Local> Locals;
    unsigned Budget = 0; ///< remaining statements, bounds recursion
  };

  void buildPackages() {
    std::set<std::string> Seen;
    while (Packages.size() < Spec.NumPackages) {
      std::string P = Names.packageName(Spec.Vendor);
      if (Seen.insert(P).second)
        Packages.push_back(P);
    }
  }

  void buildStringPool() {
    size_t N = 8 + Spec.NumClasses / 2;
    if (Spec.Code == CodeStyle::StringHeavy)
      N *= 4;
    if (Spec.Code == CodeStyle::Numeric)
      N /= 4;
    for (size_t I = 0; I < std::max<size_t>(N, 4); ++I)
      StringPool.push_back(Names.stringLiteral());
  }

  std::string randomFieldDesc() {
    unsigned P = static_cast<unsigned>(R.below(100));
    switch (Spec.Code) {
    case CodeStyle::Numeric:
      if (P < 35) return "I";
      if (P < 50) return "J";
      if (P < 62) return "F";
      if (P < 75) return "D";
      if (P < 85) return "[I";
      if (P < 92) return "[F";
      break;
    case CodeStyle::StringHeavy:
      if (P < 30) return "Ljava/lang/String;";
      if (P < 50) return "I";
      if (P < 60) return "Ljava/util/Vector;";
      if (P < 68) return "Ljava/util/Hashtable;";
      break;
    case CodeStyle::Balanced:
      if (P < 30) return "I";
      if (P < 45) return "Ljava/lang/String;";
      if (P < 53) return "J";
      if (P < 58) return "F";
      if (P < 63) return "D";
      if (P < 71) return "Z";
      if (P < 76) return "[I";
      break;
    }
    // Reference to a generated class when possible: a zipf-hot head
    // plus a uniform tail, like real cross-class reference patterns.
    if (!Skeletons.empty() && R.chance(70)) {
      size_t Pick = R.chance(40) ? R.zipf(Skeletons.size())
                                 : R.below(Skeletons.size());
      return "L" + Skeletons[Pick].Internal + ";";
    }
    return "Ljava/lang/Object;";
  }

  std::string randomMethodDesc() {
    unsigned NParams = static_cast<unsigned>(R.range(0, 3));
    std::string Desc = "(";
    for (unsigned I = 0; I < NParams; ++I)
      Desc += randomFieldDesc();
    Desc += ")";
    unsigned P = static_cast<unsigned>(R.below(100));
    if (P < 45)
      Desc += "V";
    else if (P < 70)
      Desc += "I";
    else
      Desc += randomFieldDesc();
    return Desc;
  }

  void buildSkeletons() {
    Skeletons.reserve(Spec.NumClasses);
    for (unsigned I = 0; I < Spec.NumClasses; ++I) {
      Skeleton Sk;
      Sk.IsInterface = R.chance(Spec.PctInterfaces);
      const std::string &Pkg = Packages[R.zipf(Packages.size())];
      // Simple names may repeat across packages (the paper's point);
      // retry a few times only to keep internal names unique.
      for (int Try = 0; Try < 20; ++Try) {
        Sk.Internal = Pkg + "/" + Names.className();
        if (!UsedNames.count(Sk.Internal))
          break;
      }
      if (UsedNames.count(Sk.Internal))
        Sk.Internal += std::to_string(I);
      UsedNames.insert(Sk.Internal);

      if (!Sk.IsInterface) {
        // Subclass an earlier generated class sometimes.
        if (!ConcreteIdx.empty() && R.chance(30))
          Sk.Super = Skeletons[ConcreteIdx[R.zipf(ConcreteIdx.size())]]
                         .Internal;
        if (!InterfaceIdx.empty() && R.chance(25))
          Sk.Interfaces.push_back(
              Skeletons[InterfaceIdx[R.zipf(InterfaceIdx.size())]]
                  .Internal);
      }

      unsigned NFields = Sk.IsInterface
                             ? static_cast<unsigned>(R.range(0, 3))
                             : static_cast<unsigned>(R.range(
                                   1, std::max(2u, Spec.MeanFields * 2)));
      for (unsigned F = 0; F < NFields; ++F) {
        FieldSig FS;
        FS.Name = Names.fieldName();
        FS.Desc = randomFieldDesc();
        FS.IsStatic = Sk.IsInterface || R.chance(20);
        if (FS.IsStatic && R.chance(Sk.IsInterface ? 90 : 35)) {
          // static final constant
          if (FS.Desc == "I") {
            FS.HasConst = true;
            FS.ConstKindChar = 'I';
            FS.ConstInt = R.range(-4, 1000);
          } else if (FS.Desc == "J") {
            FS.HasConst = true;
            FS.ConstKindChar = 'J';
            FS.ConstInt = R.range(0, 1000000);
          } else if (FS.Desc == "Ljava/lang/String;") {
            FS.HasConst = true;
            FS.ConstKindChar = 'S';
            FS.ConstString = StringPool[R.zipf(StringPool.size())];
          }
        }
        Sk.Fields.push_back(std::move(FS));
      }

      unsigned NMethods = static_cast<unsigned>(
          R.range(1, std::max(2u, Spec.MeanMethods * 2)));
      for (unsigned M = 0; M < NMethods; ++M) {
        MethodSig MS;
        MS.Name = Names.methodName();
        MS.Desc = randomMethodDesc();
        MS.IsStatic = !Sk.IsInterface && R.chance(18);
        MS.IsAbstract = Sk.IsInterface;
        Sk.Methods.push_back(std::move(MS));
      }

      // Lint/strip knobs. Every draw below is gated on a knob being
      // non-zero, so default specs keep the historical draw sequence
      // (and therefore the golden wire hashes) bit-for-bit.
      bool Knobs =
          Spec.PctInheritedRefs > 0 || Spec.DeadMembersPerClass > 0;
      if (Knobs && !Sk.IsInterface) {
        // Inherited-ref emission must know which ancestor members are
        // visible, so visibility is decided here rather than drawn in
        // buildClass.
        for (FieldSig &FS : Sk.Fields) {
          FS.IsPrivate = R.chance(60);
          FS.PrivacyDecided = true;
        }
        for (unsigned D = 0; D < Spec.DeadMembersPerClass; ++D) {
          if (R.chance(50)) {
            FieldSig FS;
            FS.Name = Names.fieldName();
            FS.Desc = randomFieldDesc();
            FS.IsPrivate = true;
            FS.PrivacyDecided = true;
            FS.IsDead = true;
            Sk.Fields.push_back(std::move(FS));
          } else {
            MethodSig MS;
            MS.Name = Names.methodName();
            MS.Desc = randomMethodDesc();
            MS.IsPrivate = true;
            MS.IsDead = true;
            Sk.Methods.push_back(std::move(MS));
          }
        }
      }

      if (Sk.IsInterface)
        InterfaceIdx.push_back(Skeletons.size());
      else
        ConcreteIdx.push_back(Skeletons.size());
      Skeletons.push_back(std::move(Sk));
    }
  }

  //===--------------------------------------------------------------===//
  // Bodies
  //===--------------------------------------------------------------===//

  /// Pushes an int value from a local, a constant, or a field.
  void pushIntValue(BodyCtx &C) {
    // Prefer locals to produce the iload/arith patterns zlib feeds on.
    std::vector<const Local *> Ints;
    for (const Local &L : C.Locals)
      if (L.T == VType::Int)
        Ints.push_back(&L);
    if (!Ints.empty() && R.chance(55)) {
      C.B->loadLocal(VType::Int, Ints[R.below(Ints.size())]->Index);
      return;
    }
    if (R.chance(12)) {
      // A large constant now and then exercises ldc of integers.
      C.B->pushInt(static_cast<int32_t>(R.range(100000, 100040)) *
                   static_cast<int32_t>(R.range(1, 9)));
      return;
    }
    C.B->pushInt(static_cast<int32_t>(R.zipf(64)));
  }

  Local *pickLocal(BodyCtx &C, VType T) {
    std::vector<Local *> Match;
    for (Local &L : C.Locals)
      if (L.T == T)
        Match.push_back(&L);
    if (Match.empty())
      return nullptr;
    return Match[R.below(Match.size())];
  }

  Local newTypedLocal(BodyCtx &C, VType T, const std::string &RefClass) {
    Local L;
    L.T = T;
    L.Index = C.B->newLocal(T);
    L.RefClass = RefClass;
    return L;
  }

  void stmtIntArith(BodyCtx &C) {
    pushIntValue(C);
    pushIntValue(C);
    static const Op Ops[] = {Op::IAdd, Op::ISub, Op::IMul, Op::IAnd,
                             Op::IOr,  Op::IXor, Op::IShl, Op::IShr};
    C.B->op(Ops[R.below(8)]);
    Local *Dst = pickLocal(C, VType::Int);
    if (Dst && R.chance(70)) {
      C.B->storeLocal(VType::Int, Dst->Index);
    } else {
      Local L = newTypedLocal(C, VType::Int, "");
      C.B->storeLocal(VType::Int, L.Index);
      C.Locals.push_back(L);
    }
  }

  void pushLongValue(BodyCtx &C) {
    if (Local *L = pickLocal(C, VType::Long); L && R.chance(60)) {
      C.B->loadLocal(VType::Long, L->Index);
      return;
    }
    if (R.chance(30))
      C.B->pushLong(static_cast<int64_t>(R.below(3)));
    else
      // Real code's long constants are mostly small or round numbers.
      C.B->pushLong(R.range(0, 100000) * (R.chance(20) ? 1000 : 1));
  }

  void stmtLongArith(BodyCtx &C) {
    pushLongValue(C);
    pushLongValue(C);
    static const Op Ops[] = {Op::LAdd, Op::LSub, Op::LMul, Op::LAnd,
                             Op::LXor};
    C.B->op(Ops[R.below(5)]);
    Local *Dst = pickLocal(C, VType::Long);
    if (!Dst) {
      Local L = newTypedLocal(C, VType::Long, "");
      C.Locals.push_back(L);
      Dst = &C.Locals.back();
    }
    C.B->storeLocal(VType::Long, Dst->Index);
  }

  void pushDoubleValue(BodyCtx &C) {
    if (Local *L = pickLocal(C, VType::Double); L && R.chance(60)) {
      C.B->loadLocal(VType::Double, L->Index);
      return;
    }
    // Quantized values: real double constants have low-entropy bits.
    C.B->pushDouble(static_cast<double>(R.range(0, 512)) / 8.0);
  }

  void stmtDoubleArith(BodyCtx &C) {
    pushDoubleValue(C);
    pushDoubleValue(C);
    static const Op Ops[] = {Op::DAdd, Op::DSub, Op::DMul, Op::DDiv};
    C.B->op(Ops[R.below(4)]);
    Local *Dst = pickLocal(C, VType::Double);
    if (!Dst) {
      Local L = newTypedLocal(C, VType::Double, "");
      C.Locals.push_back(L);
      Dst = &C.Locals.back();
    }
    C.B->storeLocal(VType::Double, Dst->Index);
  }

  void stmtFloatArith(BodyCtx &C) {
    auto PushF = [&] {
      if (Local *L = pickLocal(C, VType::Float); L && R.chance(60))
        C.B->loadLocal(VType::Float, L->Index);
      else
        C.B->pushFloat(static_cast<float>(R.range(0, 256)) / 16.0f);
    };
    PushF();
    PushF();
    static const Op Ops[] = {Op::FAdd, Op::FSub, Op::FMul};
    C.B->op(Ops[R.below(3)]);
    Local *Dst = pickLocal(C, VType::Float);
    if (!Dst) {
      Local L = newTypedLocal(C, VType::Float, "");
      C.Locals.push_back(L);
      Dst = &C.Locals.back();
    }
    C.B->storeLocal(VType::Float, Dst->Index);
  }

  /// Half the string literals come from the shared pool (resource keys
  /// and the like recur); half are unique to their use site (error
  /// messages mostly appear once).
  std::string pickLiteral() {
    if (R.chance(50))
      return StringPool[R.zipf(StringPool.size())];
    return Names.stringLiteral();
  }

  void stmtString(BodyCtx &C) {
    const std::string S = pickLiteral();
    switch (R.below(3)) {
    case 0: { // String s = "...";
      C.B->pushString(S);
      Local L = newTypedLocal(C, VType::Ref, "java/lang/String");
      C.B->storeLocal(VType::Ref, L.Index);
      C.Locals.push_back(L);
      break;
    }
    case 1: // System.out.println("...");
      C.B->getField("java/lang/System", "out", "Ljava/io/PrintStream;",
                    /*IsStatic=*/true);
      C.B->pushString(S);
      C.B->invoke(Op::InvokeVirtual, "java/io/PrintStream", "println",
                  "(Ljava/lang/String;)V");
      break;
    default: { // new StringBuffer().append("...").append(i).toString()
      C.B->newObject("java/lang/StringBuffer");
      C.B->op(Op::Dup);
      C.B->invoke(Op::InvokeSpecial, "java/lang/StringBuffer", "<init>",
                  "()V");
      C.B->pushString(S);
      C.B->invoke(Op::InvokeVirtual, "java/lang/StringBuffer", "append",
                  "(Ljava/lang/String;)Ljava/lang/StringBuffer;");
      pushIntValue(C);
      C.B->invoke(Op::InvokeVirtual, "java/lang/StringBuffer", "append",
                  "(I)Ljava/lang/StringBuffer;");
      C.B->invoke(Op::InvokeVirtual, "java/lang/StringBuffer", "toString",
                  "()Ljava/lang/String;");
      Local L = newTypedLocal(C, VType::Ref, "java/lang/String");
      C.B->storeLocal(VType::Ref, L.Index);
      C.Locals.push_back(L);
      break;
    }
    }
  }

  /// Pushes default-ish arguments for \p Desc; returns false if that is
  /// not possible (never happens with our descriptors).
  void pushArgsFor(BodyCtx &C, const std::string &Desc) {
    auto M = parseMethodDescriptor(Desc);
    assert(M && "generated descriptor must parse");
    for (const TypeDesc &P : M->Params) {
      switch (vtypeOf(P)) {
      case VType::Int:
        pushIntValue(C);
        break;
      case VType::Long:
        pushLongValue(C);
        break;
      case VType::Float:
        C.B->pushFloat(1.0f);
        break;
      case VType::Double:
        pushDoubleValue(C);
        break;
      default:
        // Use a matching local if we have one, else null.
        if (P.Dims == 0 && P.Base == 'L') {
          for (Local &L : C.Locals)
            if (L.T == VType::Ref && L.RefClass == P.ClassName &&
                R.chance(80)) {
              C.B->loadLocal(VType::Ref, L.Index);
              goto next;
            }
        }
        C.B->pushNull();
      next:
        break;
      }
    }
  }

  /// Disposes of a call result of type \p Ret.
  void disposeResult(BodyCtx &C, const TypeDesc &Ret) {
    VType T = vtypeOf(Ret);
    if (T == VType::Void)
      return;
    if (T == VType::Long || T == VType::Double) {
      Local L = newTypedLocal(C, T, "");
      C.B->storeLocal(T, L.Index);
      C.Locals.push_back(L);
      return;
    }
    if (R.chance(50)) {
      C.B->op(Op::Pop);
      return;
    }
    Local L = newTypedLocal(
        C, T, T == VType::Ref && Ret.Dims == 0 && Ret.Base == 'L'
                  ? Ret.ClassName
                  : "");
    C.B->storeLocal(T, L.Index);
    C.Locals.push_back(L);
  }

  const Skeleton *findSkeleton(const std::string &Internal) const {
    for (const Skeleton &Sk : Skeletons)
      if (Sk.Internal == Internal)
        return &Sk;
    return nullptr;
  }

  /// Visits every generated ancestor of \p Sk (superclass chain plus
  /// the full interface closure), excluding \p Sk itself.
  template <typename Fn> void forEachAncestor(const Skeleton &Sk, Fn Visit) {
    std::vector<const Skeleton *> Work;
    std::set<const Skeleton *> Seen;
    auto Push = [&](const std::string &Name) {
      const Skeleton *S = findSkeleton(Name);
      if (S && Seen.insert(S).second)
        Work.push_back(S);
    };
    Push(Sk.Super);
    for (const std::string &I : Sk.Interfaces)
      Push(I);
    while (!Work.empty()) {
      const Skeleton *S = Work.back();
      Work.pop_back();
      Visit(*S);
      Push(S->Super);
      for (const std::string &I : S->Interfaces)
        Push(I);
    }
  }

  /// Calls a method the enclosing class inherits, naming the *subclass*
  /// as the constant-pool owner — exactly what javac emits, and the
  /// case that forces reference resolution to walk the superclass chain
  /// or interface closure. Returns false (emitting nothing) when no
  /// generated ancestor contributes a visible instance method.
  bool emitInheritedCall(BodyCtx &C) {
    std::vector<const MethodSig *> Cands;
    forEachAncestor(*C.Self, [&](const Skeleton &A) {
      for (const MethodSig &MS : A.Methods)
        if (!MS.IsStatic && !MS.IsDead && !MS.IsPrivate)
          Cands.push_back(&MS);
    });
    if (Cands.empty())
      return false;
    const MethodSig *MS = Cands[R.below(Cands.size())];
    C.B->loadLocal(VType::Ref, 0);
    pushArgsFor(C, MS->Desc);
    C.B->invoke(Op::InvokeVirtual, C.Self->Internal, MS->Name, MS->Desc);
    disposeResult(C, parseMethodDescriptor(MS->Desc)->Ret);
    return true;
  }

  /// Reads a field the enclosing class inherits, again owned by the
  /// subclass in the emitted ref. Visible non-constant ancestor fields
  /// only; interface constants are excluded like own constants are.
  bool emitInheritedGet(BodyCtx &C) {
    std::vector<const FieldSig *> Cands;
    forEachAncestor(*C.Self, [&](const Skeleton &A) {
      for (const FieldSig &F : A.Fields)
        if (!F.HasConst && !F.IsDead && !F.IsPrivate &&
            vtypeOfFieldDescriptor(F.Desc) != VType::Unknown)
          Cands.push_back(&F);
    });
    if (Cands.empty())
      return false;
    const FieldSig *F = Cands[R.below(Cands.size())];
    if (!F->IsStatic)
      C.B->loadLocal(VType::Ref, 0);
    C.B->getField(C.Self->Internal, F->Name, F->Desc, F->IsStatic);
    disposeResult(C, *parseFieldDescriptor(F->Desc));
    return true;
  }

  void stmtCall(BodyCtx &C) {
    if (Spec.PctInheritedRefs > 0 && !C.IsStatic &&
        R.chance(Spec.PctInheritedRefs) && emitInheritedCall(C))
      return;
    // Candidates: own methods (via this), methods on typed ref locals,
    // known static calls, constructing a generated class.
    unsigned P = static_cast<unsigned>(R.below(100));
    if (P < 20) { // known static call
      const KnownMethod &KM = KnownCalls[R.below(NumKnownCalls)];
      pushArgsFor(C, KM.Desc);
      C.B->invoke(KM.Kind, KM.Cls, KM.Name, KM.Desc);
      auto M = parseMethodDescriptor(KM.Desc);
      disposeResult(C, M->Ret);
      return;
    }
    if (P < 55 && !C.IsStatic && !C.Self->Methods.empty()) {
      // this.someOwnMethod(...) — seeded dead members are excluded so
      // they stay genuinely unreferenced. With the knobs off the
      // filtered list equals Methods, so the zipf draw is unchanged.
      std::vector<const MethodSig *> Own;
      for (const MethodSig &MS : C.Self->Methods)
        if (!MS.IsDead)
          Own.push_back(&MS);
      if (!Own.empty()) {
        const MethodSig &MS = *Own[R.zipf(Own.size())];
        if (!MS.IsStatic) {
          C.B->loadLocal(VType::Ref, 0);
          pushArgsFor(C, MS.Desc);
          C.B->invoke(Op::InvokeVirtual, C.Self->Internal, MS.Name,
                      MS.Desc);
        } else {
          pushArgsFor(C, MS.Desc);
          C.B->invoke(Op::InvokeStatic, C.Self->Internal, MS.Name,
                      MS.Desc);
        }
        disposeResult(C, parseMethodDescriptor(MS.Desc)->Ret);
        return;
      }
    }
    if (P < 80) {
      // Call through a typed ref local when we have one.
      std::vector<Local *> Refs;
      for (Local &L : C.Locals)
        if (L.T == VType::Ref && !L.RefClass.empty() &&
            findSkeleton(L.RefClass))
          Refs.push_back(&L);
      if (!Refs.empty()) {
        Local *Recv = Refs[R.below(Refs.size())];
        const Skeleton *Target = findSkeleton(Recv->RefClass);
        std::vector<const MethodSig *> Callable;
        for (const MethodSig &MS : Target->Methods)
          if (!MS.IsStatic && !MS.IsDead && !MS.IsPrivate)
            Callable.push_back(&MS);
        if (!Callable.empty()) {
          const MethodSig *MS = Callable[R.zipf(Callable.size())];
          C.B->loadLocal(VType::Ref, Recv->Index);
          pushArgsFor(C, MS->Desc);
          C.B->invoke(Target->IsInterface ? Op::InvokeInterface
                                          : Op::InvokeVirtual,
                      Target->Internal, MS->Name, MS->Desc);
          disposeResult(C, parseMethodDescriptor(MS->Desc)->Ret);
          return;
        }
      }
    }
    // new SomeGeneratedClass()
    if (!ConcreteIdx.empty()) {
      const Skeleton &Target =
          Skeletons[ConcreteIdx[R.zipf(ConcreteIdx.size())]];
      C.B->newObject(Target.Internal);
      C.B->op(Op::Dup);
      C.B->invoke(Op::InvokeSpecial, Target.Internal, "<init>", "()V");
      Local L = newTypedLocal(C, VType::Ref, Target.Internal);
      C.B->storeLocal(VType::Ref, L.Index);
      C.Locals.push_back(L);
    }
  }

  void stmtFieldAccess(BodyCtx &C, const Skeleton &Sk) {
    if (Spec.PctInheritedRefs > 0 && !C.IsStatic &&
        R.chance(Spec.PctInheritedRefs) && emitInheritedGet(C))
      return;
    std::vector<const FieldSig *> Usable;
    for (const FieldSig &F : Sk.Fields)
      if (!F.HasConst && !F.IsDead && (F.IsStatic || !C.IsStatic))
        Usable.push_back(&F);
    if (Usable.empty())
      return;
    const FieldSig *F = Usable[R.below(Usable.size())];
    VType T = vtypeOfFieldDescriptor(F->Desc);
    if (T == VType::Unknown)
      return;
    bool Put = R.chance(45);
    if (Put) {
      if (!F->IsStatic)
        C.B->loadLocal(VType::Ref, 0);
      switch (T) {
      case VType::Int:
        pushIntValue(C);
        break;
      case VType::Long:
        pushLongValue(C);
        break;
      case VType::Float:
        C.B->pushFloat(0.0f);
        break;
      case VType::Double:
        pushDoubleValue(C);
        break;
      default:
        C.B->pushNull();
        break;
      }
      C.B->putField(Sk.Internal, F->Name, F->Desc, F->IsStatic);
    } else {
      if (!F->IsStatic)
        C.B->loadLocal(VType::Ref, 0);
      C.B->getField(Sk.Internal, F->Name, F->Desc, F->IsStatic);
      TypeDesc TD = *parseFieldDescriptor(F->Desc);
      disposeResult(C, TD);
    }
  }

  void stmtIf(BodyCtx &C, const Skeleton &Sk) {
    pushIntValue(C);
    auto L = C.B->newLabel();
    static const Op Conds[] = {Op::IfEq, Op::IfNe, Op::IfLt,
                               Op::IfGe, Op::IfGt, Op::IfLe};
    C.B->branch(Conds[R.below(6)], L);
    // Locals born inside a branch are not definitely assigned on paths
    // that skip it, so they go out of scope with the branch body.
    size_t Scope = C.Locals.size();
    unsigned N = static_cast<unsigned>(R.range(1, 3));
    for (unsigned I = 0; I < N && C.Budget > 0; ++I)
      statement(C, Sk);
    C.Locals.resize(Scope);
    if (R.chance(40)) {
      auto LEnd = C.B->newLabel();
      C.B->branch(Op::Goto, LEnd);
      C.B->placeLabel(L);
      unsigned M = static_cast<unsigned>(R.range(1, 2));
      for (unsigned I = 0; I < M && C.Budget > 0; ++I)
        statement(C, Sk);
      C.Locals.resize(Scope);
      C.B->placeLabel(LEnd);
    } else {
      C.B->placeLabel(L);
    }
  }

  void stmtLoop(BodyCtx &C, const Skeleton &Sk) {
    Local I = newTypedLocal(C, VType::Int, "");
    C.Locals.push_back(I);
    C.B->pushInt(0);
    C.B->storeLocal(VType::Int, I.Index);
    auto LCond = C.B->newLabel();
    auto LEnd = C.B->newLabel();
    C.B->placeLabel(LCond);
    C.B->loadLocal(VType::Int, I.Index);
    C.B->pushInt(static_cast<int32_t>(R.range(2, 64)));
    C.B->branch(Op::IfICmpGe, LEnd);
    // The body may run zero times; its locals go out of scope with it.
    size_t Scope = C.Locals.size();
    unsigned N = static_cast<unsigned>(R.range(1, 3));
    for (unsigned K = 0; K < N && C.Budget > 0; ++K)
      statement(C, Sk);
    C.Locals.resize(Scope);
    C.B->iinc(I.Index, 1);
    C.B->branch(Op::Goto, LCond);
    C.B->placeLabel(LEnd);
  }

  void stmtArray(BodyCtx &C) {
    C.B->pushInt(static_cast<int32_t>(R.range(2, 40)));
    C.B->newArray('I');
    Local A = newTypedLocal(C, VType::Ref, "");
    C.B->storeLocal(VType::Ref, A.Index);
    C.Locals.push_back(A);
    // arr[k] = v; v2 = arr[k2];
    C.B->loadLocal(VType::Ref, A.Index);
    C.B->pushInt(static_cast<int32_t>(R.below(2)));
    pushIntValue(C);
    C.B->op(Op::IAStore);
    C.B->loadLocal(VType::Ref, A.Index);
    C.B->pushInt(0);
    C.B->op(Op::IALoad);
    C.B->op(Op::Pop);
  }

  void stmtSwitch(BodyCtx &C, const Skeleton &Sk) {
    pushIntValue(C);
    unsigned N = static_cast<unsigned>(R.range(3, 6));
    std::vector<BytecodeBuilder::Label> Cases;
    for (unsigned I = 0; I < N; ++I)
      Cases.push_back(C.B->newLabel());
    auto LDefault = C.B->newLabel();
    auto LEnd = C.B->newLabel();
    bool Table = R.chance(60);
    if (Table) {
      C.B->tableSwitch(0, Cases, LDefault);
    } else {
      std::vector<int32_t> Keys;
      int32_t K = 0;
      for (unsigned I = 0; I < N; ++I) {
        K += static_cast<int32_t>(R.range(1, 9));
        Keys.push_back(K);
      }
      C.B->lookupSwitch(Keys, Cases, LDefault);
    }
    for (unsigned I = 0; I < N; ++I) {
      C.B->placeLabel(Cases[I]);
      // Case-local variables are only assigned when that case runs.
      size_t Scope = C.Locals.size();
      if (C.Budget > 0)
        statement(C, Sk);
      C.Locals.resize(Scope);
      C.B->branch(Op::Goto, LEnd);
    }
    C.B->placeLabel(LDefault);
    C.B->placeLabel(LEnd);
  }

  void stmtTryCatch(BodyCtx &C, const Skeleton &Sk) {
    auto LStart = C.B->newLabel();
    auto LEndTry = C.B->newLabel();
    auto LHandler = C.B->newLabel();
    auto LDone = C.B->newLabel();
    C.B->placeLabel(LStart);
    // The protected range must be non-empty, and the handler can fire
    // anywhere inside it, so try-body locals do not survive the block.
    size_t Scope = C.Locals.size();
    stmtIntArith(C);
    unsigned N = static_cast<unsigned>(R.range(1, 2));
    for (unsigned I = 1; I < N && C.Budget > 0; ++I)
      statement(C, Sk);
    C.Locals.resize(Scope);
    C.B->placeLabel(LEndTry);
    C.B->branch(Op::Goto, LDone);
    C.B->placeLabel(LHandler);
    C.B->beginHandler();
    // The caught exception is only assigned on the handler path; keep
    // it out of scope so fallthrough code never reads it.
    Local E = newTypedLocal(C, VType::Ref, "java/lang/Exception");
    C.B->storeLocal(VType::Ref, E.Index);
    C.B->placeLabel(LDone);
    C.B->addExceptionRegion(LStart, LEndTry, LHandler,
                            R.chance(80) ? "java/lang/Exception" : "");
  }

  void statement(BodyCtx &C, const Skeleton &Sk) {
    if (C.Budget == 0)
      return;
    --C.Budget;
    unsigned P = static_cast<unsigned>(R.below(100));
    switch (Spec.Code) {
    case CodeStyle::Numeric:
      if (P < 28) return stmtIntArith(C);
      if (P < 42) return stmtLongArith(C);
      if (P < 52) return stmtFloatArith(C);
      if (P < 64) return stmtDoubleArith(C);
      if (P < 74) return stmtArray(C);
      if (P < 84) return stmtLoop(C, Sk);
      if (P < 92) return stmtIf(C, Sk);
      if (P < 97) return stmtFieldAccess(C, Sk);
      return stmtCall(C);
    case CodeStyle::StringHeavy:
      if (P < 30) return stmtString(C);
      if (P < 45) return stmtCall(C);
      if (P < 60) return stmtIntArith(C);
      if (P < 72) return stmtFieldAccess(C, Sk);
      if (P < 82) return stmtIf(C, Sk);
      if (P < 88) return stmtLoop(C, Sk);
      if (P < 92) return stmtTryCatch(C, Sk);
      if (P < 96) return stmtSwitch(C, Sk);
      return stmtArray(C);
    case CodeStyle::Balanced:
      break;
    }
    if (P < 20) return stmtIntArith(C);
    if (P < 35) return stmtCall(C);
    if (P < 48) return stmtFieldAccess(C, Sk);
    if (P < 60) return stmtIf(C, Sk);
    if (P < 70) return stmtString(C);
    if (P < 78) return stmtLoop(C, Sk);
    if (P < 84) return stmtArray(C);
    if (P < 89) return stmtLongArith(C);
    if (P < 93) return stmtDoubleArith(C);
    if (P < 97) return stmtTryCatch(C, Sk);
    return stmtSwitch(C, Sk);
  }

  /// Emits the final return, producing a value of the method's return
  /// type.
  void emitReturn(BodyCtx &C, const std::string &Desc) {
    auto M = parseMethodDescriptor(Desc);
    VType T = vtypeOf(M->Ret);
    switch (T) {
    case VType::Void:
      break;
    case VType::Int:
      pushIntValue(C);
      break;
    case VType::Long:
      pushLongValue(C);
      break;
    case VType::Float:
      C.B->pushFloat(0.0f);
      break;
    case VType::Double:
      pushDoubleValue(C);
      break;
    default:
      if (M->Ret.Dims == 0 && M->Ret.Base == 'L' &&
          M->Ret.ClassName == "java/lang/String" && R.chance(60)) {
        C.B->pushString(pickLiteral());
      } else {
        C.B->pushNull();
      }
      break;
    }
    C.B->ret(T);
  }

  CodeAttribute buildBody(ConstantPool &CP, const Skeleton &Sk,
                          const MethodSig &MS) {
    auto M = parseMethodDescriptor(MS.Desc);
    assert(M && "generated descriptor must parse");
    unsigned Slots = MS.IsStatic ? 0 : 1;
    BodyCtx C;
    std::vector<Local> Params;
    for (const TypeDesc &P : M->Params) {
      Local L;
      L.T = vtypeOf(P);
      L.Index = Slots;
      if (P.Dims == 0 && P.Base == 'L')
        L.RefClass = P.ClassName;
      Slots += (L.T == VType::Long || L.T == VType::Double) ? 2 : 1;
      Params.push_back(L);
    }
    BytecodeBuilder B(CP, Slots);
    C.B = &B;
    C.Self = &Sk;
    C.IsStatic = MS.IsStatic;
    C.Locals = std::move(Params);
    C.Budget = static_cast<unsigned>(
        R.range(1, std::max(2u, Spec.MeanStatements * 2)));
    while (C.Budget > 0)
      statement(C, Sk);
    emitReturn(C, MS.Desc);
    return B.finish();
  }

  CodeAttribute buildCtor(ConstantPool &CP, const Skeleton &Sk) {
    BytecodeBuilder B(CP, 1);
    B.loadLocal(VType::Ref, 0);
    B.invoke(Op::InvokeSpecial, Sk.Super, "<init>", "()V");
    // Initialize a few instance fields (never seeded dead ones — a
    // putfield here would make them reachable).
    for (const FieldSig &F : Sk.Fields) {
      if (F.IsStatic || F.IsDead || !R.chance(50))
        continue;
      VType T = vtypeOfFieldDescriptor(F.Desc);
      B.loadLocal(VType::Ref, 0);
      switch (T) {
      case VType::Int:
        B.pushInt(static_cast<int32_t>(R.zipf(16)));
        break;
      case VType::Long:
        B.pushLong(0);
        break;
      case VType::Float:
        B.pushFloat(0.0f);
        break;
      case VType::Double:
        B.pushDouble(0.0);
        break;
      default:
        if (F.Desc == "Ljava/lang/String;")
          B.pushString(StringPool[R.zipf(StringPool.size())]);
        else
          B.pushNull();
        break;
      }
      B.putField(Sk.Internal, F.Name, F.Desc, /*IsStatic=*/false);
    }
    B.ret(VType::Void);
    return B.finish();
  }

  ClassFile buildClass(const Skeleton &Sk) {
    ClassFile CF;
    CF.AccessFlags = AccPublic | (Sk.IsInterface
                                      ? (AccInterface | AccAbstract)
                                      : AccSuper);
    CF.ThisClass = CF.CP.addClass(Sk.Internal);
    CF.SuperClass = CF.CP.addClass(Sk.Super);
    for (const std::string &I : Sk.Interfaces)
      CF.Interfaces.push_back(CF.CP.addClass(I));

    for (const FieldSig &F : Sk.Fields) {
      MemberInfo MI;
      MI.AccessFlags = static_cast<uint16_t>(
          (F.IsStatic ? AccStatic : 0) |
          (Sk.IsInterface
               ? (AccPublic | AccFinal | AccStatic)
               : (F.PrivacyDecided
                      ? (F.IsPrivate ? AccPrivate : AccPublic)
                      : (R.chance(60) ? AccPrivate : AccPublic))));
      if (F.HasConst)
        MI.AccessFlags |= AccFinal;
      MI.NameIndex = CF.CP.addUtf8(F.Name);
      MI.DescriptorIndex = CF.CP.addUtf8(F.Desc);
      if (F.HasConst) {
        uint16_t CIdx = 0;
        switch (F.ConstKindChar) {
        case 'I':
          CIdx = CF.CP.addInteger(static_cast<int32_t>(F.ConstInt));
          break;
        case 'J':
          CIdx = CF.CP.addLong(F.ConstInt);
          break;
        case 'S':
          CIdx = CF.CP.addString(F.ConstString);
          break;
        default:
          break;
        }
        if (CIdx != 0) {
          ByteWriter W;
          W.writeU2(CIdx);
          MI.Attributes.push_back(
              {"ConstantValue", CF.arena().adopt(W.take())});
        }
      }
      CF.Fields.push_back(std::move(MI));
    }

    if (!Sk.IsInterface) {
      MemberInfo Ctor;
      Ctor.AccessFlags = AccPublic;
      Ctor.NameIndex = CF.CP.addUtf8("<init>");
      Ctor.DescriptorIndex = CF.CP.addUtf8("()V");
      CodeAttribute Code = buildCtor(CF.CP, Sk);
      if (Spec.EmitDebugInfo)
        attachDebugInfo(CF.CP, Code, 1);
      Ctor.Attributes.push_back(encodeCodeAttribute(Code, CF.CP));
      CF.Methods.push_back(std::move(Ctor));
    }

    for (const MethodSig &MS : Sk.Methods) {
      MemberInfo MI;
      MI.AccessFlags = static_cast<uint16_t>(
          (MS.IsPrivate ? AccPrivate : AccPublic) |
          (MS.IsStatic ? AccStatic : 0) |
          (MS.IsAbstract ? AccAbstract : 0));
      MI.NameIndex = CF.CP.addUtf8(MS.Name);
      MI.DescriptorIndex = CF.CP.addUtf8(MS.Desc);
      if (!MS.IsAbstract) {
        CodeAttribute Code = buildBody(CF.CP, Sk, MS);
        if (Spec.EmitDebugInfo)
          attachDebugInfo(CF.CP, Code,
                          MS.IsStatic ? 0u : 1u);
        MI.Attributes.push_back(encodeCodeAttribute(Code, CF.CP));
        if (R.chance(12)) {
          ByteWriter W;
          W.writeU2(1);
          W.writeU2(CF.CP.addClass("java/io/IOException"));
          MI.Attributes.push_back(
              {"Exceptions", CF.arena().adopt(W.take())});
        }
      }
      CF.Methods.push_back(std::move(MI));
    }

    if (Spec.EmitDebugInfo) {
      size_t Slash = Sk.Internal.rfind('/');
      std::string Simple = Slash == std::string::npos
                               ? Sk.Internal
                               : Sk.Internal.substr(Slash + 1);
      ByteWriter W;
      W.writeU2(CF.CP.addUtf8(Simple + ".java"));
      CF.Attributes.push_back({"SourceFile", CF.arena().adopt(W.take())});
    }
    return CF;
  }

  /// Adds LineNumberTable and (sometimes) LocalVariableTable attributes
  /// to \p Code, as javac does by default.
  void attachDebugInfo(ConstantPool &CP, CodeAttribute &Code,
                       unsigned ThisSlots) {
    auto Insns = decodeCode(Code.Code);
    if (!Insns)
      return;
    ByteWriter LNT;
    uint16_t Entries = 0;
    unsigned Line = static_cast<unsigned>(R.range(10, 400));
    ByteWriter Body;
    for (size_t K = 0; K < Insns->size(); K += 2 + R.below(3)) {
      Body.writeU2(static_cast<uint16_t>((*Insns)[K].Offset));
      Body.writeU2(static_cast<uint16_t>(Line));
      Line += 1 + static_cast<unsigned>(R.below(3));
      ++Entries;
    }
    LNT.writeU2(Entries);
    LNT.writeBytes(Body.data());
    Code.Attributes.push_back(
        {"LineNumberTable", CP.arena().adopt(LNT.take())});

    if (R.chance(55)) {
      ByteWriter LVT;
      uint16_t N = static_cast<uint16_t>(ThisSlots + R.below(3));
      LVT.writeU2(N);
      for (uint16_t K = 0; K < N; ++K) {
        LVT.writeU2(0);
        LVT.writeU2(static_cast<uint16_t>(Code.Code.size()));
        LVT.writeU2(CP.addUtf8(K == 0 && ThisSlots ? "this"
                                                   : Names.fieldName()));
        LVT.writeU2(CP.addUtf8(K == 0 && ThisSlots
                                   ? "Ljava/lang/Object;"
                                   : "I"));
        LVT.writeU2(K);
      }
      Code.Attributes.push_back(
          {"LocalVariableTable", CP.arena().adopt(LVT.take())});
    }
  }

  const CorpusSpec &Spec;
  Rng R;
  NameGen Names;
  std::vector<std::string> Packages;
  std::vector<std::string> StringPool;
  std::vector<Skeleton> Skeletons;
  std::vector<size_t> ConcreteIdx, InterfaceIdx;
  std::set<std::string> UsedNames;
};

} // namespace

std::vector<ClassFile>
cjpack::generateCorpusClasses(const CorpusSpec &Spec) {
  return CorpusGenerator(Spec).run();
}

std::vector<NamedClass> cjpack::generateCorpus(const CorpusSpec &Spec) {
  std::vector<ClassFile> Classes = generateCorpusClasses(Spec);
  std::vector<NamedClass> Out;
  Out.reserve(Classes.size());
  for (const ClassFile &CF : Classes) {
    NamedClass C;
    C.Name = std::string(CF.thisClassName()) + ".class";
    C.Data = writeClassFile(CF);
    Out.push_back(std::move(C));
  }
  return Out;
}

std::vector<NamedClass> cjpack::nonCanonicalShapes(const NamedClass &Class) {
  std::vector<NamedClass> Out;
  auto Add = [&](const char *Shape, auto Edit) {
    auto CF = parseClassFile(Class.Data);
    if (!CF)
      return;
    for (MemberInfo &M : CF->Methods)
      if (auto Name = CF->CP.checkedUtf8(M.NameIndex);
          Name && *Name == "<init>") {
        Edit(*CF, M);
        Out.push_back({Shape, writeClassFile(*CF)});
        return;
      }
  };
  Add("duplicate-init-utf8", [](ClassFile &CF, MemberInfo &Ctor) {
    CpEntry Init;
    Init.Tag = CpTag::Utf8;
    Init.Text = "<init>";
    Ctor.NameIndex = CF.CP.appendRaw(Init);
  });
  Add("exceptions-before-code", [](ClassFile &CF, MemberInfo &Ctor) {
    ByteWriter W;
    W.writeU2(1);
    W.writeU2(CF.CP.addClass("java/io/IOException"));
    Ctor.Attributes.insert(Ctor.Attributes.begin(),
                           {"Exceptions", CF.arena().adopt(W.take())});
  });
  Add("deprecated-before-code", [](ClassFile &, MemberInfo &Ctor) {
    Ctor.Attributes.insert(Ctor.Attributes.begin(), {"Deprecated", {}});
  });
  Add("synthetic-twice", [](ClassFile &CF, MemberInfo &) {
    CF.Attributes.push_back({"Synthetic", {}});
    CF.Attributes.push_back({"Synthetic", {}});
  });
  return Out;
}

//===----------------------------------------------------------------------===//
// Paper benchmark specs (Table 1)
//===----------------------------------------------------------------------===//

std::vector<CorpusSpec> cjpack::paperBenchmarks(double Scale) {
  auto Mk = [&](const char *Name, const char *Desc, uint64_t Seed,
                unsigned Classes, unsigned Packages, unsigned Methods,
                unsigned Stmts, NameStyle Style, CodeStyle Code,
                const char *Vendor) {
    CorpusSpec S;
    S.Name = Name;
    S.Description = Desc;
    S.Seed = Seed;
    S.NumClasses =
        std::max(2u, static_cast<unsigned>(Classes * Scale + 0.5));
    S.NumPackages = std::max(1u, std::min(Packages, S.NumClasses));
    S.MeanMethods = Methods;
    S.MeanFields = 5;
    S.MeanStatements = Stmts;
    S.Style = Style;
    S.Code = Code;
    S.Vendor = Vendor;
    return S;
  };
  // Class counts calibrated so sj0r totals approximate Table 1.
  return {
      Mk("rt", "Java 1.2 runtime", 101, 2699, 48, 8, 9,
         NameStyle::Normal, CodeStyle::Balanced, "java"),
      Mk("swingall", "JFC/Swing 1.1 GUI widgets", 102, 853, 14, 9, 9,
         NameStyle::Normal, CodeStyle::Balanced, "javax/swing"),
      Mk("tools", "Java 1.2 tools (javadoc, javac, jar)", 103, 460, 9, 8, 9, NameStyle::Normal, CodeStyle::Balanced, "sun/tools"),
      Mk("icebrowserbean", "HTML browser bean", 104, 75, 3, 8, 9,
         NameStyle::Normal, CodeStyle::Balanced, "ice/browser"),
      Mk("jmark20", "Byte's Java benchmark", 105, 105, 4, 8, 14,
         NameStyle::Normal, CodeStyle::Numeric, "com/bytemark"),
      Mk("visaj", "visual GUI builder", 106, 616, 10, 8, 9,
         NameStyle::Normal, CodeStyle::Balanced, "com/visaj"),
      Mk("ImageEditor", "image editor from VisaJ", 107, 129, 5, 8, 9,
         NameStyle::Normal, CodeStyle::Balanced, "com/visaj/image"),
      Mk("Hanoi", "demo applet distributed with Jax", 108, 27, 2, 8, 9,
         NameStyle::Normal, CodeStyle::Balanced, "com/hanoi"),
      Mk("Hanoi_big", "Hanoi, partially jax'd", 109, 18, 2, 8, 9,
         NameStyle::Obfuscated, CodeStyle::Balanced, "com/hanoi"),
      Mk("Hanoi_jax", "Hanoi, fully jax'd", 110, 10, 1, 8, 9,
         NameStyle::Obfuscated, CodeStyle::Balanced, "com/hanoi"),
      Mk("javafig", "Java version of xfig", 111, 109, 4, 8, 9,
         NameStyle::Normal, CodeStyle::Balanced, "javafig"),
      Mk("javafig_dashO", "javafig processed by DashO", 112, 85, 3, 8, 9, NameStyle::Obfuscated, CodeStyle::Balanced, "javafig"),
      Mk("compress", "SPEC 201: modified Lempel-Ziv (LZW)", 113, 5, 1, 8,
         16, NameStyle::Normal, CodeStyle::Numeric, "spec/compress"),
      Mk("jess", "SPEC 202: Java expert shell system", 114, 58, 3, 8, 9, NameStyle::Normal, CodeStyle::StringHeavy, "spec/jess"),
      Mk("raytrace", "SPEC 205: raytracing a dinosaur", 115, 18, 2, 8,
         14, NameStyle::Normal, CodeStyle::Numeric, "spec/raytrace"),
      Mk("db", "SPEC 209: memory-resident database", 116, 2, 1, 8, 9,
         NameStyle::Normal, CodeStyle::StringHeavy, "spec/db"),
      Mk("javac", "SPEC 213: Sun's JDK 1.0.2 compiler", 117, 149, 6, 8, 9, NameStyle::Normal, CodeStyle::Balanced, "sun/javac"),
      Mk("mpegaudio", "SPEC 222: MPEG layer 3 decoder", 118, 30, 2, 9,
         18, NameStyle::Normal, CodeStyle::Numeric, "spec/mpegaudio"),
      Mk("jack", "SPEC 228: parser generator (PCCTS)", 119, 27, 2, 8, 9,
         NameStyle::Normal, CodeStyle::StringHeavy, "spec/jack"),
  };
}

CorpusSpec cjpack::scaleBenchmark(unsigned NumClasses) {
  CorpusSpec S;
  S.Name = "scale" + std::to_string(NumClasses);
  S.Description = "scale campaign corpus";
  S.Seed = 9001;
  S.NumClasses = NumClasses;
  // ~50 classes per package keeps the package pool realistic for big
  // jars (rt.jar-era layouts) without degenerating to one package.
  S.NumPackages = std::max(1u, NumClasses / 50);
  S.MeanMethods = 10;
  S.MeanFields = 6;
  S.MeanStatements = 14;
  S.Vendor = "com/scale";
  return S;
}

CorpusSpec cjpack::paperBenchmark(const std::string &Name, double Scale) {
  for (CorpusSpec &S : paperBenchmarks(Scale))
    if (S.Name == Name)
      return S;
  assert(false && "unknown paper benchmark name");
  return CorpusSpec();
}
