//===- ArchiveAnalysis.cpp - Whole-archive static analysis ----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ArchiveAnalysis.h"
#include "bytecode/Instruction.h"
#include "support/ByteBuffer.h"
#include <algorithm>
#include <optional>
#include <set>

using namespace cjpack;
using namespace cjpack::analysis;

const char *cjpack::analysis::refVerdictName(RefVerdict V) {
  switch (V) {
  case RefVerdict::Resolved: return "resolved";
  case RefVerdict::External: return "external";
  case RefVerdict::Dangling: return "dangling";
  case RefVerdict::Ambiguous: return "ambiguous";
  case RefVerdict::KindMismatch: return "kind-mismatch";
  }
  return "?";
}

bool cjpack::analysis::isPlatformClassName(std::string_view Name) {
  return Name.starts_with("java/") || Name.starts_with("javax/") ||
         Name.starts_with("jdk/") || Name.starts_with("sun/");
}

bool cjpack::analysis::isKnownObjectMethod(std::string_view Name,
                                           std::string_view Desc) {
  // java/lang/Object's inheritable methods, fixed since JDK 1.0: the
  // public set plus the protected clone/finalize. <init> is never
  // inherited and registerNatives is private, so neither is listed.
  static const std::pair<const char *, const char *> Methods[] = {
      {"equals", "(Ljava/lang/Object;)Z"},
      {"hashCode", "()I"},
      {"toString", "()Ljava/lang/String;"},
      {"getClass", "()Ljava/lang/Class;"},
      {"notify", "()V"},
      {"notifyAll", "()V"},
      {"wait", "()V"},
      {"wait", "(J)V"},
      {"wait", "(JI)V"},
      {"clone", "()Ljava/lang/Object;"},
      {"finalize", "()V"},
  };
  for (const auto &[N, D] : Methods)
    if (Name == N && Desc == D)
      return true;
  return false;
}

namespace {

/// Utf8 text at \p Index, or nullptr when the slot is missing or holds
/// another tag. All constant-pool access below goes through these
/// checked helpers — analysis input may be hostile.
const std::string_view *utf8At(const ConstantPool &CP, uint16_t Index) {
  if (!CP.isValidIndex(Index) || CP.entry(Index).Tag != CpTag::Utf8)
    return nullptr;
  return &CP.entry(Index).Text;
}

/// Internal name of the Class entry at \p Index, or nullptr.
const std::string_view *classNameAt(const ConstantPool &CP, uint16_t Index) {
  if (!CP.isValidIndex(Index) || CP.entry(Index).Tag != CpTag::Class)
    return nullptr;
  return utf8At(CP, CP.entry(Index).Ref1);
}

/// A decoded Fieldref/Methodref/InterfaceMethodref.
struct MemberRefParts {
  CpTag Tag = CpTag::None;
  const std::string_view *Owner = nullptr;
  const std::string_view *Name = nullptr;
  const std::string_view *Desc = nullptr;
};

/// Decodes the member ref at \p Index; nullopt when the slot holds a
/// different tag, std::nullopt-with-Tag (Owner null) when the ref's
/// internal structure is broken.
std::optional<MemberRefParts> memberRefAt(const ConstantPool &CP,
                                          uint16_t Index) {
  if (!CP.isValidIndex(Index))
    return std::nullopt;
  const CpEntry &E = CP.entry(Index);
  if (E.Tag != CpTag::FieldRef && E.Tag != CpTag::MethodRef &&
      E.Tag != CpTag::InterfaceMethodRef)
    return std::nullopt;
  MemberRefParts P;
  P.Tag = E.Tag;
  P.Owner = classNameAt(CP, E.Ref1);
  if (CP.isValidIndex(E.Ref2) &&
      CP.entry(E.Ref2).Tag == CpTag::NameAndType) {
    P.Name = utf8At(CP, CP.entry(E.Ref2).Ref1);
    P.Desc = utf8At(CP, CP.entry(E.Ref2).Ref2);
  }
  return P;
}

const std::string_view *memberName(const ClassFile &CF, const MemberInfo &M) {
  return utf8At(CF.CP, M.NameIndex);
}

const std::string_view *memberDesc(const ClassFile &CF, const MemberInfo &M) {
  return utf8At(CF.CP, M.DescriptorIndex);
}

/// Finds the member named \p Name:\p Desc in \p List, or -1.
int32_t findMember(const ClassFile &CF, const std::vector<MemberInfo> &List,
                   std::string_view Name, std::string_view Desc) {
  for (size_t K = 0; K < List.size(); ++K) {
    const std::string_view *N = memberName(CF, List[K]);
    const std::string_view *D = memberDesc(CF, List[K]);
    if (N && D && *N == Name && *D == Desc)
      return static_cast<int32_t>(K);
  }
  return -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// ClassHierarchy
//===----------------------------------------------------------------------===//

int32_t ClassHierarchy::internNode(std::string_view Name) {
  auto [It, Inserted] =
      ByName.try_emplace(Name, static_cast<int32_t>(Nodes.size()));
  if (Inserted) {
    HierarchyNode N;
    N.Name = Name;
    Nodes.push_back(std::move(N));
  }
  return It->second;
}

int32_t ClassHierarchy::lookup(std::string_view Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? ClassNone : It->second;
}

ClassHierarchy ClassHierarchy::build(const std::vector<ClassFile> &Classes) {
  ClassHierarchy H;
  // First pass: claim a node for every class the archive defines, so a
  // later class's superclass edge can land on an earlier definition
  // regardless of input order.
  for (size_t K = 0; K < Classes.size(); ++K) {
    const ClassFile &CF = Classes[K];
    const std::string_view *Name = classNameAt(CF.CP, CF.ThisClass);
    if (!Name) {
      H.Malformed.push_back(static_cast<int32_t>(K));
      continue;
    }
    int32_t Id = H.internNode(*Name);
    HierarchyNode &N = H.Nodes[static_cast<size_t>(Id)];
    if (N.Def) {
      H.Duplicates.push_back(static_cast<int32_t>(K));
      continue;
    }
    N.Def = &CF;
    N.ClassIndex = static_cast<int32_t>(K);
    N.IsInterface = (CF.AccessFlags & AccInterface) != 0;
  }
  // Second pass: superclass and interface edges, creating external
  // nodes for ancestors the archive only mentions. Indexed access, not
  // references: internNode may grow Nodes and reallocate. The loop
  // bound is re-read each iteration, but appended external nodes have
  // no Def and are skipped.
  for (size_t K = 0; K < H.Nodes.size(); ++K) {
    if (!H.Nodes[K].Def)
      continue;
    const ClassFile &CF = *H.Nodes[K].Def;
    if (CF.SuperClass != 0)
      if (const std::string_view *Super = classNameAt(CF.CP, CF.SuperClass)) {
        int32_t Id = H.internNode(*Super);
        H.Nodes[K].Super = Id;
      }
    for (uint16_t I : CF.Interfaces)
      if (const std::string_view *Iface = classNameAt(CF.CP, I)) {
        int32_t Id = H.internNode(*Iface);
        H.Nodes[K].Interfaces.push_back(Id);
      }
  }
  H.computeCycles();
  return H;
}

void ClassHierarchy::computeCycles() {
  // Tarjan's SCC over the super+interface edges, iteratively: any node
  // in a component of size > 1 (or with a self edge) is on a cycle.
  // External nodes have no outgoing edges, so cycles are archive-made.
  const size_t N = Nodes.size();
  std::vector<int32_t> Index(N, -1);
  std::vector<int32_t> Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<int32_t> Stack;
  int32_t Next = 0;

  auto EdgesOf = [&](int32_t V) {
    std::vector<int32_t> E;
    const HierarchyNode &Node = Nodes[static_cast<size_t>(V)];
    if (Node.Super != ClassNone)
      E.push_back(Node.Super);
    E.insert(E.end(), Node.Interfaces.begin(), Node.Interfaces.end());
    return E;
  };

  struct WorkItem {
    int32_t Node;
    size_t EdgeIx;
  };
  for (size_t Root = 0; Root < N; ++Root) {
    if (Index[Root] != -1)
      continue;
    std::vector<WorkItem> Work{{static_cast<int32_t>(Root), 0}};
    Index[Root] = Low[Root] = Next++;
    Stack.push_back(static_cast<int32_t>(Root));
    OnStack[Root] = true;
    while (!Work.empty()) {
      int32_t V = Work.back().Node;
      std::vector<int32_t> E = EdgesOf(V);
      if (Work.back().EdgeIx < E.size()) {
        int32_t W = E[Work.back().EdgeIx++];
        if (Index[W] == -1) {
          Index[W] = Low[W] = Next++;
          Stack.push_back(W);
          OnStack[W] = true;
          Work.push_back({W, 0});
        } else if (OnStack[W]) {
          Low[V] = std::min(Low[V], Index[W]);
        }
      } else {
        Work.pop_back();
        if (!Work.empty()) {
          int32_t Parent = Work.back().Node;
          Low[Parent] = std::min(Low[Parent], Low[V]);
        }
        if (Low[V] == Index[V]) {
          std::vector<int32_t> Scc;
          for (;;) {
            int32_t W = Stack.back();
            Stack.pop_back();
            OnStack[W] = false;
            Scc.push_back(W);
            if (W == V)
              break;
          }
          bool Cyclic = Scc.size() > 1;
          if (!Cyclic) {
            const HierarchyNode &Node = Nodes[static_cast<size_t>(V)];
            Cyclic = Node.Super == V ||
                     std::find(Node.Interfaces.begin(), Node.Interfaces.end(),
                               V) != Node.Interfaces.end();
          }
          if (Cyclic)
            for (int32_t W : Scc)
              Nodes[static_cast<size_t>(W)].OnCycle = true;
        }
      }
    }
  }
}

int32_t ClassHierarchy::leastCommonSuperclass(int32_t A, int32_t B) const {
  if (A == B)
    return isDefined(A) ? A : ClassNone;
  if (!isDefined(A) || !isDefined(B))
    return ClassNone;
  // Collect A's in-archive superclass chain (cycle nodes are walk
  // boundaries), then walk B's until it lands on the chain.
  std::set<int32_t> Chain;
  for (int32_t C = A; isDefined(C) && !node(C).OnCycle;) {
    if (!Chain.insert(C).second)
      break;
    C = node(C).Super;
  }
  std::set<int32_t> Seen;
  for (int32_t C = B; isDefined(C) && !node(C).OnCycle;) {
    if (Chain.count(C))
      return C;
    if (!Seen.insert(C).second)
      break;
    C = node(C).Super;
  }
  return ClassNone;
}

bool ClassHierarchy::isSubtypeOf(int32_t Derived, int32_t Base) const {
  if (Derived < 0 || Base < 0)
    return false;
  std::set<int32_t> Seen;
  std::vector<int32_t> Work{Derived};
  while (!Work.empty()) {
    int32_t C = Work.back();
    Work.pop_back();
    if (C == Base)
      return true;
    if (C < 0 || !Seen.insert(C).second)
      continue;
    const HierarchyNode &N = node(C);
    if (N.Super != ClassNone)
      Work.push_back(N.Super);
    Work.insert(Work.end(), N.Interfaces.begin(), N.Interfaces.end());
  }
  return false;
}

int32_t ClassHierarchy::joinRefClasses(int32_t A, int32_t B) const {
  if (A == B)
    return A;
  if (A == ClassNull)
    return B;
  if (B == ClassNull)
    return A;
  if (A < 0 || B < 0)
    return ClassNone;
  return leastCommonSuperclass(A, B);
}

//===----------------------------------------------------------------------===//
// Reference resolution (JVMS 5.4.3, closed over the archive)
//===----------------------------------------------------------------------===//

namespace {

/// Shared walk state: whether a search escaped the archive, and whether
/// the escape point was exactly java/lang/Object (whose member set is
/// known, so the search can still conclude "dangling").
struct SearchBoundary {
  bool External = false;
  bool Object = false;
};

} // namespace

/// Collects the defined superinterface closure of \p Start (for classes:
/// contributed by every class on the superclass chain). Sets boundary
/// flags for external interfaces or an external chain.
static void interfaceClosure(const ClassHierarchy &H, int32_t Start,
                             std::vector<int32_t> &Out, SearchBoundary &B) {
  std::set<int32_t> Seen;
  std::vector<int32_t> Work{Start};
  while (!Work.empty()) {
    int32_t C = Work.back();
    Work.pop_back();
    if (C < 0 || !Seen.insert(C).second)
      continue;
    const HierarchyNode &N = H.node(C);
    if (!N.Def) {
      if (N.Name == "java/lang/Object")
        B.Object = true;
      else
        B.External = true;
      continue;
    }
    if (N.OnCycle) {
      B.External = true; // cycle walks are unreliable; stop claiming
      continue;
    }
    if (N.IsInterface && C != Start)
      Out.push_back(C);
    if (N.Super != ClassNone)
      Work.push_back(N.Super);
    Work.insert(Work.end(), N.Interfaces.begin(), N.Interfaces.end());
  }
  // The start node itself counts when it is an interface.
  if (H.isDefined(Start) && H.node(Start).IsInterface)
    Out.push_back(Start);
}

RefResolution ClassHierarchy::resolveField(std::string_view OwnerName,
                                           std::string_view Name,
                                           std::string_view Desc) const {
  RefResolution R;
  if (OwnerName.starts_with("[")) // arrays declare no fields; the ref
    return R;                     // targets the runtime, not the archive
  int32_t Owner = lookup(OwnerName);
  if (!isDefined(Owner))
    return R;
  // JVMS 5.4.3.2: C's own fields, then superinterfaces (constants),
  // then the superclass chain — implemented as chain-of-(self +
  // interfaces) which visits the same classes in a compatible order.
  SearchBoundary B;
  std::set<int32_t> Seen;
  for (int32_t C = Owner; C != ClassNone;) {
    if (!isDefined(C)) {
      const HierarchyNode &N = node(C);
      (N.Name == "java/lang/Object" ? B.Object : B.External) = true;
      break;
    }
    if (node(C).OnCycle || !Seen.insert(C).second) {
      B.External = true;
      break;
    }
    const ClassFile &CF = *node(C).Def;
    if (int32_t K = findMember(CF, CF.Fields, Name, Desc); K >= 0) {
      R.Verdict = RefVerdict::Resolved;
      R.DefiningClass = C;
      R.Member = &CF.Fields[static_cast<size_t>(K)];
      R.MemberIndex = K;
      return R;
    }
    std::vector<int32_t> Ifaces;
    interfaceClosure(*this, C, Ifaces, B);
    for (int32_t I : Ifaces) {
      if (I == C)
        continue;
      const ClassFile &IF = *node(I).Def;
      if (int32_t K = findMember(IF, IF.Fields, Name, Desc); K >= 0) {
        R.Verdict = RefVerdict::Resolved;
        R.DefiningClass = I;
        R.Member = &IF.Fields[static_cast<size_t>(K)];
        R.MemberIndex = K;
        return R;
      }
    }
    C = node(C).Super;
  }
  // java/lang/Object declares no fields, so an Object boundary alone
  // cannot hide the target.
  R.Verdict = B.External ? RefVerdict::External : RefVerdict::Dangling;
  return R;
}

RefResolution ClassHierarchy::resolveMethod(std::string_view OwnerName,
                                            std::string_view Name,
                                            std::string_view Desc,
                                            bool InterfaceKind) const {
  RefResolution R;
  if (OwnerName.starts_with("[")) // arrays answer Object's methods plus
    return R;                     // clone(); all outside the archive
  int32_t Owner = lookup(OwnerName);
  if (!isDefined(Owner))
    return R;
  // JVMS 5.4.3.3 step 1 / 5.4.3.4 step 1: the ref kind must match what
  // the owner turned out to be (IncompatibleClassChangeError at run
  // time).
  if (node(Owner).IsInterface != InterfaceKind) {
    R.Verdict = RefVerdict::KindMismatch;
    return R;
  }
  bool Instance = Name != "<init>" && Name != "<clinit>";
  SearchBoundary B;
  // Superclass chain (the owner alone for interface refs and for
  // constructors/initializers, which are never inherited).
  std::set<int32_t> Seen;
  for (int32_t C = Owner; C != ClassNone;) {
    if (!isDefined(C)) {
      const HierarchyNode &N = node(C);
      (N.Name == "java/lang/Object" ? B.Object : B.External) = true;
      break;
    }
    if (node(C).OnCycle || !Seen.insert(C).second) {
      B.External = true;
      break;
    }
    const ClassFile &CF = *node(C).Def;
    if (int32_t K = findMember(CF, CF.Methods, Name, Desc); K >= 0) {
      R.Verdict = RefVerdict::Resolved;
      R.DefiningClass = C;
      R.Member = &CF.Methods[static_cast<size_t>(K)];
      R.MemberIndex = K;
      return R;
    }
    if (InterfaceKind || !Instance)
      break;
    C = node(C).Super;
  }
  if (!Instance) {
    // <init>/<clinit> live on the class itself or nowhere.
    R.Verdict = RefVerdict::Dangling;
    return R;
  }
  // Superinterface closure: gather every declaration, keep the
  // maximally-specific ones (not overridden by a more derived
  // interface). Multiple abstract survivors resolve arbitrarily per
  // 5.4.3.3; two or more concrete (default-method) survivors are the
  // genuinely ambiguous case.
  std::vector<int32_t> Ifaces;
  interfaceClosure(*this, Owner, Ifaces, B);
  struct Match {
    int32_t Iface;
    int32_t Index;
  };
  std::vector<Match> Matches;
  for (int32_t I : Ifaces) {
    const ClassFile &IF = *node(I).Def;
    if (int32_t K = findMember(IF, IF.Methods, Name, Desc); K >= 0)
      Matches.push_back({I, K});
  }
  std::vector<Match> Specific;
  for (const Match &M : Matches) {
    bool Overridden = false;
    for (const Match &O : Matches)
      if (O.Iface != M.Iface && isSubtypeOf(O.Iface, M.Iface))
        Overridden = true;
    if (!Overridden)
      Specific.push_back(M);
  }
  auto MemberOf = [&](const Match &M) -> const MemberInfo & {
    return node(M.Iface).Def->Methods[static_cast<size_t>(M.Index)];
  };
  if (!Specific.empty()) {
    size_t Concrete = 0;
    for (const Match &M : Specific)
      if (!(MemberOf(M).AccessFlags & AccAbstract))
        ++Concrete;
    if (Concrete >= 2) {
      R.Verdict = RefVerdict::Ambiguous;
      return R;
    }
    const Match &Pick = Specific.front();
    R.Verdict = RefVerdict::Resolved;
    R.DefiningClass = Pick.Iface;
    R.Member = &MemberOf(Pick);
    R.MemberIndex = Pick.Index;
    return R;
  }
  // Interface refs can also resolve to java/lang/Object's public
  // methods; class chains ending at Object only hide Object's fixed set.
  if ((InterfaceKind || B.Object) && isKnownObjectMethod(Name, Desc)) {
    R.Verdict = RefVerdict::External;
    return R;
  }
  R.Verdict = B.External ? RefVerdict::External : RefVerdict::Dangling;
  return R;
}

//===----------------------------------------------------------------------===//
// Dead-pool reachability
//===----------------------------------------------------------------------===//

namespace {

/// Marks the constant-pool entries one class's *retained* structure
/// (live members only) reaches, the roots the canonical form keeps
/// plus the debug attributes a raw (unstripped) classfile still
/// carries. Returns the count of usable entries nothing retained
/// references — the entries a StripUnreferenced pack would shed.
class DeadPoolCounter {
public:
  DeadPoolCounter(const ClassFile &CF, const std::vector<bool> &FieldLive,
                  const std::vector<bool> &MethodLive)
      : CF(CF), FieldLive(FieldLive), MethodLive(MethodLive) {}

  Expected<size_t> run() {
    mark(CF.ThisClass);
    mark(CF.SuperClass);
    for (uint16_t I : CF.Interfaces)
      mark(I);
    if (!markAttributes(CF.Attributes))
      return size_t{0}; // unknown attribute: claim nothing
    for (size_t K = 0; K < CF.Fields.size(); ++K) {
      if (K < FieldLive.size() && !FieldLive[K])
        continue;
      if (auto E = markMember(CF.Fields[K]))
        return E;
      if (!Known)
        return size_t{0};
    }
    for (size_t K = 0; K < CF.Methods.size(); ++K) {
      if (K < MethodLive.size() && !MethodLive[K])
        continue;
      if (auto E = markMember(CF.Methods[K]))
        return E;
      if (!Known)
        return size_t{0};
    }
    // The writer re-interns attribute names, so a Utf8 textually equal
    // to a retained attribute's name survives canonicalization.
    for (uint16_t I = 1; I < CF.CP.count(); ++I)
      if (CF.CP.isValidIndex(I) && CF.CP.entry(I).Tag == CpTag::Utf8 &&
          AttrNames.count(CF.CP.entry(I).Text))
        mark(I);
    closeOver();
    size_t Dead = 0;
    for (uint16_t I = 1; I < CF.CP.count(); ++I)
      if (CF.CP.isValidIndex(I) && !Reachable.count(I))
        ++Dead;
    return Dead;
  }

private:
  void mark(uint16_t Index) {
    if (Index != 0)
      Reachable.insert(Index);
  }

  /// Marks the cp references of one attribute list. Returns false when
  /// an attribute whose layout we do not know appears — its references
  /// cannot be traced, so the caller must not report dead entries.
  bool markAttributes(const std::vector<AttributeInfo> &Attrs) {
    for (const AttributeInfo &A : Attrs) {
      if (A.Name == "Synthetic" || A.Name == "Deprecated" ||
          A.Name == "LineNumberTable")
        continue;
      if (A.Name == "ConstantValue" || A.Name == "SourceFile") {
        ByteReader R(A.Bytes);
        mark(R.readU2());
      } else if (A.Name == "Exceptions") {
        ByteReader R(A.Bytes);
        uint16_t N = R.readU2();
        for (uint16_t K = 0; K < N && !R.hasError(); ++K)
          mark(R.readU2());
      } else if (A.Name == "LocalVariableTable") {
        ByteReader R(A.Bytes);
        uint16_t N = R.readU2();
        for (uint16_t K = 0; K < N && !R.hasError(); ++K) {
          R.readU2(); // start_pc
          R.readU2(); // length
          mark(R.readU2());
          mark(R.readU2());
          R.readU2(); // slot
        }
      } else if (A.Name != "Code") {
        Known = false;
        return false;
      }
    }
    return true;
  }

  Error markMember(const MemberInfo &M) {
    mark(M.NameIndex);
    mark(M.DescriptorIndex);
    for (const AttributeInfo &A : M.Attributes)
      AttrNames.emplace(A.Name);
    if (!markAttributes(M.Attributes))
      return Error::success();
    for (const AttributeInfo &A : M.Attributes) {
      if (A.Name != "Code")
        continue;
      auto Code = parseCodeAttribute(A, CF.CP);
      if (!Code)
        return Code.takeError();
      for (const AttributeInfo &Nested : Code->Attributes)
        AttrNames.emplace(Nested.Name);
      if (!markAttributes(Code->Attributes))
        return Error::success();
      for (const ExceptionTableEntry &E : Code->ExceptionTable)
        mark(E.CatchType);
      auto Insns = decodeCode(Code->Code);
      if (!Insns)
        return Insns.takeError();
      for (const Insn &I : *Insns)
        if (I.hasCpOperand())
          mark(I.CpIndex);
    }
    return Error::success();
  }

  void closeOver() {
    std::vector<uint16_t> Work(Reachable.begin(), Reachable.end());
    while (!Work.empty()) {
      uint16_t Index = Work.back();
      Work.pop_back();
      if (!CF.CP.isValidIndex(Index))
        continue;
      const CpEntry &E = CF.CP.entry(Index);
      auto Visit = [&](uint16_t Ref) {
        if (Ref != 0 && Reachable.insert(Ref).second)
          Work.push_back(Ref);
      };
      switch (E.Tag) {
      case CpTag::Class:
      case CpTag::String:
      case CpTag::MethodType:
      case CpTag::Module:
      case CpTag::Package:
      case CpTag::MethodHandle:
        Visit(E.Ref1);
        break;
      case CpTag::FieldRef:
      case CpTag::MethodRef:
      case CpTag::InterfaceMethodRef:
      case CpTag::NameAndType:
      case CpTag::Dynamic:
      case CpTag::InvokeDynamic:
        Visit(E.Ref1);
        Visit(E.Ref2);
        break;
      default:
        break;
      }
    }
  }

  const ClassFile &CF;
  const std::vector<bool> &FieldLive;
  const std::vector<bool> &MethodLive;
  std::set<uint16_t> Reachable;
  std::set<std::string, std::less<>> AttrNames{"Code"};
  bool Known = true;
};

} // namespace

//===----------------------------------------------------------------------===//
// analyzeArchive
//===----------------------------------------------------------------------===//

ArchiveAnalysisReport
cjpack::analysis::analyzeArchive(const std::vector<ClassFile> &Classes) {
  ArchiveAnalysisReport Rep;
  Rep.Hierarchy = ClassHierarchy::build(Classes);
  const ClassHierarchy &H = Rep.Hierarchy;
  Rep.ClassesAnalyzed = Classes.size();

  auto Diag = [&](DiagKind K, std::string Ctx, uint32_t Off,
                  std::string Msg) {
    Rep.Diags.push_back({K, std::move(Ctx), Off, std::move(Msg)});
  };

  for (int32_t K : H.malformed())
    Diag(DiagKind::MalformedCode, "class #" + std::to_string(K), NoOffset,
         "unusable this_class entry");
  for (int32_t K : H.duplicates()) {
    const ClassFile &CF = Classes[static_cast<size_t>(K)];
    const std::string_view *Name = classNameAt(CF.CP, CF.ThisClass);
    Diag(DiagKind::DuplicateClass, Name ? std::string(*Name) : "?", NoOffset,
         "several classes in the archive share this internal name");
  }

  // Structural hierarchy findings, per defined class.
  for (size_t Id = 0; Id < H.size(); ++Id) {
    const HierarchyNode &N = H.node(static_cast<int32_t>(Id));
    if (!N.Def)
      continue;
    if (N.OnCycle)
      Diag(DiagKind::SuperclassCycle, std::string(N.Name), NoOffset,
           "class sits on a superclass/interface cycle");
    std::set<int32_t> Seen;
    std::vector<int32_t> Work(N.Interfaces);
    if (N.Super != ClassNone)
      Work.push_back(N.Super);
    while (!Work.empty()) {
      int32_t C = Work.back();
      Work.pop_back();
      if (C < 0 || !Seen.insert(C).second)
        continue;
      const HierarchyNode &A = H.node(C);
      if (!A.Def) {
        if (!isPlatformClassName(A.Name))
          Diag(DiagKind::MissingAncestor, std::string(N.Name), NoOffset,
               "ancestor " + std::string(A.Name) + " is not in the archive");
        continue;
      }
      if (A.OnCycle)
        continue;
      if (A.Super != ClassNone)
        Work.push_back(A.Super);
      Work.insert(Work.end(), A.Interfaces.begin(), A.Interfaces.end());
    }
  }

  // Liveness: a private member starts dead and survives only when some
  // reference anywhere in the archive (even from dead code — liveness
  // is one conservative pass, not a fixpoint) can resolve to it.
  // Non-private members are roots: any future archive user may link
  // against them. Unreadable names stay live too.
  std::vector<std::vector<bool>> FieldLive(Classes.size());
  std::vector<std::vector<bool>> MethodLive(Classes.size());
  for (size_t Id = 0; Id < H.size(); ++Id) {
    const HierarchyNode &N = H.node(static_cast<int32_t>(Id));
    if (!N.Def)
      continue;
    const ClassFile &CF = *N.Def;
    auto InitLive = [&](const std::vector<MemberInfo> &List, bool IsField) {
      std::vector<bool> Live(List.size());
      for (size_t K = 0; K < List.size(); ++K) {
        const MemberInfo &M = List[K];
        const std::string_view *Name = memberName(CF, M);
        bool Exported = !(M.AccessFlags & AccPrivate) || !Name ||
                        !memberDesc(CF, M) ||
                        (!IsField && (*Name == "<init>" || *Name == "<clinit>"));
        Live[K] = Exported;
      }
      return Live;
    };
    FieldLive[static_cast<size_t>(N.ClassIndex)] = InitLive(CF.Fields, true);
    MethodLive[static_cast<size_t>(N.ClassIndex)] =
        InitLive(CF.Methods, false);
  }

  // Cross-reference resolution over every member ref in every class.
  for (size_t K = 0; K < Classes.size(); ++K) {
    const ClassFile &CF = Classes[K];
    const std::string_view *Self = classNameAt(CF.CP, CF.ThisClass);
    std::string Ctx =
        Self ? std::string(*Self) : "class #" + std::to_string(K);
    for (uint16_t I = 1; I < CF.CP.count(); ++I) {
      auto P = memberRefAt(CF.CP, I);
      if (!P)
        continue;
      ++Rep.RefsChecked;
      if (!P->Owner || !P->Name || !P->Desc) {
        Diag(DiagKind::MalformedCode, Ctx, I,
             "member ref with a broken class or name-and-type entry");
        continue;
      }
      RefResolution R =
          P->Tag == CpTag::FieldRef
              ? H.resolveField(*P->Owner, *P->Name, *P->Desc)
              : H.resolveMethod(*P->Owner, *P->Name, *P->Desc,
                                P->Tag == CpTag::InterfaceMethodRef);
      std::string Ref = cpTagName(P->Tag);
      Ref += ' ';
      Ref += *P->Owner;
      Ref += '.';
      Ref += *P->Name;
      Ref += ':';
      Ref += *P->Desc;
      switch (R.Verdict) {
      case RefVerdict::Resolved:
        ++Rep.RefsResolved;
        if (R.Member->AccessFlags & AccPrivate) {
          const HierarchyNode &D = H.node(R.DefiningClass);
          auto &Live = P->Tag == CpTag::FieldRef
                           ? FieldLive[static_cast<size_t>(D.ClassIndex)]
                           : MethodLive[static_cast<size_t>(D.ClassIndex)];
          Live[static_cast<size_t>(R.MemberIndex)] = true;
        }
        break;
      case RefVerdict::External:
        ++Rep.RefsExternal;
        break;
      case RefVerdict::Dangling:
        Diag(DiagKind::DanglingRef, Ctx, I,
             Ref + " has no target in the archive");
        break;
      case RefVerdict::Ambiguous:
        Diag(DiagKind::AmbiguousRef, Ctx, I,
             Ref + " matches several unrelated default methods");
        break;
      case RefVerdict::KindMismatch:
        Diag(DiagKind::RefKindMismatch, Ctx, I,
             Ref + (P->Tag == CpTag::MethodRef
                        ? " is a Methodref naming an interface"
                        : " is an InterfaceMethodref naming a class"));
        break;
      }
    }
  }

  // Report the members that stayed dead, then the pool entries only
  // they (or nothing at all) reached.
  for (size_t Id = 0; Id < H.size(); ++Id) {
    const HierarchyNode &N = H.node(static_cast<int32_t>(Id));
    if (!N.Def)
      continue;
    size_t Input = static_cast<size_t>(N.ClassIndex);
    for (size_t K = 0; K < FieldLive[Input].size(); ++K)
      if (!FieldLive[Input][K])
        Rep.DeadMembers.push_back(
            {N.ClassIndex, true, static_cast<uint32_t>(K)});
    for (size_t K = 0; K < MethodLive[Input].size(); ++K)
      if (!MethodLive[Input][K])
        Rep.DeadMembers.push_back(
            {N.ClassIndex, false, static_cast<uint32_t>(K)});
    auto Dead =
        DeadPoolCounter(*N.Def, FieldLive[Input], MethodLive[Input]).run();
    if (!Dead) {
      Diag(DiagKind::MalformedCode, std::string(N.Name), NoOffset,
           "reachability pass failed: " + Dead.message());
      continue;
    }
    Rep.DeadPoolEntries += *Dead;
  }
  return Rep;
}

//===----------------------------------------------------------------------===//
// stripUnreferencedMembers
//===----------------------------------------------------------------------===//

StripStats
cjpack::analysis::stripUnreferencedMembers(std::vector<ClassFile> &Classes) {
  StripStats Stats;
  std::vector<DeadMember> Dead;
  {
    // The report borrows pointers into Classes; scope it so nothing
    // dangles once the mutation below starts.
    ArchiveAnalysisReport Rep = analyzeArchive(Classes);
    Dead = std::move(Rep.DeadMembers);
  }
  std::vector<std::vector<uint32_t>> DeadFields(Classes.size());
  std::vector<std::vector<uint32_t>> DeadMethods(Classes.size());
  for (const DeadMember &D : Dead)
    (D.IsField ? DeadFields : DeadMethods)[static_cast<size_t>(D.ClassIndex)]
        .push_back(D.MemberIndex);
  for (size_t K = 0; K < Classes.size(); ++K) {
    if (DeadFields[K].empty() && DeadMethods[K].empty())
      continue;
    auto EraseAll = [](std::vector<MemberInfo> &List,
                       std::vector<uint32_t> &Indices) {
      std::sort(Indices.rbegin(), Indices.rend());
      for (uint32_t I : Indices)
        List.erase(List.begin() + I);
    };
    EraseAll(Classes[K].Fields, DeadFields[K]);
    EraseAll(Classes[K].Methods, DeadMethods[K]);
    Stats.FieldsRemoved += DeadFields[K].size();
    Stats.MethodsRemoved += DeadMethods[K].size();
  }
  return Stats;
}
