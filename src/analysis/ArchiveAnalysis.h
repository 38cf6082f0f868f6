//===- ArchiveAnalysis.h - Whole-archive static analysis -------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-archive static analysis over the classes of one jar/.cjp: a
/// class hierarchy (superclass/interface edges with cycle and
/// missing-ancestor detection and least-common-superclass queries), a
/// cross-reference resolver that checks every Fieldref/Methodref/
/// InterfaceMethodref against its defining class by walking the
/// hierarchy (JVMS 5.4.3 approximated to the archive's closed world —
/// targets outside the archive get a clean "external" verdict), and a
/// reachability pass that finds private members and constant-pool
/// entries no retained structure references.
///
/// Three consumers: `packtool lint` reports the diagnostics,
/// PackOptions::StripUnreferenced drops the dead members (and with them
/// their pool entries) before encoding, and the bytecode verifier joins
/// in-archive reference types at their least common superclass instead
/// of collapsing them to the untyped Ref.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_ANALYSIS_ARCHIVEANALYSIS_H
#define CJPACK_ANALYSIS_ARCHIVEANALYSIS_H

#include "analysis/Diagnostics.h"
#include "classfile/ClassFile.h"
#include "support/Error.h"
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cjpack::analysis {

/// Sentinel hierarchy ids for the verifier's typed-reference tracking.
/// Real nodes are non-negative indices into a ClassHierarchy.
inline constexpr int32_t ClassNone = -1; ///< unknown / untracked reference
inline constexpr int32_t ClassNull = -2; ///< aconst_null (join identity)

/// One class in the hierarchy: either defined by a classfile in the
/// archive (Def non-null) or external — mentioned as a superclass,
/// interface, or reference owner but not present.
struct HierarchyNode {
  std::string_view Name; ///< borrowed from the defining class's pool
  int32_t Super = ClassNone; ///< node id; ClassNone for roots/unknown
  std::vector<int32_t> Interfaces;
  const ClassFile *Def = nullptr; ///< null for external classes
  int32_t ClassIndex = -1;        ///< index into the build input, or -1
  bool IsInterface = false;
  /// True when the node sits on a superclass/superinterface cycle;
  /// ancestor walks treat such nodes as boundaries.
  bool OnCycle = false;

  bool defined() const { return Def != nullptr; }
};

/// Verdict of resolving one member reference against the archive.
enum class RefVerdict : uint8_t {
  Resolved,     ///< found the defining class and member in the archive
  External,     ///< target (or the search boundary) is outside the archive
  Dangling,     ///< the search completed in-archive without a match
  Ambiguous,    ///< several unrelated maximally-specific default methods
  KindMismatch, ///< Methodref naming an interface, or the reverse
};

/// Stable lowercase name for \p V (e.g. "resolved", "dangling").
const char *refVerdictName(RefVerdict V);

/// The outcome of one reference resolution.
struct RefResolution {
  RefVerdict Verdict = RefVerdict::External;
  int32_t DefiningClass = ClassNone; ///< hierarchy id when Resolved
  const MemberInfo *Member = nullptr; ///< defining member when Resolved
  /// Position of Member in the defining class's Fields/Methods vector.
  int32_t MemberIndex = -1;
};

/// The superclass/interface graph over every class an archive defines or
/// mentions as an ancestor. Nodes hold borrowed ClassFile pointers: a
/// hierarchy (and anything built from it) is valid only while the class
/// vector it was built from stays alive and unmodified.
class ClassHierarchy {
public:
  /// Builds the hierarchy over \p Classes. Classes whose this_class
  /// entry is unusable are skipped; when two classes share an internal
  /// name the first wins and the rest land in duplicates().
  static ClassHierarchy build(const std::vector<ClassFile> &Classes);

  size_t size() const { return Nodes.size(); }

  const HierarchyNode &node(int32_t Id) const {
    return Nodes[static_cast<size_t>(Id)];
  }

  /// Node id of \p Name, or ClassNone when the archive neither defines
  /// nor mentions it.
  int32_t lookup(std::string_view Name) const;

  /// True when \p Id names a class the archive defines.
  bool isDefined(int32_t Id) const {
    return Id >= 0 && Nodes[static_cast<size_t>(Id)].Def != nullptr;
  }

  /// Input indices of classes dropped because an earlier class already
  /// claimed their internal name.
  const std::vector<int32_t> &duplicates() const { return Duplicates; }

  /// Input indices of classes skipped for an unusable this_class entry.
  const std::vector<int32_t> &malformed() const { return Malformed; }

  /// Nearest class on both superclass chains, or ClassNone when either
  /// side is undefined or the chains only meet outside the archive.
  int32_t leastCommonSuperclass(int32_t A, int32_t B) const;

  /// True when \p Base is \p Derived or appears in \p Derived's
  /// superclass/superinterface closure (within the archive).
  bool isSubtypeOf(int32_t Derived, int32_t Base) const;

  /// Join for the verifier's typed-reference lattice: ClassNull is the
  /// identity, ClassNone absorbs, and two in-archive classes meet at
  /// their least common superclass.
  int32_t joinRefClasses(int32_t A, int32_t B) const;

  /// Resolves a Fieldref named \p OwnerName.\p Name:\p Desc following
  /// JVMS 5.4.3.2: the owner's own fields, then superinterfaces, then
  /// the superclass chain.
  RefResolution resolveField(std::string_view OwnerName,
                             std::string_view Name,
                             std::string_view Desc) const;

  /// Resolves a Methodref (\p InterfaceKind false) or InterfaceMethodref
  /// (true) following JVMS 5.4.3.3/5.4.3.4: kind check against the
  /// owner, the superclass chain, then maximally-specific superinterface
  /// methods. java/lang/Object's public methods are known by name, so
  /// Object-rooted searches can still prove a reference dangling.
  RefResolution resolveMethod(std::string_view OwnerName,
                              std::string_view Name,
                              std::string_view Desc,
                              bool InterfaceKind) const;

private:
  int32_t internNode(std::string_view Name);
  void computeCycles();

  std::vector<HierarchyNode> Nodes;
  std::unordered_map<std::string_view, int32_t> ByName;
  std::vector<int32_t> Duplicates;
  std::vector<int32_t> Malformed;
};

/// A private member (field or method) no reference in the archive can
/// resolve to, identified by input-class index and member position.
struct DeadMember {
  int32_t ClassIndex = -1;
  bool IsField = false;
  uint32_t MemberIndex = 0;
};

/// Everything analyzeArchive learns about one archive. Holds the
/// hierarchy (borrowed ClassFile pointers — see ClassHierarchy).
struct ArchiveAnalysisReport {
  ClassHierarchy Hierarchy;
  /// Structural findings: cycles, missing ancestors, duplicate classes,
  /// dangling/ambiguous/kind-mismatched refs, malformed classes. Dead
  /// members/entries are reported through the fields below, not here —
  /// dead weight is a size opportunity, not a defect.
  std::vector<Diagnostic> Diags;
  size_t ClassesAnalyzed = 0;
  size_t RefsChecked = 0;
  size_t RefsResolved = 0;
  size_t RefsExternal = 0;
  /// Private members nothing in the archive references.
  std::vector<DeadMember> DeadMembers;
  /// Constant-pool entries (across all classes) unreachable from any
  /// retained structure once dead members are excluded from the roots.
  size_t DeadPoolEntries = 0;

  bool clean() const { return Diags.empty(); }
};

/// Runs the full whole-archive analysis: hierarchy construction, cycle
/// and missing-ancestor detection, resolution of every member ref, and
/// the dead-member/dead-pool reachability pass. Total on hostile input:
/// malformed classes become diagnostics, never crashes.
ArchiveAnalysisReport analyzeArchive(const std::vector<ClassFile> &Classes);

/// What stripUnreferencedMembers removed.
struct StripStats {
  size_t FieldsRemoved = 0;
  size_t MethodsRemoved = 0;
  size_t membersRemoved() const { return FieldsRemoved + MethodsRemoved; }
};

/// Drops every dead private member found by analyzeArchive from
/// \p Classes. Only the members go: their constant-pool entries stay
/// until prepareForPacking (pack/Packer.h, above this library) rebuilds
/// the class. Liveness is conservative — a reference from anywhere in
/// the archive, even dead code, keeps a member. The packer prepares
/// the classes before and after, and gates the result behind a
/// restore-then-verify check (PackOptions::StripUnreferenced); callers
/// using it directly should do the same.
StripStats stripUnreferencedMembers(std::vector<ClassFile> &Classes);

/// True for names under the platform namespaces (java/, javax/, jdk/,
/// sun/) that an archive legitimately references without defining;
/// everything else missing from the archive is a missing ancestor.
bool isPlatformClassName(std::string_view Name);

/// True when \p Name:\p Desc is one of java/lang/Object's fixed public/
/// protected methods — the one external class resolution must know to
/// call a search at an Object boundary complete.
bool isKnownObjectMethod(std::string_view Name, std::string_view Desc);

} // namespace cjpack::analysis

#endif // CJPACK_ANALYSIS_ARCHIVEANALYSIS_H
