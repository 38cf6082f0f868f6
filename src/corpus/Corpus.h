//===- Corpus.h - synthetic benchmark corpora ------------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates synthetic Java classfile collections standing in for the
/// paper's Table 1 benchmarks (SPEC JVM98, the JDK runtime, Swing, ...),
/// which we cannot redistribute. Each benchmark is a deterministic
/// function of its spec: package structure, class hierarchy, fields,
/// method signatures, and bytecode bodies are synthesized with the
/// statistical shape of real classfiles (Utf8-dominant constant pools,
/// ~20% bytecode, skewed identifier reuse, aload_0/getfield idioms).
///
/// Scale note: specs are sized so generated sj0r totals land near the
/// paper's Table 1 numbers at Scale = 1.0; benches accept a scale factor
/// to trade fidelity for runtime.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CORPUS_CORPUS_H
#define CJPACK_CORPUS_CORPUS_H

#include "classfile/ClassFile.h"
#include "corpus/Names.h"
#include "zip/Jar.h"
#include <string>
#include <vector>

namespace cjpack {

/// Statistical flavour of generated method bodies.
enum class CodeStyle : uint8_t {
  Balanced,    ///< a mix of calls, branches, field traffic
  Numeric,     ///< arithmetic-loop heavy, few strings (mpegaudio-like)
  StringHeavy, ///< many string constants and calls (jess/db-like)
};

/// Parameters of one synthetic benchmark.
struct CorpusSpec {
  std::string Name;
  std::string Description;
  uint64_t Seed = 1;
  unsigned NumClasses = 10;
  unsigned NumPackages = 2;
  unsigned MeanMethods = 8;
  unsigned MeanFields = 5;
  unsigned MeanStatements = 12;
  unsigned PctInterfaces = 8;
  NameStyle Style = NameStyle::Normal;
  CodeStyle Code = CodeStyle::Balanced;
  std::string Vendor = "com/example";
  /// Emit SourceFile, LineNumberTable, and LocalVariableTable attributes,
  /// as compilers do by default — the debug information §2 strips.
  bool EmitDebugInfo = true;
  /// Percent of call/field-access statements emitted against the
  /// *subclass* as owner while the member is defined on a generated
  /// superclass or interface, so reference resolution must walk the
  /// hierarchy (what javac emits for inherited members). 0 — the
  /// default — draws nothing from the RNG, keeping the wire-format
  /// golden hashes valid.
  unsigned PctInheritedRefs = 0;
  /// Dead private members (fields and methods no reference in the
  /// corpus targets) seeded per concrete class, as food for
  /// `packtool lint` dead-weight reporting and
  /// PackOptions::StripUnreferenced. 0 — the default — draws nothing.
  unsigned DeadMembersPerClass = 0;
};

/// Generates the classfiles of \p Spec (parsed model form).
std::vector<ClassFile> generateCorpusClasses(const CorpusSpec &Spec);

/// Generates the classfiles of \p Spec as named raw bytes.
std::vector<NamedClass> generateCorpus(const CorpusSpec &Spec);

/// The 19 benchmarks of Table 1, sized to approximate the paper's sj0r
/// column scaled by \p Scale (class counts, not bytes, are scaled).
std::vector<CorpusSpec> paperBenchmarks(double Scale = 1.0);

/// Looks up one paper benchmark by name (e.g. "javac", "rt").
CorpusSpec paperBenchmark(const std::string &Name, double Scale = 1.0);

/// The scale-campaign corpus: \p NumClasses classes (default 10000)
/// with realistic method/field/debug-info weight, sized so the default
/// lands well past 50 MB of classfile bytes — an order of magnitude
/// beyond the paper's largest benchmark (rt at ~1500 classes). Used by
/// the scale smoke test and bench_scale to exercise arena allocation,
/// shard autotuning, and parallel throughput at modern jar sizes.
CorpusSpec scaleBenchmark(unsigned NumClasses = 10000);

/// Four variants of \p Class whose bytes differ from their canonical
/// form (pack/Packer.h's prepareForPacking) in ways a pool-only
/// canonicalizer keeps: the constructor named through a second Utf8
/// "<init>" entry, an Exceptions attribute ahead of a method's Code
/// attribute, a Deprecated attribute ahead of it, and the class marked
/// Synthetic twice. Each is named for its shape. A class that does not
/// parse, or has no constructor (an interface), gives none.
std::vector<NamedClass> nonCanonicalShapes(const NamedClass &Class);

} // namespace cjpack

#endif // CJPACK_CORPUS_CORPUS_H
