//===- CanonicalPool.cpp - the canonical constant-pool order --------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/CanonicalPool.h"
#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <span>

using namespace cjpack;

namespace {

/// The canonical groups, in pool order (§2, §9).
enum CpGroup : uint8_t {
  LdcConst,   ///< int/float/string referenced by a one-byte ldc
  OtherConst, ///< remaining int/float/string
  WideConst,  ///< long/double
  ClassEntry,
  MemberRef,
  NameType,
  Text,       ///< Utf8, by content
};

CpGroup groupOf(const CpEntry &E, bool Ldc) {
  switch (E.Tag) {
  case CpTag::Integer:
  case CpTag::Float:
  case CpTag::String:
    return Ldc ? LdcConst : OtherConst;
  case CpTag::Long:
  case CpTag::Double:
    return WideConst;
  case CpTag::Class:
    return ClassEntry;
  case CpTag::FieldRef:
  case CpTag::MethodRef:
  case CpTag::InterfaceMethodRef:
    return MemberRef;
  case CpTag::NameAndType:
    return NameType;
  default:
    assert(E.Tag == CpTag::Utf8 && "the builder adds no other kind");
    return Text;
  }
}

/// Three-way compares the byte strings A[0] '\0' A[1] '\0' ... and
/// B[0] '\0' B[1] ... (the keys the canonical order was first defined
/// by) without building them.
int compareJoined(std::span<const std::string_view> A,
                  std::span<const std::string_view> B) {
  struct Cursor {
    std::span<const std::string_view> Parts;
    size_t Part = 0, Off = 0;

    /// The rest of the current part, else the separator after it, else
    /// nothing.
    std::string_view run() const {
      if (Off < Parts[Part].size())
        return Parts[Part].substr(Off);
      if (Part + 1 < Parts.size())
        return std::string_view("\0", 1);
      return {};
    }
    void advance(size_t N) {
      if (Off < Parts[Part].size()) {
        Off += N;
      } else {
        ++Part; // stepped over the separator
        Off = 0;
      }
    }
  };
  Cursor X{A}, Y{B};
  while (true) {
    std::string_view RA = X.run(), RB = Y.run();
    if (RA.empty() || RB.empty())
      return RA.empty() ? (RB.empty() ? 0 : -1) : 1;
    size_t N = std::min(RA.size(), RB.size());
    if (int C = std::memcmp(RA.data(), RB.data(), N))
      return C;
    X.advance(N);
    Y.advance(N);
  }
}

} // namespace

CanonicalPoolBuilder::CanonicalPoolBuilder(std::shared_ptr<Arena> Mem)
    : Mem(std::move(Mem)) {
  if (!this->Mem)
    this->Mem = std::make_shared<Arena>();
  // Sized for a typical class, so growth is rare.
  Items.reserve(256);
  Index.reserve(256);
  Items.emplace_back(); // Null: constant-pool index 0
}

uint64_t CanonicalPoolBuilder::hashOf(const Item &I) const {
  if (I.E.Tag == CpTag::Utf8)
    return Index.hash(I.E.Text);
  return Index.hasher()
      .word(static_cast<uint64_t>(I.R1) << 32 | I.R2)
      .word(I.E.Bits)
      .word(static_cast<uint64_t>(I.E.Tag))
      .finish();
}

bool CanonicalPoolBuilder::sameContent(const Item &A, const Item &B) {
  return A.E.Tag == B.E.Tag && A.E.Bits == B.E.Bits && A.R1 == B.R1 &&
         A.R2 == B.R2 && A.E.Text == B.E.Text;
}

CanonicalPoolBuilder::Ref CanonicalPoolBuilder::add(Item Probe) {
  Ref Next = static_cast<Ref>(Items.size());
  Ref R = Index.insert(hashOf(Probe), Next, [&](Ref Id) {
    return sameContent(Items[Id], Probe);
  });
  if (R != Next)
    return R;
  if (Probe.E.Tag == CpTag::Utf8)
    Probe.E.Text = Mem->internString(Probe.E.Text);
  Items.push_back(Probe);
  return R;
}

CanonicalPoolBuilder::Ref CanonicalPoolBuilder::utf8(std::string_view Text) {
  Item P;
  P.E.Tag = CpTag::Utf8;
  P.E.Text = Text;
  return add(P);
}

CanonicalPoolBuilder::Ref CanonicalPoolBuilder::constant(CpTag Tag,
                                                         uint64_t Bits) {
  assert((Tag == CpTag::Integer || Tag == CpTag::Float ||
          Tag == CpTag::Long || Tag == CpTag::Double) &&
         "constant takes a numeric tag");
  Item P;
  P.E.Tag = Tag;
  P.E.Bits = Bits;
  return add(P);
}

CanonicalPoolBuilder::Ref
CanonicalPoolBuilder::string(std::string_view Text) {
  Item P;
  P.E.Tag = CpTag::String;
  P.R1 = utf8(Text);
  return add(P);
}

CanonicalPoolBuilder::Ref
CanonicalPoolBuilder::classRef(std::string_view InternalName) {
  Item P;
  P.E.Tag = CpTag::Class;
  P.R1 = utf8(InternalName);
  return add(P);
}

CanonicalPoolBuilder::Ref
CanonicalPoolBuilder::nameAndType(std::string_view Name,
                                  std::string_view Desc) {
  Item P;
  P.E.Tag = CpTag::NameAndType;
  P.R1 = utf8(Name);
  P.R2 = utf8(Desc);
  return add(P);
}

CanonicalPoolBuilder::Ref
CanonicalPoolBuilder::memberRef(CpTag Kind, std::string_view Owner,
                                std::string_view Name,
                                std::string_view Desc) {
  assert((Kind == CpTag::FieldRef || Kind == CpTag::MethodRef ||
          Kind == CpTag::InterfaceMethodRef) &&
         "memberRef takes a member-reference tag");
  Item P;
  P.E.Tag = Kind;
  P.R1 = classRef(Owner);
  P.R2 = nameAndType(Name, Desc);
  return add(P);
}

int CanonicalPoolBuilder::compareContent(const Item &A,
                                         const Item &B) const {
  switch (A.E.Tag) {
  case CpTag::Utf8:
    return A.E.Text.compare(B.E.Text);
  case CpTag::Integer:
  case CpTag::Float:
  case CpTag::Long:
  case CpTag::Double:
    return A.E.Bits < B.E.Bits ? -1 : A.E.Bits > B.E.Bits;
  case CpTag::Class:
  case CpTag::String:
    return textOf(A.R1).compare(textOf(B.R1));
  case CpTag::NameAndType: {
    std::string_view KA[] = {textOf(A.R1), textOf(A.R2)};
    std::string_view KB[] = {textOf(B.R1), textOf(B.R2)};
    return compareJoined(KA, KB);
  }
  default: {
    // A member ref: owner name, then the NameAndType's name and
    // descriptor.
    auto Parts = [&](const Item &I) {
      const Item &C = Items[I.R1], &NT = Items[I.R2];
      return std::array{textOf(C.R1), textOf(NT.R1), textOf(NT.R2)};
    };
    return compareJoined(Parts(A), Parts(B));
  }
  }
}

bool CanonicalPoolBuilder::less(Ref A, Ref B) const {
  const Item &X = Items[A], &Y = Items[B];
  if (X.Group != Y.Group)
    return X.Group < Y.Group;
  if (X.E.Tag != Y.E.Tag)
    return X.E.Tag < Y.E.Tag;
  if (int C = compareContent(X, Y))
    return C < 0;
  return A < B;
}

Error CanonicalPoolBuilder::finish(ConstantPool &Out) {
  for (Ref R = 1; R < Items.size(); ++R)
    Items[R].Group = groupOf(Items[R].E, Items[R].Ldc);
  std::vector<Ref> Order(Items.size() - 1);
  std::iota(Order.begin(), Order.end(), Ref(1));
  std::sort(Order.begin(), Order.end(),
            [this](Ref A, Ref B) { return less(A, B); });

  uint32_t Next = 1;
  for (Ref R : Order) {
    Items[R].Index = static_cast<uint16_t>(Next);
    Next += Items[R].E.isWide() ? 2 : 1;
    if (Next > 0xFFFF)
      return makeError(ErrorCode::LimitExceeded,
                       "canonical pool: constant pool overflow");
  }
  for (Ref R : Order)
    if (Items[R].Ldc && Items[R].Index > 0xFF)
      return makeError(ErrorCode::Corrupt,
                       "canonical pool: cannot keep ldc constant below "
                       "index 256");

  ConstantPool Pool(Mem);
  Pool.Entries.reserve(Next);
  for (Ref R : Order) {
    CpEntry E = Items[R].E;
    E.Ref1 = index(Items[R].R1); // Null is index 0
    E.Ref2 = index(Items[R].R2);
    Pool.appendRaw(E);
  }
  Pool.invalidateIndex();
  Out = std::move(Pool);
  return Error::success();
}
