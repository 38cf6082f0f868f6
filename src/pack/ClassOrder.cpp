//===- ClassOrder.cpp - eager-loading class order (§11) -------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/ClassOrder.h"
#include <map>
#include <optional>
#include <string>
#include <string_view>

using namespace cjpack;

namespace {

using NameMap = std::map<std::string, size_t, std::less<>>;

/// Each class's index by name. A class whose name does not resolve is
/// left out: packing rejects it when it lowers the class.
NameMap classesByName(const std::vector<ClassFile> &Classes) {
  NameMap ByName;
  for (size_t I = 0; I < Classes.size(); ++I)
    if (auto Name = Classes[I].CP.checkedClassName(Classes[I].ThisClass))
      ByName.emplace(*Name, I);
  return ByName;
}

/// The position in \p ByName of the class Class entry \p Index of \p CF
/// names, if it is in the set.
std::optional<size_t> findClass(const NameMap &ByName, const ClassFile &CF,
                                uint16_t Index) {
  auto Name = CF.CP.checkedClassName(Index);
  if (!Name)
    return std::nullopt;
  auto It = ByName.find(*Name);
  if (It == ByName.end())
    return std::nullopt;
  return It->second;
}

struct OrderBuilder {
  const std::vector<ClassFile> &Classes;
  NameMap ByName;
  std::vector<uint8_t> State; ///< 0 unvisited, 1 on stack, 2 done
  std::vector<size_t> Order;

  explicit OrderBuilder(const std::vector<ClassFile> &Classes)
      : Classes(Classes), ByName(classesByName(Classes)),
        State(Classes.size(), 0) {}

  void visitSuper(const ClassFile &CF, uint16_t Index) {
    if (auto I = findClass(ByName, CF, Index))
      visit(*I);
  }

  void visit(size_t I) {
    if (State[I] != 0)
      return; // done, or an inheritance cycle (malformed input): skip
    State[I] = 1;
    const ClassFile &CF = Classes[I];
    if (CF.SuperClass != 0)
      visitSuper(CF, CF.SuperClass);
    for (uint16_t Iface : CF.Interfaces)
      visitSuper(CF, Iface);
    State[I] = 2;
    Order.push_back(I);
  }
};

} // namespace

std::vector<size_t>
cjpack::eagerLoadOrder(const std::vector<ClassFile> &Classes) {
  OrderBuilder B(Classes);
  for (size_t I = 0; I < Classes.size(); ++I)
    B.visit(I);
  return B.Order;
}

bool cjpack::isEagerLoadable(const std::vector<ClassFile> &Classes) {
  NameMap ByName = classesByName(Classes);
  for (size_t I = 0; I < Classes.size(); ++I) {
    const ClassFile &CF = Classes[I];
    auto DefinedBefore = [&](uint16_t Index) {
      auto Super = findClass(ByName, CF, Index);
      return !Super || *Super < I;
    };
    if (CF.SuperClass != 0 && !DefinedBefore(CF.SuperClass))
      return false;
    for (uint16_t Iface : CF.Interfaces)
      if (!DefinedBefore(Iface))
        return false;
  }
  return true;
}
