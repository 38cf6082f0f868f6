//===- Error.h - Lightweight error handling for cjpack ---------*- C++ -*-===//
//
// Part of cjpack, a reproduction of "Compressing Java Class Files"
// (Pugh, PLDI 1999). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight Error / Expected<T> pair in the spirit of LLVM's error
/// handling, without exceptions or RTTI. Errors carry a message string
/// plus a coarse ErrorCode so decoders can classify failures on hostile
/// input; Expected<T> carries either a value or an error.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_SUPPORT_ERROR_H
#define CJPACK_SUPPORT_ERROR_H

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cjpack {

/// Failure taxonomy of the decode path. Every error produced while
/// decoding wire input (packed archives, classfiles, zips, compressed
/// streams) is one of the typed codes after Other; Other covers
/// non-decode failures (encoder misuse, unsupported options).
enum class ErrorCode : uint8_t {
  Other,           ///< not a decode-taxonomy failure
  Truncated,       ///< input ended before a promised structure
  Corrupt,         ///< structurally invalid wire data
  LimitExceeded,   ///< input demanded more than a configured resource cap
  VersionMismatch, ///< well-formed header, but a format version this
                   ///< reader does not handle (callers can route the
                   ///< archive to the right reader or report precisely)
};

/// Printable name of \p C.
inline const char *errorCodeName(ErrorCode C) {
  switch (C) {
  case ErrorCode::Other: return "Other";
  case ErrorCode::Truncated: return "Truncated";
  case ErrorCode::Corrupt: return "Corrupt";
  case ErrorCode::LimitExceeded: return "LimitExceeded";
  case ErrorCode::VersionMismatch: return "VersionMismatch";
  }
  return "?";
}

/// A recoverable error: either success (empty) or a failure message.
///
/// Unlike LLVM's Error this is not checked-on-destruction; it is a plain
/// value type, cheap to construct and move.
class Error {
public:
  /// Constructs a success value.
  Error() = default;

  /// Constructs a failure carrying \p Msg.
  static Error failure(std::string Msg) {
    return failure(ErrorCode::Other, std::move(Msg));
  }

  /// Constructs a failure classified as \p Code.
  static Error failure(ErrorCode Code, std::string Msg) {
    Error E;
    E.Msg = std::move(Msg);
    E.Code = Code;
    return E;
  }

  /// Constructs a success value (symmetry with LLVM's Error::success()).
  static Error success() { return Error(); }

  /// True if this represents a failure.
  explicit operator bool() const { return Msg.has_value(); }

  /// Returns the failure message; only valid on failures.
  const std::string &message() const {
    assert(Msg && "message() on a success Error");
    return *Msg;
  }

  /// Returns the failure classification; only valid on failures.
  ErrorCode code() const {
    assert(Msg && "code() on a success Error");
    return Code;
  }

private:
  std::optional<std::string> Msg;
  ErrorCode Code = ErrorCode::Other;
};

/// Either a T or an error message, for fallible functions returning values.
template <typename T> class Expected {
public:
  /// Constructs a success value.
  Expected(T Value) : Value(std::move(Value)) {}

  /// Constructs a failure from an Error (which must be a failure).
  Expected(Error E) : Err(std::move(E)) {
    assert(Err && "Expected constructed from a success Error");
  }

  /// True on success.
  explicit operator bool() const { return Value.has_value(); }

  /// Accessors for the success value; only valid on success.
  T &operator*() {
    assert(Value && "dereferencing failed Expected");
    return *Value;
  }
  const T &operator*() const {
    assert(Value && "dereferencing failed Expected");
    return *Value;
  }
  T *operator->() {
    assert(Value && "dereferencing failed Expected");
    return &*Value;
  }
  const T *operator->() const {
    assert(Value && "dereferencing failed Expected");
    return &*Value;
  }

  /// Moves the error out; returns success() if this holds a value.
  Error takeError() {
    if (Value)
      return Error::success();
    return std::move(Err);
  }

  /// Returns the failure message; only valid on failures.
  const std::string &message() const { return Err.message(); }

  /// Returns the failure classification; only valid on failures.
  ErrorCode code() const { return Err.code(); }

private:
  std::optional<T> Value;
  Error Err;
};

/// Builds a failure Error from a message.
inline Error makeError(std::string Msg) {
  return Error::failure(std::move(Msg));
}

/// Builds a classified failure Error.
inline Error makeError(ErrorCode Code, std::string Msg) {
  return Error::failure(Code, std::move(Msg));
}

/// Moves out the first failure of \p Errors in index order, or returns
/// success. The parallel stages keep one slot per task and report
/// through this, so the error a caller sees never depends on which task
/// finished first.
inline Error firstFailure(std::vector<Error> &Errors) {
  for (Error &E : Errors)
    if (E)
      return std::move(E);
  return Error::success();
}

} // namespace cjpack

#endif // CJPACK_SUPPORT_ERROR_H
