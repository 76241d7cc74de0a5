#pragma once

// Scalar types and runtime values for the kernel IR.
//
// The IR models CUDA device code at the granularity the partitioning
// toolchain needs: 64-bit integers for index arithmetic and doubles for
// floating-point payloads.  (Narrower types would only change byte counts in
// the cost model; they are modeled via the element size of array parameters.)

#include <cstdint>
#include <string>

#include "support/arith.h"
#include "support/error.h"

namespace polypart::ir {

enum class Type { I64, F64 };

inline const char* typeName(Type t) { return t == Type::I64 ? "i64" : "f64"; }

/// A runtime scalar value.
struct Value {
  Type type = Type::I64;
  union {
    i64 i;
    double f;
  };

  Value() : i(0) {}
  static Value ofInt(i64 v) {
    Value x;
    x.type = Type::I64;
    x.i = v;
    return x;
  }
  static Value ofFloat(double v) {
    Value x;
    x.type = Type::F64;
    x.f = v;
    return x;
  }

  i64 asInt() const {
    PP_ASSERT(type == Type::I64);
    return i;
  }
  double asFloat() const {
    PP_ASSERT(type == Type::F64);
    return f;
  }
};

/// CUDA-style 3-component extent; `x` is the fastest-varying dimension.
struct Dim3 {
  i64 x = 1;
  i64 y = 1;
  i64 z = 1;

  i64 count() const { return checkedMul(checkedMul(x, y), z); }
  bool operator==(const Dim3&) const = default;
  std::string str() const {
    return "(" + std::to_string(x) + ", " + std::to_string(y) + ", " +
           std::to_string(z) + ")";
  }
};

/// Grid axes in the paper's notation, w in {z, y, x}.  Axis::X is the
/// innermost/fastest dimension.
enum class Axis { X = 0, Y = 1, Z = 2 };

inline const char* axisName(Axis a) {
  switch (a) {
    case Axis::X: return "x";
    case Axis::Y: return "y";
    case Axis::Z: return "z";
  }
  return "?";
}

}  // namespace polypart::ir
