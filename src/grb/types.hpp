// Core types for the grb library — a from-scratch, GraphBLAS-compatible
// sparse linear algebra engine covering the operation subset the paper's
// Q1/Q2 solution uses (mxm, mxv, eWiseAdd, extract, apply, select, row-wise
// reduce, transpose, build, extractTuples, plus assign), with eWiseMult and
// scalar reduce besides.
//
// Semantics follow the GraphBLAS C API specification: operations compute an
// intermediate result T, which is merged into the output C under an optional
// mask M and accumulator op, i.e. C<M> (+)= T. Masks here are structural
// with value-truthiness (an entry participates if present and truthy), which
// matches how the paper's solution uses them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace grb {

/// Row/column index type, matching GrB_Index.
using Index = std::uint64_t;

/// Boolean storage type (GrB_BOOL). std::vector<bool> is a bit-packed proxy
/// container that cannot hand out spans, so containers must not be
/// instantiated with plain `bool`; use grb::Bool instead.
using Bool = std::uint8_t;

/// Base class of all grb exceptions (mirrors GrB_Info error codes).
class Exception : public std::runtime_error {
 public:
  explicit Exception(const std::string& what) : std::runtime_error(what) {}
};

/// Operand dimensions do not line up (GrB_DIMENSION_MISMATCH).
class DimensionMismatch : public Exception {
 public:
  explicit DimensionMismatch(const std::string& what)
      : Exception("dimension mismatch: " + what) {}
};

/// An index exceeds the container bounds (GrB_INDEX_OUT_OF_BOUNDS).
class IndexOutOfBounds : public Exception {
 public:
  explicit IndexOutOfBounds(const std::string& what)
      : Exception("index out of bounds: " + what) {}
};

/// Malformed input to build/insert (GrB_INVALID_VALUE).
class InvalidValue : public Exception {
 public:
  explicit InvalidValue(const std::string& what)
      : Exception("invalid value: " + what) {}
};

/// Output aliases an input where the kernel cannot tolerate it.
class AliasedOperand : public Exception {
 public:
  explicit AliasedOperand(const std::string& what)
      : Exception("aliased operand: " + what) {}
};

namespace detail {
inline void check(bool cond, const char* msg) {
  if (!cond) throw InvalidValue(msg);
}
}  // namespace detail

/// Descriptor: modifies operation behaviour, GrB_Descriptor-style.
struct Descriptor {
  /// Clear the output outside the mask region before writing (GrB_REPLACE).
  bool replace = false;
  /// Use the complement of the mask (GrB_COMP).
  bool complement_mask = false;
  /// Use only the pattern of the mask, ignoring stored values
  /// (GrB_STRUCTURE). When false, an entry masks iff it is truthy.
  bool structural_mask = false;
  /// Operate on the transpose of the first/second matrix input (GrB_TRAN).
  bool transpose_a = false;
  bool transpose_b = false;
};

/// Tag for "no accumulator": plain C<M> = T write.
struct NoAccum {};

/// Whether adopt_csr / Vector::adopt_sorted verify the invariants of the
/// adopted arrays (consistent sizes, sorted-unique coordinates, in-range
/// indices). kDebug (the default) checks in debug builds only, so Release
/// kernels skip the O(nnz) verify; tests pin invariant violations with
/// kAlways.
enum class CsrCheck {
  kDebug,
  kAlways,
  kNever,
};

}  // namespace grb
