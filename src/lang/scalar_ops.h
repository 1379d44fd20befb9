// Datum-level semantics of the language's scalar binary operators.
//
// Shared by the reference interpreter and by the Preparator
// (ir/normalize.h), which synthesizes map/combine closures from scalar
// expressions when wrapping scalars into one-element bags (paper Sec. 4.1).
#ifndef MITOS_LANG_SCALAR_OPS_H_
#define MITOS_LANG_SCALAR_OPS_H_

#include <cstdint>

#include "common/datum.h"
#include "common/status.h"
#include "lang/ast.h"

namespace mitos::lang {

// Two's-complement wrapping int64 arithmetic, shared by the scalar operators
// and the stock bag functions (lang/functions.h). Signed overflow is
// undefined behaviour; wrapping through uint64_t is defined, agrees on every
// engine, and keeps + and * associative and commutative over all of int64,
// which the eager typed folds (BinaryFn::i64) rely on.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

// Applies `op` with the language's coercion rules:
//   * arithmetic: int64 op int64 -> int64, otherwise double; int64 + - *
//     wrap, and the one overflowing quotient wraps too: INT64_MIN / -1 is
//     INT64_MIN and INT64_MIN % -1 is 0;
//   * comparisons: == / != are value equality, orderings are numeric;
//   * && / || require bools;
//   * concat stringifies numeric operands.
// Division/modulo by zero and kind mismatches yield InvalidArgument.
StatusOr<Datum> ApplyBinOp(BinOpKind op, const Datum& a, const Datum& b);

// Renders `d` the way concat does: bare for strings, ToString otherwise.
std::string StringifyForConcat(const Datum& d);

}  // namespace mitos::lang

#endif  // MITOS_LANG_SCALAR_OPS_H_
