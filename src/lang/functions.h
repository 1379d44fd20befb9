// Named user-function wrappers for bag operations.
//
// The paper's user programs pass Scala lambdas to bag operations (map,
// filter, reduceByKey, ...). We wrap std::function with a name so that IR
// dumps and dataflow visualizations stay readable; the function body itself
// is opaque to the compiler, exactly as in the paper (only control flow is
// inspected, never lambda bodies).
//
// Each wrapper optionally carries typed fast-path variants operating on raw
// int64/double values. These power the vectorized kernels over columnar
// chunks (common/chunk.h): when a chunk's representation matches a fast
// path, the kernel runs a tight loop with no Datum boxing. A fast path MUST
// be exactly equivalent to `fn` on the corresponding representation — the
// fuzz harness cross-checks this by diffing columnar-on vs columnar-off
// runs element-for-element.
#ifndef MITOS_LANG_FUNCTIONS_H_
#define MITOS_LANG_FUNCTIONS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/datum.h"

namespace mitos::lang {

// (key, value) int64 pair for typed fast paths.
using Int64Pair = std::pair<int64_t, int64_t>;

// Element -> element (map, key extraction).
struct UnaryFn {
  std::string name;
  std::function<Datum(const Datum&)> fn;

  // Typed fast paths (all optional; see file comment).
  std::function<int64_t(int64_t)> i64;            // int64 -> int64
  std::function<double(double)> f64;              // double -> double
  std::function<Int64Pair(int64_t)> i64_to_pair;  // int64 -> (k, v)
  std::function<int64_t(int64_t, int64_t)> pair_to_i64;    // (k, v) -> int64
  std::function<Int64Pair(int64_t, int64_t)> pair_to_pair;  // (k,v) -> (k,v)

  bool valid() const { return static_cast<bool>(fn); }
  Datum operator()(const Datum& x) const { return fn(x); }
};

// (element, element) -> element (reduce, reduceByKey combiners, join output).
struct BinaryFn {
  std::string name;
  std::function<Datum(const Datum&, const Datum&)> fn;

  // int64 fast path. Only set for combiners that are commutative and
  // associative over all of int64 (sum/min/max; sums wrap, so overflow
  // keeps both laws). That licenses order-free eager folding: the typed
  // reduce kernels fold each value into its key's accumulator as it
  // arrives, in any order, and still match the generic sorted Datum fold
  // exactly. Order-sensitive combiners (keepLast) must stay generic.
  std::function<int64_t(int64_t, int64_t)> i64;

  // double fast path (sumDouble). Its contract is weaker than i64's: the
  // body is exactly `fn` on doubles but NOT associative (float rounding), so
  // no kernel may fold it eagerly or in arrival order. A kernel may only
  // apply it as the generic path does: to each key's values sorted with
  // `<`, folded left. Values that compare equal are then either identical
  // or zeros of either sign, whose sums do not depend on their order, so
  // the result is bitwise the generic one. NaN breaks the sort's ordering,
  // so kernels hand NaN inputs to the generic path.
  std::function<double(double, double)> f64;

  bool valid() const { return static_cast<bool>(fn); }
  Datum operator()(const Datum& a, const Datum& b) const { return fn(a, b); }
};

// Element -> bool (filter).
struct PredicateFn {
  std::string name;
  std::function<bool(const Datum&)> fn;

  // Typed fast paths.
  std::function<bool(int64_t)> i64;
  std::function<bool(int64_t, int64_t)> pair;

  bool valid() const { return static_cast<bool>(fn); }
  bool operator()(const Datum& x) const { return fn(x); }
};

// Element -> elements (flatMap).
struct FlatMapFn {
  std::string name;
  std::function<DatumVector(const Datum&)> fn;

  // int64 -> int64s fast path; appends outputs to `out`.
  std::function<void(int64_t, std::vector<int64_t>*)> i64;

  bool valid() const { return static_cast<bool>(fn); }
  DatumVector operator()(const Datum& x) const { return fn(x); }
};

// ----- Stock functions used by the paper's workloads and by tests -----
//
// Every factory here whose name matches the parser registry (lang/parser.cc)
// must keep that exact name so printed programs (lang::ToSource) round-trip
// through lang::Parse.
namespace fns {

// x -> (x, 1): the classic word-count/visit-count mapper.
UnaryFn PairWithOne();

// (a, b) -> a + b for int64s, wrapping on overflow.
BinaryFn SumInt64();

// (a, b) -> a + b for doubles.
BinaryFn SumDouble();

// (a, b) -> min / max for int64s.
BinaryFn MinInt64();
BinaryFn MaxInt64();

// (a, b) -> b. Order-sensitive by design; no fast path.
BinaryFn KeepLast();

// Pair/tuple field accessors: x -> x.field(i).
UnaryFn Field(size_t i);

// Identity.
UnaryFn Identity();

// x -> x + delta for int64s, wrapping on overflow.
UnaryFn AddInt64(int64_t delta);

// x -> x * k for int64s, wrapping on overflow.
UnaryFn MulInt64(int64_t k);

// Join output (k, lv, rv) -> (k, lv + rv).
UnaryFn SumJoin();

// (a, b) -> (b, a).
UnaryFn PairSwap();

// (today, yesterday) tuple of (key, a, b) -> |a - b| as int64, wrapping on
// overflow (|INT64_MIN| stays INT64_MIN).
// Matches the paper's `map((id,today,yesterday) => abs(today-yesterday))`.
UnaryFn AbsDiffFields12();

// x -> x * factor for doubles.
UnaryFn ScaleDouble(double factor);

// String length as int64 (maps string bags back into the int vocabulary).
UnaryFn StrLen();

// s -> s + "#" + k: string-preserving transform with an int64 parameter so
// it fits the parser's registry syntax.
UnaryFn StrTag(int64_t k);

// True iff x.field(i) == value.
PredicateFn FieldEquals(size_t i, Datum value);

// True iff int64 x % modulus == remainder.
PredicateFn Int64ModEquals(int64_t modulus, int64_t remainder);

// True iff int64 x > k / x < k.
PredicateFn GtInt64(int64_t k);
PredicateFn LtInt64(int64_t k);

// True iff string length > k.
PredicateFn StrLenGt(int64_t k);

// x -> [x, x].
FlatMapFn Dup();

// n -> [0, 1, ..., n-1].
FlatMapFn RangeTo();

}  // namespace fns

}  // namespace mitos::lang

#endif  // MITOS_LANG_FUNCTIONS_H_
