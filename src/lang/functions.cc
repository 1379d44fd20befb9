#include "lang/functions.h"

#include <cstdint>

#include "common/logging.h"

namespace mitos::lang {
namespace {

// Two's-complement wrapping int64 arithmetic. Signed overflow is undefined
// behaviour; wrapping through uint64_t is defined, agrees on every engine,
// and keeps + and * associative and commutative over all of int64, which
// the eager typed folds (BinaryFn::i64) rely on.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
// |x|, wrapping: |INT64_MIN| is INT64_MIN.
int64_t WrapAbs(int64_t x) { return x < 0 ? WrapSub(0, x) : x; }

}  // namespace

namespace fns {

UnaryFn PairWithOne() {
  UnaryFn f{"pairWithOne",
            [](const Datum& x) { return Datum::Pair(x, Datum::Int64(1)); }};
  f.i64_to_pair = [](int64_t x) { return Int64Pair{x, 1}; };
  return f;
}

BinaryFn SumInt64() {
  BinaryFn f{"sumInt64", [](const Datum& a, const Datum& b) {
               return Datum::Int64(WrapAdd(a.int64(), b.int64()));
             }};
  f.i64 = WrapAdd;
  return f;
}

BinaryFn SumDouble() {
  return {"sumDouble", [](const Datum& a, const Datum& b) {
            return Datum::Double(a.dbl() + b.dbl());
          }};
}

BinaryFn MinInt64() {
  BinaryFn f{"minInt64", [](const Datum& a, const Datum& b) {
               return a.int64() <= b.int64() ? a : b;
             }};
  f.i64 = [](int64_t a, int64_t b) { return a <= b ? a : b; };
  return f;
}

BinaryFn MaxInt64() {
  BinaryFn f{"maxInt64", [](const Datum& a, const Datum& b) {
               return a.int64() >= b.int64() ? a : b;
             }};
  f.i64 = [](int64_t a, int64_t b) { return a >= b ? a : b; };
  return f;
}

BinaryFn KeepLast() {
  // Deliberately no i64 fast path: the result depends on fold order.
  return {"keepLast", [](const Datum&, const Datum& b) { return b; }};
}

UnaryFn Field(size_t i) {
  // The name is the parser's registry syntax (lang/parser.cc), so printed
  // programs (lang::ToSource) round-trip through lang::Parse.
  UnaryFn f{"field(" + std::to_string(i) + ")",
            [i](const Datum& x) { return x.field(i); }};
  // Columnar pairs are exactly width-2 tuples, so field(0)/field(1) have
  // typed projections.
  if (i == 0) f.pair_to_i64 = [](int64_t k, int64_t) { return k; };
  if (i == 1) f.pair_to_i64 = [](int64_t, int64_t v) { return v; };
  return f;
}

UnaryFn Identity() {
  UnaryFn f{"identity", [](const Datum& x) { return x; }};
  f.i64 = [](int64_t x) { return x; };
  f.f64 = [](double x) { return x; };
  f.pair_to_pair = [](int64_t k, int64_t v) { return Int64Pair{k, v}; };
  return f;
}

UnaryFn AddInt64(int64_t delta) {
  UnaryFn f{"addInt64(" + std::to_string(delta) + ")",
            [delta](const Datum& x) {
              return Datum::Int64(WrapAdd(x.int64(), delta));
            }};
  f.i64 = [delta](int64_t x) { return WrapAdd(x, delta); };
  return f;
}

UnaryFn MulInt64(int64_t k) {
  UnaryFn f{"mulInt64(" + std::to_string(k) + ")", [k](const Datum& x) {
              return Datum::Int64(WrapMul(x.int64(), k));
            }};
  f.i64 = [k](int64_t x) { return WrapMul(x, k); };
  return f;
}

UnaryFn SumJoin() {
  // Join output (k, lv, rv) -> (k, lv + rv): projects a join back into a
  // pair bag, so joined pipelines stay joinable/reducible. Width-3 tuples
  // are never columnar, so there is no fast path.
  return {"sumJoin", [](const Datum& t) {
            return Datum::Pair(t.field(0), Datum::Int64(t.field(1).int64() +
                                                        t.field(2).int64()));
          }};
}

UnaryFn PairSwap() {
  UnaryFn f{"pairSwap", [](const Datum& p) {
              return Datum::Pair(p.field(1), p.field(0));
            }};
  f.pair_to_pair = [](int64_t k, int64_t v) { return Int64Pair{v, k}; };
  return f;
}

UnaryFn AbsDiffFields12() {
  // Named to match the parser registry ("absDiff") so printed
  // programs re-parse to a program that prints identically.
  return {"absDiff", [](const Datum& x) {
            return Datum::Int64(
                WrapAbs(WrapSub(x.field(1).int64(), x.field(2).int64())));
          }};
}

UnaryFn ScaleDouble(double factor) {
  UnaryFn f{"scaleDouble", [factor](const Datum& x) {
              return Datum::Double(x.dbl() * factor);
            }};
  f.f64 = [factor](double x) { return x * factor; };
  return f;
}

UnaryFn StrLen() {
  return {"strLen", [](const Datum& x) {
            return Datum::Int64(static_cast<int64_t>(x.str().size()));
          }};
}

UnaryFn StrTag(int64_t k) {
  return {"strTag(" + std::to_string(k) + ")", [k](const Datum& x) {
            return Datum::String(x.str() + "#" + std::to_string(k));
          }};
}

PredicateFn FieldEquals(size_t i, Datum value) {
  // Only int64 values are expressible in the parser's fieldEquals(i, v)
  // syntax; other kinds keep a debug-only name.
  std::string name =
      value.is_int64()
          ? "fieldEquals(" + std::to_string(i) + ", " +
                std::to_string(value.int64()) + ")"
          : "fieldEquals" + std::to_string(i);
  PredicateFn f{std::move(name),
                [i, value](const Datum& x) { return x.field(i) == value; }};
  if (value.is_int64() && i < 2) {
    int64_t want = value.int64();
    f.pair = i == 0
                 ? std::function<bool(int64_t, int64_t)>(
                       [want](int64_t k, int64_t) { return k == want; })
                 : std::function<bool(int64_t, int64_t)>(
                       [want](int64_t, int64_t v) { return v == want; });
  }
  return f;
}

PredicateFn Int64ModEquals(int64_t modulus, int64_t remainder) {
  MITOS_CHECK_GT(modulus, 0);
  PredicateFn f{"modEquals(" + std::to_string(modulus) + ", " +
                    std::to_string(remainder) + ")",
                [modulus, remainder](const Datum& x) {
                  return x.int64() % modulus == remainder;
                }};
  f.i64 = [modulus, remainder](int64_t x) { return x % modulus == remainder; };
  return f;
}

PredicateFn GtInt64(int64_t k) {
  PredicateFn f{"gtInt64(" + std::to_string(k) + ")",
                [k](const Datum& x) { return x.int64() > k; }};
  f.i64 = [k](int64_t x) { return x > k; };
  return f;
}

PredicateFn LtInt64(int64_t k) {
  PredicateFn f{"ltInt64(" + std::to_string(k) + ")",
                [k](const Datum& x) { return x.int64() < k; }};
  f.i64 = [k](int64_t x) { return x < k; };
  return f;
}

PredicateFn StrLenGt(int64_t k) {
  return {"strLenGt(" + std::to_string(k) + ")", [k](const Datum& x) {
            return static_cast<int64_t>(x.str().size()) > k;
          }};
}

FlatMapFn Dup() {
  FlatMapFn f{"dup", [](const Datum& x) {
                return DatumVector{x, x};
              }};
  f.i64 = [](int64_t x, std::vector<int64_t>* out) {
    out->push_back(x);
    out->push_back(x);
  };
  return f;
}

FlatMapFn RangeTo() {
  FlatMapFn f{"rangeTo", [](const Datum& x) {
                DatumVector out;
                for (int64_t i = 0; i < x.int64(); ++i) {
                  out.push_back(Datum::Int64(i));
                }
                return out;
              }};
  f.i64 = [](int64_t x, std::vector<int64_t>* out) {
    for (int64_t i = 0; i < x; ++i) out->push_back(i);
  };
  return f;
}

}  // namespace fns
}  // namespace mitos::lang
