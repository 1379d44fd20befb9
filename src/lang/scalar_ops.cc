#include "lang/scalar_ops.h"

#include <string>

namespace mitos::lang {

std::string StringifyForConcat(const Datum& d) {
  if (d.is_string()) return d.str();
  return d.ToString();
}

StatusOr<Datum> ApplyBinOp(BinOpKind op, const Datum& a, const Datum& b) {
  switch (op) {
    case BinOpKind::kConcat:
      return Datum::String(StringifyForConcat(a) + StringifyForConcat(b));
    case BinOpKind::kAnd:
    case BinOpKind::kOr: {
      if (!a.is_bool() || !b.is_bool()) {
        return Status::InvalidArgument("boolean operator on non-bools");
      }
      bool r = (op == BinOpKind::kAnd) ? (a.boolean() && b.boolean())
                                       : (a.boolean() || b.boolean());
      return Datum::Bool(r);
    }
    case BinOpKind::kEq:
      return Datum::Bool(a == b);
    case BinOpKind::kNe:
      return Datum::Bool(!(a == b));
    default:
      break;
  }
  bool numeric = (a.is_int64() || a.is_double()) &&
                 (b.is_int64() || b.is_double());
  if (!numeric) {
    return Status::InvalidArgument(std::string("numeric operator '") +
                                   BinOpName(op) + "' on non-numbers: " +
                                   a.ToString() + ", " + b.ToString());
  }
  bool both_int = a.is_int64() && b.is_int64();
  switch (op) {
    case BinOpKind::kAdd:
      return both_int ? Datum::Int64(WrapAdd(a.int64(), b.int64()))
                      : Datum::Double(a.AsNumber() + b.AsNumber());
    case BinOpKind::kSub:
      return both_int ? Datum::Int64(WrapSub(a.int64(), b.int64()))
                      : Datum::Double(a.AsNumber() - b.AsNumber());
    case BinOpKind::kMul:
      return both_int ? Datum::Int64(WrapMul(a.int64(), b.int64()))
                      : Datum::Double(a.AsNumber() * b.AsNumber());
    case BinOpKind::kDiv:
      if (both_int) {
        if (b.int64() == 0) return Status::InvalidArgument("division by zero");
        // x / -1 is -x, which wraps for INT64_MIN; the hardware division
        // would trap instead.
        if (b.int64() == -1) return Datum::Int64(WrapSub(0, a.int64()));
        return Datum::Int64(a.int64() / b.int64());
      }
      return Datum::Double(a.AsNumber() / b.AsNumber());
    case BinOpKind::kMod:
      if (!both_int) {
        return Status::InvalidArgument("'%' requires int64 operands");
      }
      if (b.int64() == 0) return Status::InvalidArgument("modulo by zero");
      if (b.int64() == -1) return Datum::Int64(0);  // traps for INT64_MIN
      return Datum::Int64(a.int64() % b.int64());
    case BinOpKind::kLt:
      return Datum::Bool(a.AsNumber() < b.AsNumber());
    case BinOpKind::kLe:
      return Datum::Bool(a.AsNumber() <= b.AsNumber());
    case BinOpKind::kGt:
      return Datum::Bool(a.AsNumber() > b.AsNumber());
    case BinOpKind::kGe:
      return Datum::Bool(a.AsNumber() >= b.AsNumber());
    default:
      return Status::Internal("unhandled binary operator");
  }
}

}  // namespace mitos::lang
