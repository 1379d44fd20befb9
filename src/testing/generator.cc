#include "testing/generator.h"

#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "lang/functions.h"

namespace mitos::testing {
namespace {

using lang::ExprPtr;
using lang::StmtList;

// Element shapes a generated bag can hold. kInt, kPair and kDblPair (int64
// key, double value) ride the typed column fast path of the batched data
// plane; kStr and kStrPair (string key, int64 value) force the boxed
// DatumVector fallback — the fuzzer must exercise both so the differential
// harness covers fast path and fallback.
enum class Shape { kInt, kPair, kStr, kStrPair, kDblPair };

class Generator {
 public:
  explicit Generator(const GeneratorOptions& options)
      : opts_(options), rng_(options.seed) {}

  GeneratedCase Run() {
    GeneratedCase result;
    result.seed = opts_.seed;
    out_ = &result.program.stmts;
    hist_ = &result.op_histogram;

    // Seed input bags: every program starts from 2-3 bagOf literals so it
    // is closed (no pre-seeded filesystem).
    int num_seeds = 2 + static_cast<int>(rng_.NextBelow(2));
    for (int i = 0; i < num_seeds; ++i) {
      Shape shape = RandomShape();
      std::string name = NewVar();
      Emit(lang::Assign(name, lang::BagLit(RandomBag(shape))));
      bags_.push_back({name, shape});
    }

    EmitStmts(opts_.budget, /*depth=*/0);

    // Write out every live bag so every computation is observable.
    int out_index = 0;
    for (const auto& [name, shape] : bags_) {
      Emit(lang::WriteFile(
          lang::Var(name),
          lang::LitString("out" + std::to_string(out_index++))));
    }

    result.source = lang::ToSource(result.program);
    GenerateFaultPlans(&result);
    return result;
  }

 private:
  struct BagVar {
    std::string name;
    Shape shape;
  };

  void Emit(lang::StmtPtr stmt) { out_->push_back(std::move(stmt)); }
  void Count(const char* op) { ++(*hist_)[op]; }

  std::string NewVar() { return "v" + std::to_string(var_counter_++); }

  Shape RandomShape() {
    switch (rng_.NextBelow(5)) {
      case 0:
        return Shape::kInt;
      case 1:
        return Shape::kPair;
      case 2:
        return Shape::kStr;
      case 3:
        return Shape::kStrPair;
      default:
        return Shape::kDblPair;
    }
  }

  // A small vocabulary keyed by k (same key space as the int shapes) so
  // distinct/union/reduceByKey see collisions on string data too.
  static std::string Word(int64_t k) {
    return std::string(1 + static_cast<size_t>(k % 4),
                       static_cast<char>('a' + k % 26));
  }

  DatumVector RandomBag(Shape shape) {
    DatumVector data;
    size_t n = 1 + rng_.NextBelow(static_cast<uint64_t>(opts_.max_bag));
    for (size_t i = 0; i < n; ++i) {
      int64_t k = static_cast<int64_t>(
          rng_.NextBelow(static_cast<uint64_t>(opts_.key_range)));
      switch (shape) {
        case Shape::kInt:
          data.push_back(Datum::Int64(k));
          break;
        case Shape::kPair:
          data.push_back(Datum::Pair(
              Datum::Int64(k),
              Datum::Int64(static_cast<int64_t>(rng_.NextBelow(100)))));
          break;
        case Shape::kStr:
          data.push_back(Datum::String(Word(k)));
          break;
        case Shape::kStrPair:
          data.push_back(Datum::Pair(
              Datum::String(Word(k)),
              Datum::Int64(static_cast<int64_t>(rng_.NextBelow(100)))));
          break;
        case Shape::kDblPair:
          // Multiples of 1/64 within [-8, 8]: sums of them are exact in any
          // order (the reference folds in arrival order, the engines in
          // sorted order, and outputs are compared exactly), and ToSource's
          // six fixed decimals print them without rounding.
          data.push_back(Datum::Pair(
              Datum::Int64(k),
              Datum::Double(static_cast<double>(rng_.NextInRange(-512, 512)) /
                            64.0)));
          break;
      }
    }
    return data;
  }

  // Picks a visible bag of the wanted shape, deriving one (with an emitted
  // conversion statement) when none exists.
  std::string BagOfShape(Shape want) {
    std::vector<const BagVar*> candidates;
    for (const BagVar& b : bags_) {
      if (b.shape == want) candidates.push_back(&b);
    }
    if (!candidates.empty()) {
      return candidates[rng_.NextBelow(candidates.size())]->name;
    }
    std::string name = NewVar();
    switch (want) {
      case Shape::kStr:
      case Shape::kDblPair:
        // Strings and doubles are not derivable from the int world: seed a
        // literal.
        Emit(lang::Assign(name, lang::BagLit(RandomBag(want))));
        break;
      case Shape::kStrPair: {
        std::string in = BagOfShape(Shape::kStr);
        Emit(lang::Assign(name, lang::Map(lang::Var(in),
                                          lang::fns::PairWithOne())));
        Count("map");
        break;
      }
      case Shape::kPair: {
        std::string in = BagOfShape(Shape::kInt);
        Emit(lang::Assign(name, lang::Map(lang::Var(in),
                                          lang::fns::PairWithOne())));
        Count("map");
        break;
      }
      case Shape::kInt: {
        const BagVar& src = bags_[rng_.NextBelow(bags_.size())];
        ExprPtr in = lang::Var(src.name);
        switch (src.shape) {
          case Shape::kInt:
            in = lang::Map(std::move(in), lang::fns::AddInt64(1));
            break;
          case Shape::kPair:
          case Shape::kStrPair:
            in = lang::Map(std::move(in), lang::fns::Field(1));
            break;
          case Shape::kDblPair:
            in = lang::Map(std::move(in), lang::fns::Field(0));
            break;
          case Shape::kStr:
            in = lang::Map(std::move(in), lang::fns::StrLen());
            break;
        }
        Emit(lang::Assign(name, std::move(in)));
        Count("map");
        break;
      }
    }
    bags_.push_back({name, want});
    return name;
  }

  // ----- statements -----

  void EmitStmts(int budget, int depth) {
    while (budget > 0) {
      --budget;
      uint64_t pick = rng_.NextBelow(12);
      if (depth >= opts_.max_depth && pick >= 6 && pick <= 9) pick = 0;
      switch (pick) {
        case 6:
          EmitScalarStmt();
          break;
        case 7:
        case 8: {
          // Loops consume extra budget for their body.
          int body_budget = 1 + static_cast<int>(rng_.NextBelow(3));
          budget -= body_budget / 2;
          EmitLoop(depth, body_budget);
          break;
        }
        case 9:
          EmitIf(depth);
          break;
        case 10:
          EmitWrite();
          break;
        default:
          EmitBagStmt();
          break;
      }
    }
  }

  void EmitBagStmt() {
    switch (rng_.NextBelow(18)) {
      case 0: {  // int map
        std::string in = BagOfShape(Shape::kInt);
        std::string name = NewVar();
        ExprPtr rhs =
            rng_.NextBelow(2) == 0
                ? lang::Map(lang::Var(in),
                            lang::fns::AddInt64(rng_.NextInRange(-3, 3)))
                : lang::Map(lang::Var(in),
                            lang::fns::MulInt64(rng_.NextInRange(-2, 3)));
        Emit(lang::Assign(name, rhs));
        Count("map");
        bags_.push_back({name, Shape::kInt});
        break;
      }
      case 1: {  // filter
        std::string in = BagOfShape(Shape::kInt);
        std::string name = NewVar();
        ExprPtr rhs;
        switch (rng_.NextBelow(3)) {
          case 0:
            rhs = lang::Filter(lang::Var(in),
                               lang::fns::Int64ModEquals(
                                   2 + rng_.NextInRange(0, 2),
                                   rng_.NextInRange(0, 1)));
            break;
          case 1:
            rhs = lang::Filter(lang::Var(in),
                               lang::fns::GtInt64(rng_.NextInRange(0, 8)));
            break;
          default:
            rhs = lang::Filter(lang::Var(in),
                               lang::fns::LtInt64(rng_.NextInRange(2, 10)));
            break;
        }
        Emit(lang::Assign(name, rhs));
        Count("filter");
        bags_.push_back({name, Shape::kInt});
        break;
      }
      case 2: {  // pair from int
        std::string in = BagOfShape(Shape::kInt);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::Map(lang::Var(in),
                                          lang::fns::PairWithOne())));
        Count("map");
        bags_.push_back({name, Shape::kPair});
        break;
      }
      case 3: {  // reduceByKey
        std::string in = BagOfShape(Shape::kPair);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::ReduceByKey(lang::Var(in),
                                                  RandomCombiner())));
        Count("reduceByKey");
        bags_.push_back({name, Shape::kPair});
        break;
      }
      case 4: {  // join; project the (k, lv, rv) triples back to a shape
        std::string build = BagOfShape(Shape::kPair);
        std::string probe = BagOfShape(Shape::kPair);
        std::string name = NewVar();
        ExprPtr joined = lang::Join(lang::Var(build), lang::Var(probe));
        switch (rng_.NextBelow(3)) {
          case 0:  // (k, lv + rv): stays a pair bag
            Emit(lang::Assign(name, lang::Map(joined, lang::fns::SumJoin())));
            bags_.push_back({name, Shape::kPair});
            break;
          case 1:  // |lv - rv|: int bag
            Emit(lang::Assign(name,
                              lang::Map(joined,
                                        lang::fns::AbsDiffFields12())));
            bags_.push_back({name, Shape::kInt});
            break;
          default:  // matched keys: int bag
            Emit(lang::Assign(name, lang::Map(joined, lang::fns::Field(0))));
            bags_.push_back({name, Shape::kInt});
            break;
        }
        Count("join");
        break;
      }
      case 5: {  // union (same shape)
        Shape shape = RandomShape();
        std::string a = BagOfShape(shape);
        std::string b = BagOfShape(shape);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::Union(lang::Var(a), lang::Var(b))));
        Count("union");
        bags_.push_back({name, shape});
        break;
      }
      case 6: {  // distinct
        Shape shape = RandomShape();
        std::string in = BagOfShape(shape);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::Distinct(lang::Var(in))));
        Count("distinct");
        bags_.push_back({name, shape});
        break;
      }
      case 7: {  // values of pairs (int- or string-keyed)
        std::string in = BagOfShape(rng_.NextBelow(2) == 0
                                        ? Shape::kPair
                                        : Shape::kStrPair);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::Map(lang::Var(in),
                                          lang::fns::Field(1))));
        Count("map");
        bags_.push_back({name, Shape::kInt});
        break;
      }
      case 8: {  // copy (identity materialization + loop carry)
        const BagVar& src = bags_[rng_.NextBelow(bags_.size())];
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::Var(src.name)));
        Count("copy");
        bags_.push_back({name, src.shape});
        break;
      }
      case 9: {  // flatMap dup
        std::string in = BagOfShape(Shape::kInt);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::FlatMap(lang::Var(in),
                                              lang::fns::Dup())));
        Count("flatMap");
        bags_.push_back({name, Shape::kInt});
        break;
      }
      case 10: {  // count: one-element int bag
        Shape shape = RandomShape();
        std::string in = BagOfShape(shape);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::Count(lang::Var(in))));
        Count("count");
        bags_.push_back({name, Shape::kInt});
        break;
      }
      case 11: {  // full reduce: one-element (or empty) int bag
        std::string in = BagOfShape(Shape::kInt);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::Reduce(lang::Var(in),
                                             RandomCombiner())));
        Count("reduce");
        bags_.push_back({name, Shape::kInt});
        break;
      }
      case 12: {  // pairSwap (value becomes the join/reduce key)
        std::string in = BagOfShape(Shape::kPair);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::Map(lang::Var(in),
                                          lang::fns::PairSwap())));
        Count("map");
        bags_.push_back({name, Shape::kPair});
        break;
      }
      case 13: {  // filter pairs on key
        std::string in = BagOfShape(Shape::kPair);
        std::string name = NewVar();
        Emit(lang::Assign(
            name,
            lang::Filter(lang::Var(in),
                         lang::fns::FieldEquals(
                             0, Datum::Int64(rng_.NextInRange(
                                    0, opts_.key_range - 1))))));
        Count("filter");
        bags_.push_back({name, Shape::kPair});
        break;
      }
      case 14: {  // string map: tag (str -> str), boxed fallback territory
        std::string in = BagOfShape(Shape::kStr);
        std::string name = NewVar();
        Emit(lang::Assign(name,
                          lang::Map(lang::Var(in),
                                    lang::fns::StrTag(
                                        rng_.NextInRange(0, 9)))));
        Count("map");
        bags_.push_back({name, Shape::kStr});
        break;
      }
      case 15: {  // string length: map into the int world, or filter on it
        std::string in = BagOfShape(Shape::kStr);
        std::string name = NewVar();
        if (rng_.NextBelow(2) == 0) {
          Emit(lang::Assign(name, lang::Map(lang::Var(in),
                                            lang::fns::StrLen())));
          Count("map");
          bags_.push_back({name, Shape::kInt});
        } else {
          Emit(lang::Assign(name,
                            lang::Filter(lang::Var(in),
                                         lang::fns::StrLenGt(
                                             rng_.NextInRange(0, 3)))));
          Count("filter");
          bags_.push_back({name, Shape::kStr});
        }
        break;
      }
      case 16:
        EmitDoublePairStmt();
        break;
      default: {  // string-keyed reduceByKey: typed state must degrade
        std::string in = BagOfShape(Shape::kStrPair);
        std::string name = NewVar();
        Emit(lang::Assign(name, lang::ReduceByKey(lang::Var(in),
                                                  RandomCombiner())));
        Count("reduceByKey");
        bags_.push_back({name, Shape::kStrPair});
        break;
      }
    }
  }

  // (int64, double) pairs: the sorted double fold of reduceByKey(sumDouble)
  // and the unboxed join probe. Joins project to the matched keys, since
  // no stock projection adds a double to an int64.
  void EmitDoublePairStmt() {
    std::string in = BagOfShape(Shape::kDblPair);
    std::string name = NewVar();
    if (rng_.NextBelow(2) == 0) {
      Emit(lang::Assign(name, lang::ReduceByKey(lang::Var(in),
                                                lang::fns::SumDouble())));
      Count("reduceByKey");
      bags_.push_back({name, Shape::kDblPair});
      return;
    }
    std::string build = BagOfShape(rng_.NextBelow(2) == 0 ? Shape::kPair
                                                           : Shape::kDblPair);
    Emit(lang::Assign(
        name, lang::Map(lang::Join(lang::Var(build), lang::Var(in)),
                        lang::fns::Field(0))));
    Count("join");
    bags_.push_back({name, Shape::kInt});
  }

  void EmitScalarStmt() {
    Count("scalar");
    std::string name;
    bool is_new = false;
    // Half the time reassign an existing (non-counter) scalar, creating
    // scalar Φs; otherwise define a new one. A new scalar becomes visible
    // (to operand() below and to later statements) only AFTER its defining
    // statement — otherwise the rhs could read it before assignment.
    if (!scalars_.empty() && rng_.NextBelow(2) == 0) {
      name = scalars_[rng_.NextBelow(scalars_.size())];
    } else {
      name = NewVar();
      is_new = true;
    }
    if (rng_.NextBelow(3) == 0) {
      // Data flows into the scalar world: s = scalarOf(bag.count()).
      const BagVar& b = bags_[rng_.NextBelow(bags_.size())];
      Emit(lang::Assign(name, lang::ScalarFromBag(
                                  lang::Count(lang::Var(b.name)))));
      if (is_new) scalars_.push_back(name);
      return;
    }
    auto operand = [&]() -> ExprPtr {
      if (!scalars_.empty() && rng_.NextBelow(2) == 0) {
        return lang::Var(scalars_[rng_.NextBelow(scalars_.size())]);
      }
      return lang::LitInt(rng_.NextInRange(-3, 9));
    };
    ExprPtr rhs;
    switch (rng_.NextBelow(3)) {
      case 0:
        rhs = lang::Add(operand(), operand());
        break;
      case 1:
        rhs = lang::Sub(operand(), operand());
        break;
      default:
        // Multiplication only by a small literal so values stay bounded.
        rhs = lang::Mul(operand(), lang::LitInt(rng_.NextInRange(-2, 3)));
        break;
    }
    Emit(lang::Assign(name, rhs));
    if (is_new) scalars_.push_back(name);
  }

  // A data-dependent boolean over a visible bag: the k-means-convergence
  // territory of the paper. `limit` bounds which bags may be referenced
  // (loop conditions must only use bags defined before the loop).
  ExprPtr DataCond(size_t bag_limit) {
    const BagVar& b = bags_[rng_.NextBelow(bag_limit)];
    ExprPtr count = lang::ScalarFromBag(lang::Count(lang::Var(b.name)));
    if (rng_.NextBelow(2) == 0) {
      return lang::Gt(count, lang::LitInt(rng_.NextInRange(0, 4)));
    }
    return lang::Eq(lang::Mod(count, lang::LitInt(2)),
                    lang::LitInt(rng_.NextInRange(0, 1)));
  }

  // A boolean over visible scalars; falls back to a data condition when no
  // scalar is in scope.
  ExprPtr ScalarCond() {
    if (scalars_.empty() || rng_.NextBelow(3) == 0) {
      return DataCond(bags_.size());
    }
    ExprPtr s = lang::Var(scalars_[rng_.NextBelow(scalars_.size())]);
    switch (rng_.NextBelow(3)) {
      case 0:
        return lang::Eq(lang::Mod(s, lang::LitInt(2)),
                        lang::LitInt(rng_.NextInRange(0, 1)));
      case 1:
        return lang::Lt(s, lang::LitInt(rng_.NextInRange(0, 6)));
      default:
        return lang::Ne(s, lang::LitInt(rng_.NextInRange(0, 3)));
    }
  }

  void EmitLoop(int depth, int body_budget) {
    bool is_while = rng_.NextBelow(2) == 0;
    Count(is_while ? "while" : "doWhile");
    std::string counter = NewVar();
    // While loops may be zero-trip (their body's definitions do not
    // escape); do-while bodies run at least once.
    int64_t trips = is_while
                        ? static_cast<int64_t>(
                              rng_.NextBelow(opts_.max_trip + 1))
                        : 1 + static_cast<int64_t>(
                                  rng_.NextBelow(opts_.max_trip));
    Emit(lang::Assign(counter, lang::LitInt(0)));
    size_t bag_scope = bags_.size();
    size_t scalar_scope = scalars_.size();

    // Termination invariant: the condition always carries the bounded
    // counter conjunct; an optional data-dependent conjunct can only exit
    // the loop early, never extend it.
    ExprPtr cond = lang::Lt(lang::Var(counter), lang::LitInt(trips));
    if (rng_.NextBelow(3) == 0) {
      cond = lang::And(cond, DataCond(bag_scope));
    }

    StmtList body;
    StmtList* saved = out_;
    out_ = &body;
    loop_counters_.push_back(counter);
    EmitStmts(body_budget, depth + 1);
    ReassignExistingBag(bag_scope);
    Emit(lang::Assign(counter,
                      lang::Add(lang::Var(counter), lang::LitInt(1))));
    loop_counters_.pop_back();
    out_ = saved;

    if (is_while) {
      Emit(lang::While(cond, std::move(body)));
      // A while body may run zero times: its definitions do not escape.
      bags_.resize(bag_scope);
      scalars_.resize(scalar_scope);
    } else {
      Emit(lang::DoWhile(std::move(body), cond));
      // Do-while definitions escape (the body runs at least once).
    }
  }

  void EmitIf(int depth) {
    Count("if");
    ExprPtr cond = ScalarCond();
    size_t bag_scope = bags_.size();
    size_t scalar_scope = scalars_.size();

    StmtList then_body;
    StmtList* saved = out_;
    out_ = &then_body;
    EmitStmts(1 + static_cast<int>(rng_.NextBelow(2)), depth + 1);
    ReassignExistingBag(bag_scope);
    bags_.resize(bag_scope);
    scalars_.resize(scalar_scope);

    StmtList else_body;
    if (rng_.NextBelow(2) == 0) {
      out_ = &else_body;
      ReassignExistingBag(bag_scope);
      if (rng_.NextBelow(2) == 0) {
        EmitStmts(1, depth + 1);
      }
      bags_.resize(bag_scope);
      scalars_.resize(scalar_scope);
    }
    out_ = saved;
    Emit(lang::If(std::move(cond), std::move(then_body),
                  std::move(else_body)));
  }

  // Writes a visible bag under a name that is unique per dynamic execution:
  // inside loops the enclosing counters are concatenated into the filename
  // ("o3_" ++ i ++ "_" ++ j), the paper's own pattern ("diff" ++ day).
  void EmitWrite() {
    Count("write");
    const BagVar& b = bags_[rng_.NextBelow(bags_.size())];
    ExprPtr name = lang::LitString("o" + std::to_string(file_counter_++));
    for (const std::string& counter : loop_counters_) {
      name = lang::Concat(lang::Concat(name, lang::LitString("_")),
                          lang::Var(counter));
    }
    Emit(lang::WriteFile(lang::Var(b.name), std::move(name)));
  }

  // x = f(x) for a bag existing OUTSIDE the current scope: creates Φs at
  // loop heads and if joins — the machinery step templates must invalidate
  // correctly.
  void ReassignExistingBag(size_t scope) {
    if (scope == 0) return;
    const BagVar& target = bags_[rng_.NextBelow(scope)];
    switch (target.shape) {
      case Shape::kInt:
        Emit(lang::Assign(target.name,
                          lang::Map(lang::Var(target.name),
                                    lang::fns::AddInt64(1))));
        Count("map");
        break;
      case Shape::kStr:
        Emit(lang::Assign(target.name,
                          lang::Map(lang::Var(target.name),
                                    lang::fns::StrTag(1))));
        Count("map");
        break;
      case Shape::kPair:
      case Shape::kStrPair:
        Emit(lang::Assign(target.name,
                          lang::ReduceByKey(lang::Var(target.name),
                                            lang::fns::SumInt64())));
        Count("reduceByKey");
        break;
      case Shape::kDblPair:
        Emit(lang::Assign(target.name,
                          lang::ReduceByKey(lang::Var(target.name),
                                            lang::fns::SumDouble())));
        Count("reduceByKey");
        break;
    }
  }

  // Only commutative + associative combiners: engines reduce in partition
  // order, the reference in literal order, so an order-dependent combiner
  // (keepLast, say) diverges legally — found by this very fuzzer on seed
  // 2499428271988735912, where reduce(keepLast) over bagOf(11, 11, 0)
  // keeps 0 sequentially and 11 distributed. The fns:: factories carry the
  // vectorized i64 fast paths, so generated programs exercise the typed
  // reducer state as well as the generic one.
  lang::BinaryFn RandomCombiner() {
    switch (rng_.NextBelow(3)) {
      case 0:
        return lang::fns::SumInt64();
      case 1:
        return lang::fns::MinInt64();
      default:
        return lang::fns::MaxInt64();
    }
  }

  // ----- fault plans -----

  void GenerateFaultPlans(GeneratedCase* result) {
    for (int i = 0; i < opts_.fault_plans; ++i) {
      sim::FaultPlan plan;
      uint64_t mode = rng_.NextBelow(3);
      if (mode != 1) {
        sim::FaultPlan::Crash crash;
        // Machine 0 hosts the coordinator; crash workers only.
        crash.machine =
            1 + static_cast<int>(rng_.NextBelow(
                    static_cast<uint64_t>(opts_.machines - 1)));
        crash.at = 0.05 + rng_.NextDouble() * 1.5;
        crash.restart_after = 0.1 + rng_.NextDouble() * 0.7;
        plan.crashes.push_back(crash);
      }
      if (mode != 0) {
        plan.drop_probability = 0.002 + rng_.NextDouble() * 0.015;
        // The spec grammar parses seeds as int, so stay within it.
        plan.drop_seed = rng_.NextBelow(1u << 30);
      }
      plan.checkpoint_every = static_cast<int>(rng_.NextBelow(4));
      // Round-trip through the textual spec so the stored plan is exactly
      // what a repro file replays.
      std::string spec = plan.ToString();
      auto reparsed = sim::FaultPlan::Parse(spec);
      MITOS_CHECK(reparsed.ok());
      result->fault_plans.push_back(*reparsed);
      result->fault_specs.push_back(std::move(spec));
    }
  }

  GeneratorOptions opts_;
  Rng rng_;
  StmtList* out_ = nullptr;
  std::map<std::string, int>* hist_ = nullptr;
  std::vector<BagVar> bags_;
  std::vector<std::string> scalars_;        // excludes active loop counters
  std::vector<std::string> loop_counters_;  // innermost last
  int var_counter_ = 0;
  int file_counter_ = 0;
};

}  // namespace

GeneratedCase GenerateCase(const GeneratorOptions& options) {
  MITOS_CHECK_GE(options.machines, 2);
  Generator generator(options);
  return generator.Run();
}

uint64_t CaseSeed(uint64_t base_seed, int index) {
  return MixInt64(base_seed ^
                  (0x517cc1b727220a95ULL *
                   (static_cast<uint64_t>(index) + 1)));
}

}  // namespace mitos::testing
