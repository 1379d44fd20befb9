#include "dataflow/operators.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace mitos::dataflow {

namespace {

// Generic per-element iteration over any chunk representation. Boxed chunks
// iterate in place; columnar chunks box one element at a time.
template <typename Fn>
void ForEachDatum(const Chunk& chunk, Fn&& fn) {
  if (chunk.rep() == Chunk::Rep::kDatums) {
    const Datum* data = chunk.datums();
    for (size_t i = 0; i < chunk.size(); ++i) fn(data[i]);
  } else {
    for (size_t i = 0; i < chunk.size(); ++i) fn(chunk.At(i));
  }
}

}  // namespace

namespace internal {

uint32_t Int64SlotIndex::Find(int64_t key) const {
  if (table_.empty()) return kNone;
  const size_t mask = table_.size() - 1;
  for (size_t i = MixInt64(static_cast<uint64_t>(key)) & mask;;
       i = (i + 1) & mask) {
    const Entry& e = table_[i];
    if (e.slot == kNone || e.key == key) return e.slot;
  }
}

uint32_t Int64SlotIndex::FindOrAdd(int64_t key) {
  if (2 * (keys_.size() + 1) > table_.size()) Grow();
  const size_t mask = table_.size() - 1;
  for (size_t i = MixInt64(static_cast<uint64_t>(key)) & mask;;
       i = (i + 1) & mask) {
    Entry& e = table_[i];
    if (e.slot == kNone) {
      e = {key, static_cast<uint32_t>(keys_.size())};
      keys_.push_back(key);
      return e.slot;
    }
    if (e.key == key) return e.slot;
  }
}

void Int64SlotIndex::Grow() {
  MITOS_CHECK_LT(keys_.size(), size_t{kNone}) << "int64 index overflow";
  table_.assign(std::max<size_t>(16, 2 * table_.size()), Entry{});
  const size_t mask = table_.size() - 1;
  for (uint32_t slot = 0; slot < keys_.size(); ++slot) {
    size_t i = MixInt64(static_cast<uint64_t>(keys_[slot])) & mask;
    while (table_[i].slot != kNone) i = (i + 1) & mask;
    table_[i] = {keys_[slot], slot};
  }
}

void Int64SlotIndex::Clear() {
  if (keys_.empty()) return;
  // Refill the table for the next bag, or drop it when it is far larger
  // than the last bag needed, so a clear never costs more than O(keys).
  if (table_.size() > 8 * keys_.size()) {
    table_.clear();
  } else {
    std::fill(table_.begin(), table_.end(), Entry{});
  }
  keys_.clear();
}

}  // namespace internal

void BagOperator::Close(int input, const EmitFn& emit) {
  (void)input;
  (void)emit;
}

bool BagOperator::CanReuseInput(int input) const {
  (void)input;
  return false;
}

void BagOperator::SetReuseInput(int input, bool reuse) {
  (void)input;
  MITOS_CHECK(!reuse) << "operator does not support input state reuse";
}

int BagOperator::BlockingInput() const { return -1; }

void MapOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  MITOS_CHECK_EQ(input, 0);
  const size_t n = chunk.size();
  if (columnar()) {
    switch (chunk.rep()) {
      case Chunk::Rep::kInt64:
        if (fn_.i64) {
          const int64_t* in = chunk.i64();
          std::vector<int64_t> out;
          out.reserve(n);
          for (size_t i = 0; i < n; ++i) out.push_back(fn_.i64(in[i]));
          if (n > 0) emit(Chunk::OfInt64(std::move(out)));
          return;
        }
        if (fn_.i64_to_pair) {
          const int64_t* in = chunk.i64();
          std::vector<int64_t> keys;
          std::vector<int64_t> vals;
          keys.reserve(n);
          vals.reserve(n);
          for (size_t i = 0; i < n; ++i) {
            lang::Int64Pair p = fn_.i64_to_pair(in[i]);
            keys.push_back(p.first);
            vals.push_back(p.second);
          }
          if (n > 0) emit(Chunk::OfInt64Pairs(std::move(keys), std::move(vals)));
          return;
        }
        break;
      case Chunk::Rep::kDouble:
        if (fn_.f64) {
          const double* in = chunk.f64();
          std::vector<double> out;
          out.reserve(n);
          for (size_t i = 0; i < n; ++i) out.push_back(fn_.f64(in[i]));
          if (n > 0) emit(Chunk::OfDouble(std::move(out)));
          return;
        }
        break;
      case Chunk::Rep::kInt64Pair:
        if (fn_.pair_to_i64) {
          const int64_t* keys = chunk.keys();
          const int64_t* vals = chunk.vals();
          std::vector<int64_t> out;
          out.reserve(n);
          for (size_t i = 0; i < n; ++i) {
            out.push_back(fn_.pair_to_i64(keys[i], vals[i]));
          }
          if (n > 0) emit(Chunk::OfInt64(std::move(out)));
          return;
        }
        if (fn_.pair_to_pair) {
          const int64_t* keys = chunk.keys();
          const int64_t* vals = chunk.vals();
          std::vector<int64_t> out_keys;
          std::vector<int64_t> out_vals;
          out_keys.reserve(n);
          out_vals.reserve(n);
          for (size_t i = 0; i < n; ++i) {
            lang::Int64Pair p = fn_.pair_to_pair(keys[i], vals[i]);
            out_keys.push_back(p.first);
            out_vals.push_back(p.second);
          }
          if (n > 0) {
            emit(Chunk::OfInt64Pairs(std::move(out_keys), std::move(out_vals)));
          }
          return;
        }
        break;
      case Chunk::Rep::kDatums:
        break;
    }
  }
  DatumVector out;
  out.reserve(n);
  ForEachDatum(chunk, [&](const Datum& x) { out.push_back(fn_(x)); });
  EmitDatums(std::move(out), emit);
}

void MapOp::Finish(const EmitFn& emit) { (void)emit; }

void FilterOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  MITOS_CHECK_EQ(input, 0);
  const size_t n = chunk.size();
  if (columnar()) {
    if (chunk.rep() == Chunk::Rep::kInt64 && fn_.i64) {
      const int64_t* in = chunk.i64();
      std::vector<int64_t> out;
      for (size_t i = 0; i < n; ++i) {
        if (fn_.i64(in[i])) out.push_back(in[i]);
      }
      if (!out.empty()) emit(Chunk::OfInt64(std::move(out)));
      return;
    }
    if (chunk.rep() == Chunk::Rep::kInt64Pair && fn_.pair) {
      const int64_t* keys = chunk.keys();
      const int64_t* vals = chunk.vals();
      std::vector<int64_t> out_keys;
      std::vector<int64_t> out_vals;
      for (size_t i = 0; i < n; ++i) {
        if (fn_.pair(keys[i], vals[i])) {
          out_keys.push_back(keys[i]);
          out_vals.push_back(vals[i]);
        }
      }
      if (!out_keys.empty()) {
        emit(Chunk::OfInt64Pairs(std::move(out_keys), std::move(out_vals)));
      }
      return;
    }
  }
  DatumVector out;
  ForEachDatum(chunk, [&](const Datum& x) {
    if (fn_(x)) out.push_back(x);
  });
  EmitDatums(std::move(out), emit);
}

void FilterOp::Finish(const EmitFn& emit) { (void)emit; }

void FlatMapOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  MITOS_CHECK_EQ(input, 0);
  if (columnar() && chunk.rep() == Chunk::Rep::kInt64 && fn_.i64) {
    const int64_t* in = chunk.i64();
    std::vector<int64_t> out;
    out.reserve(chunk.size());
    for (size_t i = 0; i < chunk.size(); ++i) fn_.i64(in[i], &out);
    if (!out.empty()) emit(Chunk::OfInt64(std::move(out)));
    return;
  }
  DatumVector out;
  ForEachDatum(chunk, [&](const Datum& x) {
    DatumVector pieces = fn_(x);
    out.insert(out.end(), std::make_move_iterator(pieces.begin()),
               std::make_move_iterator(pieces.end()));
  });
  EmitDatums(std::move(out), emit);
}

void FlatMapOp::Finish(const EmitFn& emit) { (void)emit; }

void ReduceByKeyOp::Open() {
  key_order_.clear();
  values_.clear();
  index64_.Clear();
  acc64_.clear();
  typed_ = columnar() && static_cast<bool>(combine_.i64);
}

void ReduceByKeyOp::DegradeToGeneric() {
  // Replay one accumulator per key into the boxed state, preserving
  // first-seen key order. int64 equality and ordering agree across the two
  // domains and the combiner is associative, so folding the accumulator
  // with later values gives the same result.
  const std::vector<int64_t>& keys = index64_.keys();
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    Datum k = Datum::Int64(keys[slot]);
    values_[k].push_back(Datum::Int64(acc64_[slot]));
    key_order_.push_back(std::move(k));
  }
  index64_.Clear();
  acc64_.clear();
  typed_ = false;
}

void ReduceByKeyOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  MITOS_CHECK_EQ(input, 0);
  (void)emit;
  if (typed_) {
    if (chunk.rep() == Chunk::Rep::kInt64Pair) {
      const int64_t* keys = chunk.keys();
      const int64_t* vals = chunk.vals();
      for (size_t i = 0; i < chunk.size(); ++i) {
        const uint32_t slot = index64_.FindOrAdd(keys[i]);
        if (slot == acc64_.size()) {
          acc64_.push_back(vals[i]);
        } else {
          acc64_[slot] = combine_.i64(acc64_[slot], vals[i]);
        }
      }
      return;
    }
    DegradeToGeneric();
  }
  ForEachDatum(chunk, [&](const Datum& element) {
    MITOS_CHECK(element.is_tuple() && element.size() >= 2)
        << "reduceByKey input is not a (key, value) pair: "
        << element.ToString();
    const Datum& key = element.field(0);
    auto it = values_.find(key);
    if (it == values_.end()) {
      values_[key].push_back(element.field(1));
      key_order_.push_back(key);
    } else {
      it->second.push_back(element.field(1));
    }
  });
}

void ReduceByKeyOp::Finish(const EmitFn& emit) {
  if (typed_) {
    if (acc64_.empty()) return;
    emit(Chunk::OfInt64Pairs(index64_.keys(), acc64_));
    return;
  }
  if (key_order_.empty()) return;
  DatumVector out;
  out.reserve(key_order_.size());
  for (const Datum& key : key_order_) {
    // Canonical fold order: bags are unordered, so sort the buffered
    // values before combining — chunk arrival order (which pipelining,
    // shuffles, and recovery all perturb) then cannot change the result,
    // even for float sums.
    DatumVector& vals = values_.at(key);
    std::sort(vals.begin(), vals.end());
    Datum acc = vals.front();
    for (size_t i = 1; i < vals.size(); ++i) acc = combine_(acc, vals[i]);
    out.push_back(Datum::Pair(key, std::move(acc)));
  }
  EmitDatums(std::move(out), emit);
}

void ReduceOp::Open() {
  values_.clear();
  acc64_.reset();
  typed_ = columnar() && static_cast<bool>(combine_.i64);
}

void ReduceOp::DegradeToGeneric() {
  if (acc64_.has_value()) values_.push_back(Datum::Int64(*acc64_));
  acc64_.reset();
  typed_ = false;
}

void ReduceOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  MITOS_CHECK_EQ(input, 0);
  (void)emit;
  if (typed_) {
    if (chunk.rep() == Chunk::Rep::kInt64) {
      // Eager fold; any order is exact for an i64 combiner (see
      // ReduceByKeyOp).
      const int64_t* in = chunk.i64();
      for (size_t i = 0; i < chunk.size(); ++i) {
        acc64_ = acc64_.has_value() ? combine_.i64(*acc64_, in[i]) : in[i];
      }
      return;
    }
    DegradeToGeneric();
  }
  ForEachDatum(chunk, [&](const Datum& x) { values_.push_back(x); });
}

void ReduceOp::Finish(const EmitFn& emit) {
  if (typed_) {
    if (acc64_.has_value()) emit(Chunk::OfInt64({*acc64_}));
    return;
  }
  if (values_.empty()) return;
  // Canonical fold order (see ReduceByKeyOp::Finish).
  std::sort(values_.begin(), values_.end());
  Datum acc = values_.front();
  for (size_t i = 1; i < values_.size(); ++i) acc = combine_(acc, values_[i]);
  EmitDatums(DatumVector{std::move(acc)}, emit);
}

void CountOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  MITOS_CHECK_EQ(input, 0);
  (void)emit;
  count_ += static_cast<int64_t>(chunk.size());
}

void CountOp::Finish(const EmitFn& emit) {
  if (columnar()) {
    emit(Chunk::OfInt64({count_}));
  } else {
    emit(Chunk::OfDatums(DatumVector{Datum::Int64(count_)}, false));
  }
}

void JoinOp::Open() {
  if (reuse_build_) return;
  table_.clear();
  ClearTyped();
  typed_ = columnar();
}

void JoinOp::ClearTyped() {
  index64_.Clear();
  head64_.clear();
  tail64_.clear();
  build_vals64_.clear();
  next64_.clear();
}

void JoinOp::SetReuseInput(int input, bool reuse) {
  MITOS_CHECK_EQ(input, 0) << "only the build side supports reuse";
  reuse_build_ = reuse;
}

void JoinOp::DegradeToGeneric() {
  // Replay the typed table into the boxed one, keeping each key's build
  // values in arrival order.
  const std::vector<int64_t>& keys = index64_.keys();
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    DatumVector& values = table_[Datum::Int64(keys[slot])];
    for (uint32_t e = head64_[slot]; e != internal::Int64SlotIndex::kNone;
         e = next64_[e]) {
      values.push_back(Datum::Int64(build_vals64_[e]));
    }
  }
  ClearTyped();
  typed_ = false;
}

void JoinOp::Build(const Chunk& chunk) {
  if (typed_) {
    if (chunk.rep() == Chunk::Rep::kInt64Pair) {
      const int64_t* keys = chunk.keys();
      const int64_t* vals = chunk.vals();
      for (size_t i = 0; i < chunk.size(); ++i) {
        const uint32_t slot = index64_.FindOrAdd(keys[i]);
        const auto entry = static_cast<uint32_t>(build_vals64_.size());
        build_vals64_.push_back(vals[i]);
        next64_.push_back(internal::Int64SlotIndex::kNone);
        if (slot == head64_.size()) {
          head64_.push_back(entry);
          tail64_.push_back(entry);
        } else {
          next64_[tail64_[slot]] = entry;
          tail64_[slot] = entry;
        }
      }
      return;
    }
    DegradeToGeneric();
  }
  ForEachDatum(chunk, [&](const Datum& element) {
    MITOS_CHECK(element.is_tuple() && element.size() >= 2)
        << "join build input is not a (key, value) pair";
    table_[element.field(0)].push_back(element.field(1));
  });
}

void JoinOp::EmitMatches(uint32_t slot, const Datum& key,
                         const Datum& probe_value, DatumVector* out) const {
  for (uint32_t e = head64_[slot]; e != internal::Int64SlotIndex::kNone;
       e = next64_[e]) {
    out->push_back(
        Datum::Tuple({key, Datum::Int64(build_vals64_[e]), probe_value}));
  }
}

void JoinOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  if (input == 0) {
    Build(chunk);
    return;
  }
  MITOS_CHECK_EQ(input, 1);
  DatumVector out;
  if (typed_ && chunk.rep() == Chunk::Rep::kInt64Pair) {
    const int64_t* keys = chunk.keys();
    const int64_t* vals = chunk.vals();
    for (size_t i = 0; i < chunk.size(); ++i) {
      const uint32_t slot = index64_.Find(keys[i]);
      if (slot == internal::Int64SlotIndex::kNone) continue;
      EmitMatches(slot, Datum::Int64(keys[i]), Datum::Int64(vals[i]), &out);
    }
    EmitDatums(std::move(out), emit);
    return;
  }
  ForEachDatum(chunk, [&](const Datum& element) {
    MITOS_CHECK(element.is_tuple() && element.size() >= 2)
        << "join probe input is not a (key, value) pair";
    const Datum& key = element.field(0);
    if (typed_) {
      // Only an int64 key can equal a key of the int64 table.
      if (!key.is_int64()) return;
      const uint32_t slot = index64_.Find(key.int64());
      if (slot != internal::Int64SlotIndex::kNone) {
        EmitMatches(slot, key, element.field(1), &out);
      }
      return;
    }
    auto it = table_.find(key);
    if (it == table_.end()) return;
    for (const Datum& build_value : it->second) {
      out.push_back(Datum::Tuple({key, build_value, element.field(1)}));
    }
  });
  EmitDatums(std::move(out), emit);
}

void UnionOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  MITOS_CHECK(input == 0 || input == 1);
  emit(Chunk(chunk));  // shared handle: forwarding is a pointer copy
}

void DistinctOp::Open() {
  seen_.clear();
  seen64_.Clear();
  typed_ = columnar();
}

void DistinctOp::DegradeToGeneric() {
  for (int64_t v : seen64_.keys()) seen_.emplace(Datum::Int64(v), true);
  seen64_.Clear();
  typed_ = false;
}

void DistinctOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  MITOS_CHECK_EQ(input, 0);
  if (typed_) {
    if (chunk.rep() == Chunk::Rep::kInt64) {
      const int64_t* in = chunk.i64();
      std::vector<int64_t> out;
      for (size_t i = 0; i < chunk.size(); ++i) {
        const auto fresh = static_cast<uint32_t>(seen64_.size());
        if (seen64_.FindOrAdd(in[i]) == fresh) out.push_back(in[i]);
      }
      if (!out.empty()) emit(Chunk::OfInt64(std::move(out)));
      return;
    }
    DegradeToGeneric();
  }
  DatumVector out;
  ForEachDatum(chunk, [&](const Datum& x) {
    if (seen_.emplace(x, true).second) out.push_back(x);
  });
  EmitDatums(std::move(out), emit);
}

void Combine2Op::Open() {
  a_.reset();
  b_.reset();
}

void Combine2Op::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  (void)emit;
  ForEachDatum(chunk, [&](const Datum& x) {
    if (input == 0) {
      MITOS_CHECK(!a_.has_value()) << "combine2 input 0 has >1 element";
      a_ = x;
    } else {
      MITOS_CHECK_EQ(input, 1);
      MITOS_CHECK(!b_.has_value()) << "combine2 input 1 has >1 element";
      b_ = x;
    }
  });
}

void Combine2Op::Finish(const EmitFn& emit) {
  if (a_.has_value() && b_.has_value()) {
    EmitDatums(DatumVector{fn_(*a_, *b_)}, emit);
  }
}

void PhiOp::Push(int input, const Chunk& chunk, const EmitFn& emit) {
  (void)input;  // the host feeds only the selected input
  emit(Chunk(chunk));  // shared handle: forwarding is a pointer copy
}

std::unique_ptr<BagOperator> MakeOperator(const LogicalNode& node,
                                          bool columnar) {
  std::unique_ptr<BagOperator> op;
  switch (node.kind) {
    case NodeKind::kMap:
      op = std::make_unique<MapOp>(node.unary);
      break;
    case NodeKind::kFilter:
      op = std::make_unique<FilterOp>(node.pred);
      break;
    case NodeKind::kFlatMap:
      op = std::make_unique<FlatMapOp>(node.flat);
      break;
    case NodeKind::kReduceByKey:
      op = std::make_unique<ReduceByKeyOp>(node.binary);
      break;
    case NodeKind::kLocalReduce:
    case NodeKind::kFinalReduce:
      op = std::make_unique<ReduceOp>(node.binary);
      break;
    case NodeKind::kLocalCount:
      op = std::make_unique<CountOp>();
      break;
    case NodeKind::kJoin:
      op = std::make_unique<JoinOp>();
      break;
    case NodeKind::kUnion:
      op = std::make_unique<UnionOp>();
      break;
    case NodeKind::kDistinct:
      op = std::make_unique<DistinctOp>();
      break;
    case NodeKind::kCombine2:
      op = std::make_unique<Combine2Op>(node.binary);
      break;
    case NodeKind::kPhi:
      op = std::make_unique<PhiOp>();
      break;
    case NodeKind::kBagLit:
    case NodeKind::kReadFile:
    case NodeKind::kWriteFile:
    case NodeKind::kCondition:
      return nullptr;  // handled by the host
  }
  if (op != nullptr) op->set_columnar(columnar);
  return op;
}

}  // namespace mitos::dataflow
