// Bag operator kernels: the pure data-processing logic of dataflow vertices.
//
// A kernel computes one output bag at a time: Open() starts a bag, Push()
// feeds an input chunk, Close() signals end of one input, Finish() signals
// all inputs done. Kernels emit output chunks through the provided callback
// and know nothing about the simulator, the network, or bag identifiers —
// the BagOperatorHost (runtime/host.h) wraps each instance and handles all
// coordination, exactly as in the paper's architecture (Fig. 2).
//
// Kernels are long-lived: the same instance serves every output bag of its
// operator across all iteration steps. This is what makes loop-invariant
// hoisting possible (paper Sec. 5.3): a kernel that supports state reuse
// (hash join build side) keeps its built state when the host tells it the
// corresponding input bag is unchanged.
//
// Data moves in batched Chunks (common/chunk.h). When a chunk is columnar
// and the user function carries a matching typed fast path
// (lang/functions.h), the hot kernels (map/filter/flatMap/reduce/
// reduceByKey/distinct/join) run tight loops over the raw columns; otherwise
// they fall back to the generic boxed-Datum path. Both paths are
// element-equivalent by construction and cross-checked by the fuzz harness.
// The keyed kernels (reduceByKey, join, distinct) keep their typed state in
// one shared int64 index (internal::Int64SlotIndex).
#ifndef MITOS_DATAFLOW_OPERATORS_H_
#define MITOS_DATAFLOW_OPERATORS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/chunk.h"
#include "common/datum.h"
#include "dataflow/graph.h"
#include "lang/functions.h"

namespace mitos::dataflow {

namespace internal {

// Open-addressing hash index from int64 key to a dense slot number: the
// typed state of the keyed kernels below, not part of the kernel interface.
// Slots are handed out 0, 1, 2, ... in first-seen order, so keys() lists
// the keys in that order and per-key state lives in plain vectors indexed
// by slot — no per-key allocation.
class Int64SlotIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Slot of `key`, or kNone.
  uint32_t Find(int64_t key) const;
  // Slot of `key`; a new key gets slot size() (as it was before the call).
  uint32_t FindOrAdd(int64_t key);
  size_t size() const { return keys_.size(); }
  // Slot -> key.
  const std::vector<int64_t>& keys() const { return keys_; }
  // Forgets every key, in time proportional to the keys it held.
  void Clear();

 private:
  struct Entry {
    int64_t key = 0;
    uint32_t slot = kNone;  // kNone marks an empty entry
  };
  void Grow();

  std::vector<Entry> table_;  // power-of-two size, at most half full
  std::vector<int64_t> keys_;
};

}  // namespace internal

class BagOperator {
 public:
  using EmitFn = std::function<void(Chunk&&)>;

  virtual ~BagOperator() = default;

  // Starts a new output bag. State for inputs marked reusable via
  // SetReuseInput(true) must be kept; everything else resets.
  virtual void Open() = 0;

  // Feeds a chunk of the chosen input bag on logical input `input`.
  virtual void Push(int input, const Chunk& chunk, const EmitFn& emit) = 0;

  // All data of logical input `input` has been fed for this bag.
  virtual void Close(int input, const EmitFn& emit);

  // All inputs closed; emit any remaining output for this bag.
  virtual void Finish(const EmitFn& emit) = 0;

  // Loop-invariant hoisting support (paper Sec. 5.3): true if the state
  // built from `input` can be kept across output bags.
  virtual bool CanReuseInput(int input) const;

  // Called by the host before Open(): when true, the next bag's `input` is
  // the same bag as the previous one and the kernel must keep its state.
  virtual void SetReuseInput(int input, bool reuse);

  // Input that must be fully fed before any other input (join build side);
  // -1 if none.
  virtual int BlockingInput() const;

  // Columnar-plane switch: when false (the ablation / pre-batching mode),
  // kernels never take typed fast paths and emit boxed chunks only.
  void set_columnar(bool on) { columnar_ = on; }

 protected:
  bool columnar() const { return columnar_; }
  // Emits `out` re-columnarized iff the columnar plane is on.
  void EmitDatums(DatumVector&& out, const EmitFn& emit) const {
    if (!out.empty()) emit(Chunk::OfDatums(std::move(out), columnar_));
  }

 private:
  bool columnar_ = true;
};

// Creates the kernel for `node`, wired to the given columnar mode.
// Source/sink/condition kinds (bagLit, readFile, writeFile, condition) are
// handled by the host itself and return null here.
std::unique_ptr<BagOperator> MakeOperator(const LogicalNode& node,
                                          bool columnar = true);

// ----- concrete kernels (exposed for unit tests) -----

class MapOp : public BagOperator {
 public:
  explicit MapOp(lang::UnaryFn fn) : fn_(std::move(fn)) {}
  void Open() override {}
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& emit) override;

 private:
  lang::UnaryFn fn_;
};

class FilterOp : public BagOperator {
 public:
  explicit FilterOp(lang::PredicateFn fn) : fn_(std::move(fn)) {}
  void Open() override {}
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& emit) override;

 private:
  lang::PredicateFn fn_;
};

class FlatMapOp : public BagOperator {
 public:
  explicit FlatMapOp(lang::FlatMapFn fn) : fn_(std::move(fn)) {}
  void Open() override {}
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& emit) override;

 private:
  lang::FlatMapFn fn_;
};

// Per-partition aggregation over (k, v) pairs; emits at Finish in
// first-seen key order (matching lang::ReduceByKeyKernel per partition).
//
// Typed path: while every pushed chunk is an (int64, int64) column and the
// combiner has an i64 body, each value is folded into its key's int64
// accumulator as it arrives. The i64 contract (lang/functions.h) promises a
// commutative, associative combiner, so any fold order gives exactly the
// canonical sorted fold's result. The first incompatible chunk degrades the
// state to the boxed form, one accumulator per key (int64 ordering and
// equality are identical in both domains, so results cannot differ).
//
// Boxed path: values are buffered per key and folded in sorted order at
// Finish, so the result is independent of chunk arrival order — bags are
// *unordered* collections, and a canonical fold order is what makes
// re-executed (recovered) runs byte-identical even for combiners that are
// not associative in floating point (sumDouble).
class ReduceByKeyOp : public BagOperator {
 public:
  explicit ReduceByKeyOp(lang::BinaryFn combine)
      : combine_(std::move(combine)) {}
  void Open() override;
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& emit) override;

 private:
  void DegradeToGeneric();

  lang::BinaryFn combine_;
  bool typed_ = false;
  internal::Int64SlotIndex index64_;
  std::vector<int64_t> acc64_;  // slot -> folded value
  std::vector<Datum> key_order_;
  std::unordered_map<Datum, DatumVector, DatumHash, DatumEq> values_;
};

// Folds everything it sees; emits the (single) partial at Finish, or
// nothing when the input was empty. Used for both the local pre-fold and
// the final fold of a global reduce. Same typed/boxed scheme as
// ReduceByKeyOp, over plain int64 columns: the typed path folds eagerly
// into one accumulator, the boxed path buffers and folds in sorted order
// at Finish.
class ReduceOp : public BagOperator {
 public:
  explicit ReduceOp(lang::BinaryFn combine) : combine_(std::move(combine)) {}
  void Open() override;
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& emit) override;

 private:
  void DegradeToGeneric();

  lang::BinaryFn combine_;
  bool typed_ = false;
  std::optional<int64_t> acc64_;
  DatumVector values_;
};

// Counts elements; emits one int64 at Finish (even for empty input).
class CountOp : public BagOperator {
 public:
  void Open() override { count_ = 0; }
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& emit) override;

 private:
  int64_t count_ = 0;
};

// Hash join: input 0 builds, input 1 probes; emits (k, build_v, probe_v)
// tuples, per probe element in build order. The build side supports
// loop-invariant state reuse (paper Sec. 5.3).
//
// Typed path: while every build chunk is an (int64, int64) column, the
// table is int64-keyed with unboxed values, and it survives hoisted reuse.
// (int64, int64) probe chunks probe it unboxed; boxed probe chunks look up
// int64 field-0 keys only, since no other key can equal an int64. So a
// probe never degrades the table; only a non-pair build chunk does. The
// output tuples are width-3, never columnar, so they are always boxed.
class JoinOp : public BagOperator {
 public:
  void Open() override;
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& /*emit*/) override {}
  bool CanReuseInput(int input) const override { return input == 0; }
  void SetReuseInput(int input, bool reuse) override;
  int BlockingInput() const override { return 0; }

 private:
  void Build(const Chunk& chunk);
  void ClearTyped();
  void DegradeToGeneric();
  // Appends (key, build_v, probe_v) for every build value of `slot`.
  void EmitMatches(uint32_t slot, const Datum& key, const Datum& probe_value,
                   DatumVector* out) const;

  bool reuse_build_ = false;
  bool typed_ = false;
  // Typed table: the build values of slot s are the chain
  // build_vals64_[head64_[s]], build_vals64_[next64_[...]], ...
  internal::Int64SlotIndex index64_;
  std::vector<uint32_t> head64_;  // slot -> first entry
  std::vector<uint32_t> tail64_;  // slot -> last entry
  std::vector<int64_t> build_vals64_;
  std::vector<uint32_t> next64_;  // entry -> next entry of its key, or kNone
  std::unordered_map<Datum, DatumVector, DatumHash, DatumEq> table_;
};

// Multiset union: forwards both inputs (shared handle, no copy).
class UnionOp : public BagOperator {
 public:
  void Open() override {}
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& /*emit*/) override {}
};

// Per-partition duplicate elimination (inputs arrive hash-partitioned by
// whole element, so global distinctness holds). int64 columns keep their
// seen-set in the int64 index; anything else degrades to the boxed set.
class DistinctOp : public BagOperator {
 public:
  void Open() override;
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& /*emit*/) override {}

 private:
  void DegradeToGeneric();

  bool typed_ = false;
  internal::Int64SlotIndex seen64_;
  std::unordered_map<Datum, bool, DatumHash, DatumEq> seen_;
};

// f(a0, b0) over two one-element bags; emits nothing if either is empty.
class Combine2Op : public BagOperator {
 public:
  explicit Combine2Op(lang::BinaryFn fn) : fn_(std::move(fn)) {}
  void Open() override;
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& emit) override;

 private:
  lang::BinaryFn fn_;
  std::optional<Datum> a_;
  std::optional<Datum> b_;
};

// Φ: forwards whichever single input the host selected for this bag.
class PhiOp : public BagOperator {
 public:
  void Open() override {}
  void Push(int input, const Chunk& chunk, const EmitFn& emit) override;
  void Finish(const EmitFn& /*emit*/) override {}
};

}  // namespace mitos::dataflow

#endif  // MITOS_DATAFLOW_OPERATORS_H_
