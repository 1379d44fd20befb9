// Chunk: the batched unit of data movement on bag channels.
//
// A chunk is an immutable batch of bag elements behind a shared handle:
// copying a Chunk copies a pointer, so channel hops and multi-consumer
// fan-out never duplicate payload. Homogeneous batches — the common case in
// every figure workload and in most fuzzer programs — are stored as typed
// columns (contiguous int64/double buffers, struct-of-arrays for
// (int64, int64) and (int64, double) pairs); anything else rides the boxed
// DatumVector fallback. Slice() produces zero-copy sub-views, which is how
// the runtime re-chunks oversized batches to the configured chunk size.
//
// Invariant: SerializedSize() and the Hash*At() helpers are representation-
// independent — a columnar chunk and its boxed equivalent report identical
// byte counts and route identically under hash partitioning. The simulator's
// cost model and the shuffle both depend on this. A boxed payload's byte
// count is computed at most once (see SerializedSize), not at every hop.
#ifndef MITOS_COMMON_CHUNK_H_
#define MITOS_COMMON_CHUNK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/datum.h"
#include "common/hash.h"
#include "common/logging.h"

namespace mitos {

class Chunk {
 public:
  enum class Rep : uint8_t {
    kInt64,        // contiguous int64_t column
    kDouble,       // contiguous double column
    kInt64Pair,    // (int64, int64) tuples, struct-of-arrays
    kInt64Double,  // (int64, double) tuples, struct-of-arrays
    kDatums,       // boxed fallback: arbitrary / mixed element types
  };

  // Empty chunk (columnar, zero elements).
  Chunk() = default;

  // Wraps a boxed vector. When `columnarize` is true (the default),
  // homogeneous int64 / double / (int64, int64) / (int64, double) batches
  // are converted to typed columns; `columnarize=false` is the ablation
  // switch that keeps the pre-batching boxed plane end to end.
  static Chunk OfDatums(DatumVector data, bool columnarize = true);

  // Typed columns.
  static Chunk OfInt64(std::vector<int64_t> values);
  static Chunk OfDouble(std::vector<double> values);
  static Chunk OfInt64Pairs(std::vector<int64_t> keys,
                            std::vector<int64_t> values);
  static Chunk OfInt64Doubles(std::vector<int64_t> keys,
                              std::vector<double> values);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Rep rep() const { return storage_ ? storage_->rep : Rep::kInt64; }
  // True when this chunk rides the boxed fallback path.
  bool fallback() const { return storage_ && storage_->rep == Rep::kDatums; }
  // True for the pair columns, whose keys() are an int64 column.
  bool int64_keyed() const {
    return rep() == Rep::kInt64Pair || rep() == Rep::kInt64Double;
  }

  // Zero-copy sub-view of [begin, begin + len).
  Chunk Slice(size_t begin, size_t len) const;

  // Typed column accessors; abort on rep mismatch. Pointers honor slicing
  // and are valid while any handle to the storage lives.
  const int64_t* i64() const {
    MITOS_CHECK(rep() == Rep::kInt64);
    return storage_->i64.data() + offset_;
  }
  const double* f64() const {
    MITOS_CHECK(rep() == Rep::kDouble);
    return storage_->f64.data() + offset_;
  }
  const int64_t* keys() const {
    MITOS_CHECK(int64_keyed());
    return storage_->i64.data() + offset_;
  }
  const int64_t* vals() const {
    MITOS_CHECK(rep() == Rep::kInt64Pair);
    return storage_->i64b.data() + offset_;
  }
  const double* dvals() const {
    MITOS_CHECK(rep() == Rep::kInt64Double);
    return storage_->f64.data() + offset_;
  }
  const Datum* datums() const {
    MITOS_CHECK(rep() == Rep::kDatums);
    return storage_->datums.data() + offset_;
  }

  // i-th element, boxed. O(1); allocates for the pair columns.
  Datum At(size_t i) const;

  // Materializes to / appends onto a boxed vector.
  DatumVector ToDatums() const;
  void AppendTo(DatumVector* out) const;

  // Modelled wire size of the payload in bytes. Matches the element-wise
  // Datum encoding exactly (8 per numeric, 4+len per string, 4+fields per
  // tuple), so the cost model charges identical bytes on both paths.
  // Walks a boxed payload at most once: slices take their count when they
  // are made, whole boxed chunks on first use (cached in the shared
  // storage); typed counts are arithmetic.
  size_t SerializedSize() const {
    return bytes_ != kBytesUnknown ? bytes_ : WholeDatumsBytes();
  }

  // Hash of element i under Datum::Hash's exact algorithm; shuffle routing
  // must not depend on the representation.
  size_t HashAt(size_t i) const;
  // Hash of field 0 of tuple element i (kField0 partitioning).
  size_t HashField0At(size_t i) const;

  // Debug rendering of up to `limit` elements.
  std::string ToString(size_t limit = 16) const;

 private:
  static constexpr size_t kBytesUnknown = SIZE_MAX;
  static constexpr uint32_t kNotCached = UINT32_MAX;

  struct Storage {
    Rep rep = Rep::kDatums;
    // Wire size of all of `datums` once first asked; kNotCached before,
    // and for payloads of 4 GiB or more. 32 bits fit in rep's padding, so
    // Storage keeps its size: growing it moved it to another malloc size
    // class and slowed the tuple-heavy join kernels measurably.
    mutable std::atomic<uint32_t> datums_bytes{kNotCached};
    std::vector<int64_t> i64;   // kInt64 column / pair keys
    std::vector<int64_t> i64b;  // kInt64Pair values
    std::vector<double> f64;    // kDouble column / kInt64Double values
    DatumVector datums;         // kDatums fallback
  };

  // Wraps a whole storage.
  explicit Chunk(std::shared_ptr<const Storage> storage);
  Chunk(std::shared_ptr<const Storage> storage, size_t offset, size_t size,
        size_t bytes)
      : storage_(std::move(storage)),
        offset_(offset),
        size_(size),
        bytes_(bytes) {}

  // Wire size of elements [offset, offset + size) of `storage`.
  static size_t BytesOf(const Storage& storage, size_t offset, size_t size);
  // SerializedSize() of a whole boxed storage, computed once.
  size_t WholeDatumsBytes() const;

  // Datum::Hash of an int64, a double and a 2-tuple of hashed fields.
  static size_t HashInt64(int64_t v) {
    size_t seed =
        static_cast<size_t>(Datum::Kind::kInt64) * 0x9e3779b97f4a7c15ULL;
    return HashCombine(seed, MixInt64(static_cast<uint64_t>(v)));
  }
  static size_t HashDouble(double v);
  static size_t HashPair(size_t h0, size_t h1) {
    size_t seed =
        static_cast<size_t>(Datum::Kind::kTuple) * 0x9e3779b97f4a7c15ULL;
    return HashCombine(HashCombine(seed, h0), h1);
  }

  std::shared_ptr<const Storage> storage_;
  size_t offset_ = 0;
  size_t size_ = 0;
  size_t bytes_ = 0;
};

using ChunkVector = std::vector<Chunk>;

}  // namespace mitos

#endif  // MITOS_COMMON_CHUNK_H_
