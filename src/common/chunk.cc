#include "common/chunk.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace mitos {

namespace {

// A (int64, V) pair whose value has kind `value_kind`.
bool IsInt64KeyedPair(const Datum& d, Datum::Kind value_kind) {
  return d.is_tuple() && d.size() == 2 && d.field(0).is_int64() &&
         d.field(1).kind() == value_kind;
}

}  // namespace

Chunk::Chunk(std::shared_ptr<const Storage> storage) {
  const Storage& s = *storage;
  size_t n = 0;
  switch (s.rep) {
    case Rep::kInt64:
    case Rep::kInt64Pair:
    case Rep::kInt64Double:
      n = s.i64.size();
      break;
    case Rep::kDouble:
      n = s.f64.size();
      break;
    case Rep::kDatums:
      n = s.datums.size();
      break;
  }
  // A boxed payload is priced on first use (WholeDatumsBytes), so chunks
  // nobody sends never walk their elements.
  bytes_ = s.rep == Rep::kDatums ? kBytesUnknown : BytesOf(s, 0, n);
  size_ = n;
  storage_ = std::move(storage);
}

Chunk Chunk::OfDatums(DatumVector data, bool columnarize) {
  if (columnarize && !data.empty()) {
    // Single-pass homogeneity scan; the first mismatch aborts to fallback.
    const Datum& d0 = data[0];
    const auto all = [&data](auto pred) {
      return std::all_of(data.begin(), data.end(), pred);
    };
    if (d0.is_int64() && all([](const Datum& d) { return d.is_int64(); })) {
      std::vector<int64_t> col;
      col.reserve(data.size());
      for (const Datum& d : data) col.push_back(d.int64());
      return OfInt64(std::move(col));
    }
    if (d0.is_double() && all([](const Datum& d) { return d.is_double(); })) {
      std::vector<double> col;
      col.reserve(data.size());
      for (const Datum& d : data) col.push_back(d.dbl());
      return OfDouble(std::move(col));
    }
    const Datum::Kind vk =
        d0.is_tuple() && d0.size() == 2 ? d0.field(1).kind()
                                        : Datum::Kind::kNull;
    if ((vk == Datum::Kind::kInt64 || vk == Datum::Kind::kDouble) &&
        all([vk](const Datum& d) { return IsInt64KeyedPair(d, vk); })) {
      // One pass fills both columns: each boxed pair is read once.
      const size_t n = data.size();
      std::vector<int64_t> keys(n);
      if (vk == Datum::Kind::kInt64) {
        std::vector<int64_t> vals(n);
        for (size_t i = 0; i < n; ++i) {
          keys[i] = data[i].field(0).int64();
          vals[i] = data[i].field(1).int64();
        }
        return OfInt64Pairs(std::move(keys), std::move(vals));
      }
      std::vector<double> vals(n);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = data[i].field(0).int64();
        vals[i] = data[i].field(1).dbl();
      }
      return OfInt64Doubles(std::move(keys), std::move(vals));
    }
  }
  auto storage = std::make_shared<Storage>();
  storage->rep = Rep::kDatums;
  storage->datums = std::move(data);
  return Chunk(std::move(storage));
}

Chunk Chunk::OfInt64(std::vector<int64_t> values) {
  auto storage = std::make_shared<Storage>();
  storage->rep = Rep::kInt64;
  storage->i64 = std::move(values);
  return Chunk(std::move(storage));
}

Chunk Chunk::OfDouble(std::vector<double> values) {
  auto storage = std::make_shared<Storage>();
  storage->rep = Rep::kDouble;
  storage->f64 = std::move(values);
  return Chunk(std::move(storage));
}

Chunk Chunk::OfInt64Pairs(std::vector<int64_t> keys,
                          std::vector<int64_t> values) {
  MITOS_CHECK_EQ(keys.size(), values.size());
  auto storage = std::make_shared<Storage>();
  storage->rep = Rep::kInt64Pair;
  storage->i64 = std::move(keys);
  storage->i64b = std::move(values);
  return Chunk(std::move(storage));
}

Chunk Chunk::OfInt64Doubles(std::vector<int64_t> keys,
                            std::vector<double> values) {
  MITOS_CHECK_EQ(keys.size(), values.size());
  auto storage = std::make_shared<Storage>();
  storage->rep = Rep::kInt64Double;
  storage->i64 = std::move(keys);
  storage->f64 = std::move(values);
  return Chunk(std::move(storage));
}

Chunk Chunk::Slice(size_t begin, size_t len) const {
  MITOS_CHECK_LE(begin + len, size_);
  if (len == 0) return Chunk();
  if (len == size_) return *this;
  return Chunk(storage_, offset_ + begin, len,
               BytesOf(*storage_, offset_ + begin, len));
}

Datum Chunk::At(size_t i) const {
  MITOS_CHECK_LT(i, size_);
  const size_t j = offset_ + i;
  switch (rep()) {
    case Rep::kInt64:
      return Datum::Int64(storage_->i64[j]);
    case Rep::kDouble:
      return Datum::Double(storage_->f64[j]);
    case Rep::kInt64Pair:
      return Datum::Pair(Datum::Int64(storage_->i64[j]),
                         Datum::Int64(storage_->i64b[j]));
    case Rep::kInt64Double:
      return Datum::Pair(Datum::Int64(storage_->i64[j]),
                         Datum::Double(storage_->f64[j]));
    case Rep::kDatums:
      return storage_->datums[j];
  }
  return Datum();
}

DatumVector Chunk::ToDatums() const {
  DatumVector out;
  AppendTo(&out);
  return out;
}

void Chunk::AppendTo(DatumVector* out) const {
  if (rep() == Rep::kDatums) {
    out->insert(out->end(), storage_->datums.begin() + offset_,
                storage_->datums.begin() + offset_ + size_);
    return;
  }
  out->reserve(out->size() + size_);
  for (size_t i = 0; i < size_; ++i) out->push_back(At(i));
}

size_t Chunk::BytesOf(const Storage& storage, size_t offset, size_t size) {
  switch (storage.rep) {
    case Rep::kInt64:
    case Rep::kDouble:
      return 8 * size;
    case Rep::kInt64Pair:
    case Rep::kInt64Double:
      // Tuple encoding: 4-byte field-count header + two 8-byte fields.
      return (4 + 8 + 8) * size;
    case Rep::kDatums: {
      size_t total = 0;
      for (size_t i = 0; i < size; ++i) {
        total += storage.datums[offset + i].SerializedSize();
      }
      return total;
    }
  }
  return 0;
}

size_t Chunk::WholeDatumsBytes() const {
  // Idempotent: racing first uses compute and store the same count.
  const uint32_t cached = storage_->datums_bytes.load();
  if (cached != kNotCached) return cached;
  const size_t bytes = BytesOf(*storage_, 0, size_);
  if (bytes < kNotCached) {
    storage_->datums_bytes.store(static_cast<uint32_t>(bytes));
  }
  return bytes;
}

size_t Chunk::HashDouble(double v) {
  size_t seed =
      static_cast<size_t>(Datum::Kind::kDouble) * 0x9e3779b97f4a7c15ULL;
  // Datum::Hash normalizes -0.0 to 0.0 so equal doubles hash equally.
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return HashCombine(seed, MixInt64(bits));
}

size_t Chunk::HashAt(size_t i) const {
  MITOS_CHECK_LT(i, size_);
  const size_t j = offset_ + i;
  switch (rep()) {
    case Rep::kInt64:
      return HashInt64(storage_->i64[j]);
    case Rep::kDouble:
      return HashDouble(storage_->f64[j]);
    case Rep::kInt64Pair:
      return HashPair(HashInt64(storage_->i64[j]),
                      HashInt64(storage_->i64b[j]));
    case Rep::kInt64Double:
      return HashPair(HashInt64(storage_->i64[j]),
                      HashDouble(storage_->f64[j]));
    case Rep::kDatums:
      return storage_->datums[j].Hash();
  }
  return 0;
}

size_t Chunk::HashField0At(size_t i) const {
  MITOS_CHECK_LT(i, size_);
  switch (rep()) {
    case Rep::kInt64Pair:
    case Rep::kInt64Double:
      return HashInt64(storage_->i64[offset_ + i]);
    case Rep::kDatums:
      return storage_->datums[offset_ + i].field(0).Hash();
    case Rep::kInt64:
    case Rep::kDouble:
      return At(i).field(0).Hash();  // aborts: not a tuple
  }
  return 0;
}

std::string Chunk::ToString(size_t limit) const {
  std::ostringstream out;
  out << '[';
  for (size_t i = 0; i < size_; ++i) {
    if (i > 0) out << ", ";
    if (i >= limit) {
      out << "... (" << size_ << " total)";
      break;
    }
    out << At(i).ToString();
  }
  out << ']';
  return out.str();
}

}  // namespace mitos
