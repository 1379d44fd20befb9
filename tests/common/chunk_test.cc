// Unit tests for the batched data plane's unit of movement (common/chunk.h):
// columnarization of homogeneous batches, the boxed fallback, zero-copy
// slicing, and the representation-independence invariants (SerializedSize
// and Hash*At must agree between a columnar chunk and its boxed twin — the
// cost model and shuffle routing both depend on that).
#include "common/chunk.h"

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/datum.h"
#include "gtest/gtest.h"

namespace mitos {
namespace {

DatumVector Ints(std::initializer_list<int64_t> values) {
  DatumVector data;
  for (int64_t v : values) data.push_back(Datum::Int64(v));
  return data;
}

TEST(ChunkTest, OfDatumsColumnarizesHomogeneousInt64) {
  Chunk c = Chunk::OfDatums(Ints({1, 2, 3}));
  EXPECT_EQ(c.rep(), Chunk::Rep::kInt64);
  EXPECT_FALSE(c.fallback());
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.i64()[0], 1);
  EXPECT_EQ(c.i64()[2], 3);
}

TEST(ChunkTest, OfDatumsColumnarizesHomogeneousDouble) {
  DatumVector data{Datum::Double(1.5), Datum::Double(-2.5)};
  Chunk c = Chunk::OfDatums(std::move(data));
  EXPECT_EQ(c.rep(), Chunk::Rep::kDouble);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.f64()[1], -2.5);
}

TEST(ChunkTest, OfDatumsColumnarizesInt64Pairs) {
  DatumVector data{Datum::Pair(Datum::Int64(1), Datum::Int64(10)),
                   Datum::Pair(Datum::Int64(2), Datum::Int64(20))};
  Chunk c = Chunk::OfDatums(std::move(data));
  EXPECT_EQ(c.rep(), Chunk::Rep::kInt64Pair);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.keys()[1], 2);
  EXPECT_EQ(c.vals()[1], 20);
}

TEST(ChunkTest, MixedAndStringBatchesFallBack) {
  DatumVector mixed{Datum::Int64(1), Datum::String("x")};
  Chunk c = Chunk::OfDatums(std::move(mixed));
  EXPECT_EQ(c.rep(), Chunk::Rep::kDatums);
  EXPECT_TRUE(c.fallback());

  DatumVector strings{Datum::String("a"), Datum::String("bb")};
  Chunk s = Chunk::OfDatums(std::move(strings));
  EXPECT_TRUE(s.fallback());
}

TEST(ChunkTest, ColumnarizeFalseKeepsBoxedRep) {
  Chunk c = Chunk::OfDatums(Ints({1, 2, 3}), /*columnarize=*/false);
  EXPECT_EQ(c.rep(), Chunk::Rep::kDatums);
  EXPECT_TRUE(c.fallback());
  EXPECT_EQ(c.ToDatums(), Ints({1, 2, 3}));
}

TEST(ChunkTest, EmptyChunkIsColumnarAndSizeZero) {
  Chunk c;
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(c.fallback());
  EXPECT_EQ(c.SerializedSize(), 0u);
  EXPECT_TRUE(c.ToDatums().empty());
}

TEST(ChunkTest, SliceIsZeroCopyAndHonorsOffsets) {
  Chunk c = Chunk::OfInt64({10, 11, 12, 13, 14});
  Chunk s = c.Slice(1, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.i64(), c.i64() + 1);  // same buffer, shifted — no copy
  EXPECT_EQ(s.At(0), Datum::Int64(11));
  EXPECT_EQ(s.At(2), Datum::Int64(13));

  // A slice of a slice composes offsets.
  Chunk ss = s.Slice(1, 1);
  EXPECT_EQ(ss.At(0), Datum::Int64(12));
  EXPECT_EQ(ss.i64(), c.i64() + 2);
}

TEST(ChunkTest, SliceKeepsStorageAliveAfterParentDies) {
  Chunk s;
  {
    Chunk c = Chunk::OfInt64({7, 8, 9});
    s = c.Slice(2, 1);
  }
  EXPECT_EQ(s.At(0), Datum::Int64(9));
}

TEST(ChunkTest, AtAndAppendToMatchBoxedElements) {
  DatumVector data{Datum::Pair(Datum::Int64(3), Datum::Int64(30)),
                   Datum::Pair(Datum::Int64(4), Datum::Int64(40))};
  Chunk c = Chunk::OfDatums(DatumVector(data));
  ASSERT_EQ(c.rep(), Chunk::Rep::kInt64Pair);
  EXPECT_EQ(c.At(0), data[0]);
  EXPECT_EQ(c.At(1), data[1]);
  DatumVector out;
  c.AppendTo(&out);
  EXPECT_EQ(out, data);
}

// The invariant the cost model charges by: a columnar chunk and its boxed
// twin report identical wire bytes.
TEST(ChunkTest, SerializedSizeIsRepresentationIndependent) {
  DatumVector ints = Ints({1, 2, 3});
  EXPECT_EQ(Chunk::OfDatums(DatumVector(ints)).SerializedSize(),
            Chunk::OfDatums(DatumVector(ints), false).SerializedSize());
  EXPECT_EQ(Chunk::OfDatums(DatumVector(ints)).SerializedSize(), 3u * 8u);

  DatumVector pairs{Datum::Pair(Datum::Int64(1), Datum::Int64(2))};
  EXPECT_EQ(Chunk::OfDatums(DatumVector(pairs)).SerializedSize(),
            Chunk::OfDatums(DatumVector(pairs), false).SerializedSize());
  EXPECT_EQ(Chunk::OfDatums(DatumVector(pairs)).SerializedSize(),
            4u + 8u + 8u);
}

// The invariant the shuffle routes by: hashes must not depend on the rep.
TEST(ChunkTest, HashAtMatchesDatumHash) {
  DatumVector ints = Ints({0, -5, 123456789});
  Chunk c = Chunk::OfDatums(DatumVector(ints));
  ASSERT_EQ(c.rep(), Chunk::Rep::kInt64);
  for (size_t i = 0; i < ints.size(); ++i) {
    EXPECT_EQ(c.HashAt(i), ints[i].Hash()) << i;
  }

  DatumVector pairs{Datum::Pair(Datum::Int64(2), Datum::Int64(7)),
                    Datum::Pair(Datum::Int64(-1), Datum::Int64(0))};
  Chunk p = Chunk::OfDatums(DatumVector(pairs));
  ASSERT_EQ(p.rep(), Chunk::Rep::kInt64Pair);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(p.HashAt(i), pairs[i].Hash()) << i;
    EXPECT_EQ(p.HashField0At(i), pairs[i].field(0).Hash()) << i;
  }
}

TEST(ChunkTest, HashAtOnSliceIndexesTheView) {
  Chunk c = Chunk::OfInt64({10, 20, 30});
  Chunk s = c.Slice(1, 2);
  EXPECT_EQ(s.HashAt(0), Datum::Int64(20).Hash());
  EXPECT_EQ(s.HashAt(1), Datum::Int64(30).Hash());
}

TEST(ChunkTest, CopyIsAHandleNotAPayloadCopy) {
  Chunk a = Chunk::OfInt64({1, 2, 3, 4});
  Chunk b = a;
  EXPECT_EQ(a.i64(), b.i64());  // shared storage
}

// (int64, double) pairs, including the values whose hashing is special:
// -0.0 (normalized to 0.0 by Datum::Hash) and NaN.
DatumVector IntDoublePairs() {
  DatumVector data;
  const double values[] = {0.5, -0.0, 0.0, std::nan(""), 1e16, -3.25};
  int64_t key = -2;
  for (double v : values) {
    data.push_back(Datum::Pair(Datum::Int64(key), Datum::Double(v)));
    key = key * 3 + 1;
  }
  return data;
}

// Bitwise equality, so NaN and -0.0 elements compare as what they are.
void ExpectSameBits(const Datum& a, const Datum& b) {
  ASSERT_EQ(a.kind(), b.kind());
  if (a.is_tuple()) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ExpectSameBits(a.field(i), b.field(i));
    }
  } else if (a.is_double()) {
    const double x = a.dbl();
    const double y = b.dbl();
    EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
        << a.ToString() << " vs " << b.ToString();
  } else {
    EXPECT_EQ(a, b);
  }
}

TEST(ChunkTest, Int64DoublePairsColumnarize) {
  Chunk c = Chunk::OfDatums(IntDoublePairs());
  EXPECT_EQ(c.rep(), Chunk::Rep::kInt64Double);
  EXPECT_FALSE(c.fallback());
  EXPECT_TRUE(c.int64_keyed());
  ASSERT_EQ(c.size(), 6u);
  EXPECT_EQ(c.keys()[1], -5);
  EXPECT_EQ(c.dvals()[0], 0.5);
  EXPECT_TRUE(std::signbit(c.dvals()[1]));

  // A single int64 value among the doubles keeps the batch boxed.
  DatumVector mixed = IntDoublePairs();
  mixed.push_back(Datum::Pair(Datum::Int64(1), Datum::Int64(1)));
  EXPECT_TRUE(Chunk::OfDatums(std::move(mixed)).fallback());
}

// Every representation-independent accessor agrees with the boxed twin,
// whole and sliced.
TEST(ChunkTest, Int64DoubleMatchesItsBoxedTwin) {
  const DatumVector data = IntDoublePairs();
  const Chunk typed = Chunk::OfDatums(DatumVector(data));
  const Chunk boxed = Chunk::OfDatums(DatumVector(data), false);
  ASSERT_EQ(typed.rep(), Chunk::Rep::kInt64Double);
  ASSERT_TRUE(boxed.fallback());
  EXPECT_EQ(typed.SerializedSize(), boxed.SerializedSize());
  EXPECT_EQ(typed.SerializedSize(), data.size() * (4u + 8u + 8u));
  for (size_t i = 0; i < data.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameBits(typed.At(i), data[i]);
    EXPECT_EQ(typed.HashAt(i), data[i].Hash());
    EXPECT_EQ(typed.HashAt(i), boxed.HashAt(i));
    EXPECT_EQ(typed.HashField0At(i), data[i].field(0).Hash());
  }
  // -0.0 and 0.0 are equal, so they hash alike in a double column too.
  const Chunk zeros = Chunk::OfDouble({-0.0, 0.0});
  EXPECT_EQ(zeros.HashAt(0), Datum::Double(0.0).Hash());
  EXPECT_EQ(zeros.HashAt(1), Datum::Double(0.0).Hash());
  DatumVector appended;
  typed.AppendTo(&appended);
  ASSERT_EQ(appended.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    ExpectSameBits(appended[i], data[i]);
  }

  const Chunk slice = typed.Slice(2, 3);
  const Chunk boxed_slice = boxed.Slice(2, 3);
  EXPECT_EQ(slice.rep(), Chunk::Rep::kInt64Double);
  EXPECT_EQ(slice.keys(), typed.keys() + 2);  // zero-copy view
  EXPECT_EQ(slice.SerializedSize(), boxed_slice.SerializedSize());
  for (size_t i = 0; i < slice.size(); ++i) {
    ExpectSameBits(slice.At(i), data[2 + i]);
    EXPECT_EQ(slice.HashAt(i), boxed_slice.HashAt(i));
    EXPECT_EQ(slice.HashField0At(i), boxed_slice.HashField0At(i));
  }
}

// The byte count is taken when a chunk or slice is made; a boxed slice
// counts only its own elements.
TEST(ChunkTest, SerializedSizeOfBoxedSlicesCountsTheView) {
  DatumVector data{Datum::String("a"), Datum::String("bcd"),
                   Datum::Pair(Datum::String("xy"), Datum::Int64(1))};
  const Chunk c = Chunk::OfDatums(DatumVector(data));
  ASSERT_TRUE(c.fallback());
  EXPECT_EQ(c.SerializedSize(), SerializedSize(data));
  EXPECT_EQ(c.Slice(1, 2).SerializedSize(),
            data[1].SerializedSize() + data[2].SerializedSize());
  EXPECT_EQ(c.Slice(1, 2).Slice(1, 1).SerializedSize(),
            data[2].SerializedSize());
  EXPECT_EQ(c.Slice(0, 3).SerializedSize(), c.SerializedSize());
  EXPECT_EQ(c.Slice(1, 0).SerializedSize(), 0u);
}

// A whole boxed chunk is priced on first use and the count is cached in the
// shared storage: handles copied before or after, on any thread, agree.
TEST(ChunkTest, BoxedByteCountIsSharedByEveryHandle) {
  DatumVector data;
  for (int64_t i = 0; i < 1000; ++i) {
    data.push_back(Datum::Pair(Datum::String(std::string(i % 7, 'x')),
                               Datum::Int64(i)));
  }
  const size_t want = SerializedSize(data);
  const Chunk c = Chunk::OfDatums(std::move(data));
  ASSERT_TRUE(c.fallback());
  std::vector<size_t> got(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back(
        [copy = c, &got, t] { got[t] = copy.SerializedSize(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t bytes : got) EXPECT_EQ(bytes, want);
  EXPECT_EQ(c.SerializedSize(), want);
  EXPECT_EQ(Chunk(c).SerializedSize(), want);
}

}  // namespace
}  // namespace mitos
