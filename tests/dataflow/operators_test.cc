#include "dataflow/operators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>

#include "common/chunk.h"

namespace mitos::dataflow {
namespace {

DatumVector Ints(std::initializer_list<int64_t> values) {
  DatumVector out;
  for (int64_t v : values) out.push_back(Datum::Int64(v));
  return out;
}

// Drives one output bag through a kernel and collects emissions. With
// `columnar` false the kernel and every input chunk stay boxed, exercising
// the generic paths the columnar fast paths must agree with.
DatumVector RunBag(BagOperator& op,
                   const std::vector<std::pair<int, DatumVector>>& pushes,
                   int num_inputs = 1, bool columnar = true) {
  op.set_columnar(columnar);
  DatumVector collected;
  BagOperator::EmitFn emit = [&](Chunk&& chunk) {
    chunk.AppendTo(&collected);
  };
  op.Open();
  for (const auto& [input, data] : pushes) {
    op.Push(input, Chunk::OfDatums(DatumVector(data), columnar), emit);
  }
  for (int i = 0; i < num_inputs; ++i) op.Close(i, emit);
  op.Finish(emit);
  return collected;
}

TEST(OperatorsTest, MapTransformsEveryElement) {
  MapOp op(lang::fns::AddInt64(5));
  DatumVector out = RunBag(op, {{0, Ints({1, 2})}, {0, Ints({3})}});
  EXPECT_EQ(out, Ints({6, 7, 8}));
}

TEST(OperatorsTest, FilterKeepsMatching) {
  FilterOp op(lang::fns::Int64ModEquals(2, 1));
  DatumVector out = RunBag(op, {{0, Ints({1, 2, 3, 4, 5})}});
  EXPECT_EQ(out, Ints({1, 3, 5}));
}

TEST(OperatorsTest, FlatMapExpands) {
  FlatMapOp op({"explode", [](const Datum& x) {
                  DatumVector v;
                  for (int64_t i = 0; i < x.int64(); ++i) {
                    v.push_back(Datum::Int64(i));
                  }
                  return v;
                }});
  DatumVector out = RunBag(op, {{0, Ints({2, 0, 3})}});
  EXPECT_EQ(out, Ints({0, 1, 0, 1, 2}));
}

TEST(OperatorsTest, ReduceByKeyAggregatesAcrossChunks) {
  ReduceByKeyOp op(lang::fns::SumInt64());
  DatumVector out = RunBag(
      op, {{0, {Datum::Pair(Datum::Int64(1), Datum::Int64(10))}},
           {0, {Datum::Pair(Datum::Int64(2), Datum::Int64(5)),
                Datum::Pair(Datum::Int64(1), Datum::Int64(1))}}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Datum::Pair(Datum::Int64(1), Datum::Int64(11)));
  EXPECT_EQ(out[1], Datum::Pair(Datum::Int64(2), Datum::Int64(5)));
}

TEST(OperatorsTest, ReduceByKeyResetsBetweenBags) {
  ReduceByKeyOp op(lang::fns::SumInt64());
  RunBag(op, {{0, {Datum::Pair(Datum::Int64(1), Datum::Int64(10))}}});
  DatumVector out =
      RunBag(op, {{0, {Datum::Pair(Datum::Int64(1), Datum::Int64(2))}}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].field(1).int64(), 2);  // not 12: state was dropped
}

TEST(OperatorsTest, ReduceByKeyDegradesToGenericMidBag) {
  // First chunk hits the typed accumulator; the second is a boxed mixed
  // chunk, forcing a mid-bag degrade that must preserve the typed state.
  ReduceByKeyOp op(lang::fns::SumInt64());
  op.set_columnar(true);
  DatumVector collected;
  BagOperator::EmitFn emit = [&](Chunk&& chunk) {
    chunk.AppendTo(&collected);
  };
  op.Open();
  op.Push(0,
          Chunk::OfDatums({Datum::Pair(Datum::Int64(1), Datum::Int64(10)),
                           Datum::Pair(Datum::Int64(2), Datum::Int64(5))}),
          emit);
  op.Push(0,
          Chunk::OfDatums({Datum::Pair(Datum::String("k"), Datum::Int64(3)),
                           Datum::Pair(Datum::Int64(1), Datum::Int64(1))},
                          /*columnarize=*/false),
          emit);
  op.Close(0, emit);
  op.Finish(emit);
  ASSERT_EQ(collected.size(), 3u);
  EXPECT_EQ(collected[0], Datum::Pair(Datum::Int64(1), Datum::Int64(11)));
  EXPECT_EQ(collected[1], Datum::Pair(Datum::Int64(2), Datum::Int64(5)));
  EXPECT_EQ(collected[2],
            Datum::Pair(Datum::String("k"), Datum::Int64(3)));
}

TEST(OperatorsTest, ReduceEmitsNothingOnEmptyInput) {
  ReduceOp op(lang::fns::SumInt64());
  EXPECT_TRUE(RunBag(op, {}).empty());
}

TEST(OperatorsTest, ReduceFolds) {
  ReduceOp op(lang::fns::SumInt64());
  DatumVector out = RunBag(op, {{0, Ints({1, 2})}, {0, Ints({3})}});
  EXPECT_EQ(out, Ints({6}));
}

TEST(OperatorsTest, CountEmitsZeroForEmpty) {
  CountOp op;
  EXPECT_EQ(RunBag(op, {}), Ints({0}));
}

TEST(OperatorsTest, JoinBuildThenProbe) {
  JoinOp op;
  DatumVector out = RunBag(
      op,
      {{0, {Datum::Pair(Datum::Int64(1), Datum::String("a"))}},
       {1, {Datum::Pair(Datum::Int64(1), Datum::Int64(10)),
            Datum::Pair(Datum::Int64(2), Datum::Int64(20))}}},
      /*num_inputs=*/2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Datum::Tuple({Datum::Int64(1), Datum::String("a"),
                                  Datum::Int64(10)}));
}

TEST(OperatorsTest, JoinBlockingInputIsBuildSide) {
  JoinOp op;
  EXPECT_EQ(op.BlockingInput(), 0);
  EXPECT_TRUE(op.CanReuseInput(0));
  EXPECT_FALSE(op.CanReuseInput(1));
}

TEST(OperatorsTest, JoinReusesBuildStateWhenAsked) {
  JoinOp op;
  // Bag 1: build {1: a}, probe nothing.
  RunBag(op, {{0, {Datum::Pair(Datum::Int64(1), Datum::String("a"))}}},
         /*num_inputs=*/2);
  // Bag 2: reuse the build side, probe key 1 — must still match.
  op.SetReuseInput(0, true);
  DatumVector collected;
  BagOperator::EmitFn emit = [&](Chunk&& chunk) {
    chunk.AppendTo(&collected);
  };
  op.Open();
  op.Push(1, Chunk::OfDatums({Datum::Pair(Datum::Int64(1), Datum::Int64(7))}),
          emit);
  op.Finish(emit);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].field(1).str(), "a");
}

TEST(OperatorsTest, JoinDropsBuildStateWithoutReuse) {
  JoinOp op;
  RunBag(op, {{0, {Datum::Pair(Datum::Int64(1), Datum::String("a"))}}},
         /*num_inputs=*/2);
  op.SetReuseInput(0, false);
  DatumVector collected;
  BagOperator::EmitFn emit = [&](Chunk&& chunk) {
    chunk.AppendTo(&collected);
  };
  op.Open();
  op.Push(1, Chunk::OfDatums({Datum::Pair(Datum::Int64(1), Datum::Int64(7))}),
          emit);
  op.Finish(emit);
  EXPECT_TRUE(collected.empty());
}

TEST(OperatorsTest, JoinMultiMatchEmitsAllBuildValues) {
  JoinOp op;
  DatumVector out = RunBag(
      op,
      {{0, {Datum::Pair(Datum::Int64(1), Datum::String("a")),
            Datum::Pair(Datum::Int64(1), Datum::String("b"))}},
       {1, {Datum::Pair(Datum::Int64(1), Datum::Int64(9))}}},
      /*num_inputs=*/2);
  EXPECT_EQ(out.size(), 2u);
}

TEST(OperatorsTest, UnionForwardsBothInputs) {
  UnionOp op;
  DatumVector out = RunBag(op, {{0, Ints({1})}, {1, Ints({2})},
                                {0, Ints({3})}},
                           /*num_inputs=*/2);
  EXPECT_EQ(out, Ints({1, 2, 3}));
}

TEST(OperatorsTest, DistinctDeduplicatesWithinBag) {
  DistinctOp op;
  DatumVector out = RunBag(op, {{0, Ints({1, 2, 1})}, {0, Ints({2, 3})}});
  EXPECT_EQ(out, Ints({1, 2, 3}));
  // And resets between bags.
  DatumVector again = RunBag(op, {{0, Ints({1})}});
  EXPECT_EQ(again, Ints({1}));
}

TEST(OperatorsTest, Combine2AppliesFunction) {
  Combine2Op op(lang::fns::SumInt64());
  DatumVector out = RunBag(op, {{0, Ints({4})}, {1, Ints({5})}},
                           /*num_inputs=*/2);
  EXPECT_EQ(out, Ints({9}));
}

TEST(OperatorsTest, Combine2EmitsNothingWhenAnInputIsEmpty) {
  Combine2Op op(lang::fns::SumInt64());
  DatumVector out = RunBag(op, {{0, Ints({4})}}, /*num_inputs=*/2);
  EXPECT_TRUE(out.empty());
}

TEST(OperatorsTest, PhiForwardsSelectedInput) {
  PhiOp op;
  DatumVector out = RunBag(op, {{1, Ints({7, 8})}}, /*num_inputs=*/2);
  EXPECT_EQ(out, Ints({7, 8}));
}

TEST(OperatorsTest, MakeOperatorDispatch) {
  LogicalNode node;
  node.kind = NodeKind::kMap;
  node.unary = lang::fns::Identity();
  EXPECT_NE(MakeOperator(node), nullptr);
  node.kind = NodeKind::kReadFile;
  EXPECT_EQ(MakeOperator(node), nullptr);  // host-handled
  node.kind = NodeKind::kCondition;
  EXPECT_EQ(MakeOperator(node), nullptr);
  node.kind = NodeKind::kJoin;
  EXPECT_NE(MakeOperator(node), nullptr);
}

// Every vectorized fast path must agree element-for-element with the
// generic (boxed) path it replaces.
TEST(OperatorsTest, ColumnarMatchesBoxedAcrossKernels) {
  DatumVector ints, doubles, pairs;
  for (int64_t i = 0; i < 100; ++i) {
    ints.push_back(Datum::Int64(i * 7 % 23));
    doubles.push_back(Datum::Double(static_cast<double>(i) * 0.5));
    pairs.push_back(Datum::Pair(Datum::Int64(i % 5), Datum::Int64(i)));
  }
  struct Case {
    const char* name;
    std::function<std::unique_ptr<BagOperator>()> make;
    const DatumVector* input;
  };
  const std::vector<Case> cases = {
      {"map.addInt64", [] { return std::make_unique<MapOp>(
                                lang::fns::AddInt64(3)); }, &ints},
      {"map.pairWithOne", [] { return std::make_unique<MapOp>(
                                   lang::fns::PairWithOne()); }, &ints},
      {"map.field0", [] { return std::make_unique<MapOp>(
                              lang::fns::Field(0)); }, &pairs},
      {"map.pairSwap", [] { return std::make_unique<MapOp>(
                                lang::fns::PairSwap()); }, &pairs},
      {"map.scaleDouble", [] { return std::make_unique<MapOp>(
                                   lang::fns::ScaleDouble(1.5)); }, &doubles},
      {"filter.gt", [] { return std::make_unique<FilterOp>(
                             lang::fns::GtInt64(10)); }, &ints},
      {"filter.fieldEquals", [] { return std::make_unique<FilterOp>(
                                      lang::fns::FieldEquals(
                                          0, Datum::Int64(2))); }, &pairs},
      {"flatMap.dup", [] { return std::make_unique<FlatMapOp>(
                               lang::fns::Dup()); }, &ints},
      {"reduceByKey.sum", [] { return std::make_unique<ReduceByKeyOp>(
                                   lang::fns::SumInt64()); }, &pairs},
      {"reduceByKey.min", [] { return std::make_unique<ReduceByKeyOp>(
                                   lang::fns::MinInt64()); }, &pairs},
      {"reduce.sum", [] { return std::make_unique<ReduceOp>(
                              lang::fns::SumInt64()); }, &ints},
      {"reduce.max", [] { return std::make_unique<ReduceOp>(
                              lang::fns::MaxInt64()); }, &ints},
      {"distinct", [] { return std::make_unique<DistinctOp>(); }, &ints},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // Split the input in two chunks to exercise cross-chunk state.
    DatumVector first(c.input->begin(), c.input->begin() + 40);
    DatumVector rest(c.input->begin() + 40, c.input->end());
    auto fast_op = c.make();
    DatumVector fast = RunBag(*fast_op, {{0, first}, {0, rest}},
                              /*num_inputs=*/1, /*columnar=*/true);
    auto boxed_op = c.make();
    DatumVector boxed = RunBag(*boxed_op, {{0, first}, {0, rest}},
                               /*num_inputs=*/1, /*columnar=*/false);
    EXPECT_EQ(fast, boxed);
    EXPECT_FALSE(fast.empty());
  }
}

// ----- typed keyed state vs the generic path -----

DatumVector Pairs(std::initializer_list<std::pair<int64_t, int64_t>> kvs) {
  DatumVector out;
  for (const auto& [k, v] : kvs) {
    out.push_back(Datum::Pair(Datum::Int64(k), Datum::Int64(v)));
  }
  return out;
}

// A chunk that stays boxed even on the columnar plane.
Chunk Boxed(DatumVector data) {
  return Chunk::OfDatums(std::move(data), /*columnarize=*/false);
}

using Pushes = std::vector<std::pair<int, Chunk>>;

// Drives one output bag of chunks through `op` as given, collecting the
// emitted chunks.
std::vector<Chunk> RunChunks(BagOperator& op, const Pushes& pushes,
                             int num_inputs) {
  std::vector<Chunk> emitted;
  BagOperator::EmitFn emit = [&](Chunk&& chunk) {
    emitted.push_back(std::move(chunk));
  };
  op.Open();
  for (const auto& [input, chunk] : pushes) op.Push(input, chunk, emit);
  for (int i = 0; i < num_inputs; ++i) op.Close(i, emit);
  op.Finish(emit);
  return emitted;
}

DatumVector Flatten(const std::vector<Chunk>& chunks) {
  DatumVector out;
  for (const Chunk& c : chunks) c.AppendTo(&out);
  return out;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Element-wise equality with doubles compared bitwise, so -0.0 differs
// from 0.0 and a NaN equals a NaN of the same payload.
bool SameBits(const Datum& a, const Datum& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_double()) return Bits(a.dbl()) == Bits(b.dbl());
  if (!a.is_tuple()) return a == b;
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a.field(i), b.field(i))) return false;
  }
  return true;
}

void ExpectSameBits(const DatumVector& got, const DatumVector& want) {
  ASSERT_EQ(got.size(), want.size())
      << ToString(got) << " vs " << ToString(want);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameBits(got[i], want[i]))
        << "element " << i << ": " << got[i].ToString() << " vs "
        << want[i].ToString();
  }
}

// Runs each bag of `bags` through a columnar kernel with the chunks as
// given, and through a boxed kernel (set_columnar(false)) with every chunk
// boxed; expects the same elements in the same order, bag by bag.
// `reuse[b]` asks both kernels to keep their build side for bag b.
void ExpectTypedMatchesGeneric(
    const std::function<std::unique_ptr<BagOperator>()>& make,
    const std::vector<Pushes>& bags, int num_inputs,
    const std::vector<bool>& reuse = {}) {
  auto typed = make();
  auto generic = make();
  typed->set_columnar(true);
  generic->set_columnar(false);
  for (size_t b = 0; b < bags.size(); ++b) {
    SCOPED_TRACE(testing::Message() << "bag " << b);
    if (b < reuse.size()) {
      typed->SetReuseInput(0, reuse[b]);
      generic->SetReuseInput(0, reuse[b]);
    }
    Pushes boxed;
    for (const auto& [input, chunk] : bags[b]) {
      boxed.emplace_back(input, Boxed(chunk.ToDatums()));
    }
    const DatumVector want = Flatten(RunChunks(*generic, boxed, num_inputs));
    ExpectSameBits(Flatten(RunChunks(*typed, bags[b], num_inputs)), want);
    EXPECT_FALSE(want.empty());
  }
}

TEST(OperatorsTest, ReduceByKeyTypedThenBoxedMatchesGeneric) {
  for (const auto& combine : {lang::fns::SumInt64(), lang::fns::MinInt64()}) {
    SCOPED_TRACE(combine.name);
    auto make = [&] { return std::make_unique<ReduceByKeyOp>(combine); };
    // Typed chunks, then an int-keyed boxed chunk mid-bag (degrade), then
    // more typed chunks, which now ride the boxed state.
    ExpectTypedMatchesGeneric(
        make,
        {{{0, Chunk::OfDatums(Pairs({{1, 10}, {2, 5}, {1, -4}}))},
          {0, Chunk::OfDatums(Pairs({{3, 7}, {2, 2}}))},
          {0, Boxed(Pairs({{2, 9}, {4, 1}}))},
          {0, Chunk::OfDatums(Pairs({{1, 6}, {5, 0}}))}}},
        1);
    // A string-keyed chunk mid-bag.
    ExpectTypedMatchesGeneric(
        make,
        {{{0, Chunk::OfDatums(Pairs({{1, 10}, {2, 5}}))},
          {0, Chunk::OfDatums(
                  {Datum::Pair(Datum::String("k"), Datum::Int64(3)),
                   Datum::Pair(Datum::Int64(1), Datum::Int64(1))})},
          {0, Chunk::OfDatums(Pairs({{2, 8}}))}}},
        1);
  }
}

TEST(OperatorsTest, ReduceTypedThenBoxedMatchesGeneric) {
  for (const auto& combine : {lang::fns::SumInt64(), lang::fns::MaxInt64()}) {
    SCOPED_TRACE(combine.name);
    ExpectTypedMatchesGeneric(
        [&] { return std::make_unique<ReduceOp>(combine); },
        {{{0, Chunk::OfDatums(Ints({5, -3, 9}))},
          {0, Boxed(Ints({4, 11}))},
          {0, Chunk::OfDatums(Ints({2}))}},
         // Typed only, wrapping past INT64_MAX for the sum.
         {{0, Chunk::OfDatums(Ints({INT64_MAX, 2, 3}))}}},
        1);
  }
}

TEST(OperatorsTest, JoinTypedBuildProbedByBoxedChunksMatchesGeneric) {
  // Duplicate build keys fix the per-key build order; the boxed probe
  // mixes int64, string and double keys and non-int64 values. The typed
  // table must serve all of it without degrading.
  const Chunk probe_boxed = Chunk::OfDatums(
      {Datum::Pair(Datum::Int64(1), Datum::Double(0.5)),
       Datum::Pair(Datum::String("1"), Datum::Int64(1)),
       Datum::Pair(Datum::Double(2.0), Datum::Int64(2)),
       Datum::Pair(Datum::Int64(2), Datum::String("x")),
       Datum::Pair(Datum::Int64(99), Datum::Int64(0))});
  ASSERT_TRUE(probe_boxed.fallback());
  ExpectTypedMatchesGeneric(
      [] { return std::make_unique<JoinOp>(); },
      {{{0, Chunk::OfDatums(Pairs({{1, 10}, {2, 20}, {1, 11}}))},
        {0, Chunk::OfDatums(Pairs({{1, 12}, {3, 30}}))},
        {1, probe_boxed},
        {1, Chunk::OfDatums(Pairs({{3, 7}, {1, 8}, {4, 9}}))}}},
      2);
}

TEST(OperatorsTest, JoinBoxedBuildAfterTypedDegradesAndMatchesGeneric) {
  ExpectTypedMatchesGeneric(
      [] { return std::make_unique<JoinOp>(); },
      {{{0, Chunk::OfDatums(Pairs({{1, 10}, {2, 20}}))},
        {0, Chunk::OfDatums({Datum::Pair(Datum::String("s"), Datum::Int64(1)),
                             Datum::Pair(Datum::Int64(1),
                                         Datum::String("b"))})},
        {0, Chunk::OfDatums(Pairs({{1, 12}}))},
        {1, Chunk::OfDatums(Pairs({{1, 7}, {2, 8}}))},
        {1, Chunk::OfDatums({Datum::Pair(Datum::String("s"),
                                         Datum::Double(1.5))})}}},
      2);
}

TEST(OperatorsTest, JoinTypedBuildReusedAcrossOpenMatchesGeneric) {
  ExpectTypedMatchesGeneric(
      [] { return std::make_unique<JoinOp>(); },
      {// Bag 0 builds and probes.
       {{0, Chunk::OfDatums(Pairs({{1, 10}, {2, 20}, {1, 11}}))},
        {1, Chunk::OfDatums(Pairs({{1, 5}}))}},
       // Bags 1 and 2 reuse the build side and only probe, typed and boxed.
       {{1, Chunk::OfDatums(Pairs({{2, 6}, {1, 7}}))}},
       {{1, Chunk::OfDatums(
                {Datum::Pair(Datum::Int64(1), Datum::Double(1.0))})}},
       // Bag 3 drops it and builds afresh.
       {{0, Chunk::OfDatums(Pairs({{2, 40}}))},
        {1, Chunk::OfDatums(Pairs({{1, 7}, {2, 8}}))}}},
      2, /*reuse=*/{false, true, true, false});
}

TEST(OperatorsTest, KeyedKernelsMatchGenericOnManyKeys) {
  // Enough keys to grow the int64 index several times, extreme keys
  // included, then a small bag that reuses (and shrinks) it.
  DatumVector ints;
  DatumVector pairs;
  for (int64_t i = 0; i < 5000; ++i) {
    const int64_t key = (i * 7919) % 3001 - 1500;
    ints.push_back(Datum::Int64(key));
    pairs.push_back(Datum::Pair(Datum::Int64(key), Datum::Int64(i)));
  }
  for (int64_t extreme : {INT64_MIN, INT64_MAX, int64_t{0}, int64_t{-1}}) {
    ints.push_back(Datum::Int64(extreme));
    pairs.push_back(Datum::Pair(Datum::Int64(extreme), Datum::Int64(1)));
  }
  const std::vector<Pushes> keyed = {{{0, Chunk::OfDatums(pairs)}},
                                     {{0, Chunk::OfDatums(Pairs({{3, 1}}))}}};
  ExpectTypedMatchesGeneric(
      [] { return std::make_unique<ReduceByKeyOp>(lang::fns::SumInt64()); },
      keyed, 1);
  ExpectTypedMatchesGeneric(
      [] { return std::make_unique<DistinctOp>(); },
      {{{0, Chunk::OfDatums(ints)}}, {{0, Chunk::OfDatums(Ints({3, 3}))}}},
      1);
  ExpectTypedMatchesGeneric([] { return std::make_unique<JoinOp>(); },
                            {{{0, Chunk::OfDatums(pairs)},
                              {1, Chunk::OfDatums(pairs)}},
                             {{0, Chunk::OfDatums(Pairs({{3, 1}}))},
                              {1, Chunk::OfDatums(pairs)}}},
                            2);
}

// ----- (int64, double) pairs: the sorted double fold and the keyed probe --

DatumVector DoublePairs(
    std::initializer_list<std::pair<int64_t, double>> kvs) {
  DatumVector out;
  for (const auto& [k, v] : kvs) {
    out.push_back(Datum::Pair(Datum::Int64(k), Datum::Double(v)));
  }
  return out;
}

// A columnar (int64, double) chunk.
Chunk DoubleChunk(std::initializer_list<std::pair<int64_t, double>> kvs) {
  Chunk c = Chunk::OfDatums(DoublePairs(kvs));
  MITOS_CHECK(c.rep() == Chunk::Rep::kInt64Double);
  return c;
}

std::unique_ptr<BagOperator> SumDoubleByKey() {
  return std::make_unique<ReduceByKeyOp>(lang::fns::SumDouble());
}

TEST(OperatorsTest, ReduceByKeySumDoubleIsTheSortedFoldInAnyChunkOrder) {
  // Key 1's values are not associative: folded in this (arrival) order
  // they sum to 3.125, folded in sorted order to 4.0.
  const double kValues[] = {1e16, 0.125, 1.0, 0.125, -1e16, 3.0, 0.125};
  double arrival = kValues[0];
  for (size_t i = 1; i < std::size(kValues); ++i) arrival += kValues[i];
  ASSERT_EQ(arrival, 3.125);

  const Chunk a = DoubleChunk({{1, 1e16}, {2, 0.5}, {1, 0.125}});
  const Chunk b = DoubleChunk({{1, 1.0}, {1, 0.125}, {3, -2.0}});
  const Chunk c = DoubleChunk({{1, -1e16}, {2, 1e16}, {1, 3.0}, {1, 0.125}});
  const std::vector<Pushes> orders = {
      {{0, a}, {0, b}, {0, c}},
      {{0, c}, {0, a}, {0, b}},
      {{0, b}, {0, c}, {0, a}},
  };
  std::vector<DatumVector> sums;
  for (const Pushes& order : orders) {
    ExpectTypedMatchesGeneric(SumDoubleByKey, {order}, 1);
    auto op = SumDoubleByKey();
    const std::vector<Chunk> out = RunChunks(*op, order, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rep(), Chunk::Rep::kInt64Double);  // stayed typed
    DatumVector sorted = Flatten(out);
    std::sort(sorted.begin(), sorted.end());
    sums.push_back(std::move(sorted));
  }
  ExpectSameBits(sums[0], DoublePairs({{1, 4.0}, {2, 1e16}, {3, -2.0}}));
  ExpectSameBits(sums[1], sums[0]);
  ExpectSameBits(sums[2], sums[0]);
}

TEST(OperatorsTest, ReduceByKeySumDoubleDegradesMidBagAndMatchesGeneric) {
  ExpectTypedMatchesGeneric(
      SumDoubleByKey,
      {// A boxed chunk mid-bag: every buffered value is replayed.
       {{0, DoubleChunk({{1, 1e16}, {2, 0.25}, {1, 0.125}})},
        {0, Boxed(DoublePairs({{2, -1.5}, {4, 1.0}}))},
        {0, DoubleChunk({{1, -1e16}, {1, 1.0}, {5, 0.0}})}},
       // A string key mid-bag.
       {{0, DoubleChunk({{1, 0.5}, {2, 2.5}})},
        {0, Chunk::OfDatums({Datum::Pair(Datum::String("k"), Datum::Double(1)),
                             Datum::Pair(Datum::Int64(1), Datum::Double(3))})},
        {0, DoubleChunk({{2, 8.0}})}},
       // The next bag starts typed again.
       {{0, DoubleChunk({{7, 1.0}, {7, 1e16}})}}},
      1);
}

TEST(OperatorsTest, ReduceByKeySumDoubleHandsNanToTheGenericPath) {
  ExpectTypedMatchesGeneric(
      SumDoubleByKey,
      {{{0, DoubleChunk({{1, 2.0}, {2, 1.0}})},
        {0, DoubleChunk({{1, std::nan("")}, {2, 3.0}, {1, -1.0}})},
        {0, DoubleChunk({{1, 5.0}, {3, 0.5}})}}},
      1);
}

TEST(OperatorsTest, ReduceByKeySumDoubleKeepsTheSignOfZeroSums) {
  // All-negative zeros sum to -0.0; any +0.0 makes the sum +0.0, in every
  // order.
  const Chunk a = DoubleChunk({{1, -0.0}, {2, -0.0}, {3, 0.0}});
  const Chunk b = DoubleChunk({{2, 0.0}, {1, -0.0}, {2, -0.0}});
  for (const Pushes& order :
       {Pushes{{0, a}, {0, b}}, Pushes{{0, b}, {0, a}}}) {
    ExpectTypedMatchesGeneric(SumDoubleByKey, {order}, 1);
    auto op = SumDoubleByKey();
    DatumVector out = Flatten(RunChunks(*op, order, 1));
    std::sort(out.begin(), out.end());
    ExpectSameBits(out, DoublePairs({{1, -0.0}, {2, 0.0}, {3, 0.0}}));
  }
}

TEST(OperatorsTest, JoinProbedByInt64DoubleChunksMatchesGeneric) {
  const Chunk probe = DoubleChunk(
      {{1, 0.5}, {9, 1.0}, {2, -0.0}, {1, std::nan("")}, {3, 1e16}});
  // Typed build table.
  ExpectTypedMatchesGeneric(
      [] { return std::make_unique<JoinOp>(); },
      {{{0, Chunk::OfDatums(Pairs({{1, 10}, {2, 20}, {1, 11}}))},
        {1, probe},
        {1, DoubleChunk({{2, 4.0}})}}},
      2);
  // Boxed build table: nested build values, as PageRank's adjacency.
  ExpectTypedMatchesGeneric(
      [] { return std::make_unique<JoinOp>(); },
      {{{0, Chunk::OfDatums(
                {Datum::Pair(Datum::Int64(1), Datum::Pair(Datum::Int64(7),
                                                          Datum::Double(0.5))),
                 Datum::Pair(Datum::Int64(3), Datum::String("x")),
                 Datum::Pair(Datum::Int64(1), Datum::Int64(4))})},
        {1, probe}}},
      2);
}

TEST(OperatorsTest, Int64SlotIndexHandsOutDenseSlotsInFirstSeenOrder) {
  internal::Int64SlotIndex index;
  EXPECT_EQ(index.Find(5), internal::Int64SlotIndex::kNone);
  EXPECT_EQ(index.FindOrAdd(5), 0u);
  EXPECT_EQ(index.FindOrAdd(INT64_MIN), 1u);
  EXPECT_EQ(index.FindOrAdd(5), 0u);
  for (int64_t k = 100; k < 200; ++k) index.FindOrAdd(k);
  EXPECT_EQ(index.size(), 102u);
  EXPECT_EQ(index.Find(INT64_MIN), 1u);
  EXPECT_EQ(index.Find(150), 52u);
  EXPECT_EQ(index.keys()[52], 150);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(5), internal::Int64SlotIndex::kNone);
  EXPECT_EQ(index.FindOrAdd(150), 0u);
}

// With the columnar plane off, kernels fed columnar chunks still take the
// generic path: every chunk they emit is boxed.
TEST(OperatorsTest, ColumnarOffNeverTakesTypedPath) {
  const Chunk ints = Chunk::OfDatums(Ints({4, 1, 4, 7}));
  const Chunk pairs = Chunk::OfDatums(Pairs({{1, 2}, {1, 3}, {2, 4}}));
  ASSERT_EQ(ints.rep(), Chunk::Rep::kInt64);
  ASSERT_EQ(pairs.rep(), Chunk::Rep::kInt64Pair);
  struct Case {
    const char* name;
    std::unique_ptr<BagOperator> op;
    Pushes pushes;
    int num_inputs;
  };
  Case cases[] = {
      {"reduceByKey",
       std::make_unique<ReduceByKeyOp>(lang::fns::SumInt64()),
       {{0, pairs}},
       1},
      {"reduce", std::make_unique<ReduceOp>(lang::fns::SumInt64()),
       {{0, ints}},
       1},
      {"distinct", std::make_unique<DistinctOp>(), {{0, ints}}, 1},
      {"join", std::make_unique<JoinOp>(), {{0, pairs}, {1, pairs}}, 2},
      {"map", std::make_unique<MapOp>(lang::fns::AddInt64(1)), {{0, ints}},
       1},
      {"filter", std::make_unique<FilterOp>(lang::fns::GtInt64(2)),
       {{0, ints}},
       1},
  };
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    c.op->set_columnar(false);
    const std::vector<Chunk> out = RunChunks(*c.op, c.pushes, c.num_inputs);
    ASSERT_FALSE(out.empty());
    for (const Chunk& chunk : out) EXPECT_TRUE(chunk.fallback());
  }
}

}  // namespace
}  // namespace mitos::dataflow
