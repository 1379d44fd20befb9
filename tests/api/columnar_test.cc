// Engine-level contract of the batched data plane: the columnar plane and
// the boxed ablation plane (RunConfig::columnar = false) are
// element-identical on every backend, and the chunk counters flow from the
// executor into RunStats, the metrics registry, and the Prometheus
// exposition.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "api/engine.h"
#include "lang/parser.h"
#include "obs/live/prom.h"
#include "obs/metrics.h"
#include "sim/filesystem.h"

namespace mitos::api {
namespace {

// Ints, int pairs, strings, and string-keyed pairs: the program crosses the
// typed fast path (map/filter/reduceByKey over int columns) and the boxed
// fallback (string ops, string-keyed reduceByKey) in one run.
constexpr char kMixedProgram[] = R"(
v0 = bagOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10);
v1 = bagOf(("a", 1), ("bb", 2), ("a", 3), ("ccc", 4), ("bb", 5));
v2 = bagOf("x", "yy", "zzz", "x", "yy");
i = 0;
do {
  v0 = v0.map(addInt64(1));
  v3 = v0.filter(gtInt64(5));
  v4 = v3.map(pairWithOne).reduceByKey(sumInt64);
  v5 = v1.reduceByKey(sumInt64);
  v6 = v2.map(strTag(7)).filter(strLenGt(2));
  i = (i + 1);
} while ((i < 3));
v7 = v2.map(strLen);
write(v0, "out_ints");
write(v4, "out_pairs");
write(v5, "out_strkeyed");
write(v6, "out_strs");
write(v7, "out_lens");
)";

struct Outcome {
  runtime::RunStats stats;
  std::map<std::string, DatumVector> files;
};

Outcome RunSource(const char* source, EngineKind engine, BackendKind backend,
                  bool columnar, obs::MetricsRegistry* metrics = nullptr) {
  auto program = lang::Parse(source);
  MITOS_CHECK(program.ok()) << program.status().ToString();
  sim::SimFileSystem fs;
  RunConfig config{.machines = 3};
  config.backend = backend;
  config.columnar = columnar;
  config.metrics = metrics;
  auto result = Run(engine, *program, &fs, config);
  MITOS_CHECK(result.ok()) << result.status().ToString();
  Outcome outcome;
  outcome.stats = result->stats;
  for (const std::string& name : fs.ListFiles()) {
    outcome.files[name] = *fs.Read(name);
  }
  return outcome;
}

Outcome RunMixed(BackendKind backend, bool columnar,
                 obs::MetricsRegistry* metrics = nullptr) {
  return RunSource(kMixedProgram, EngineKind::kMitos, backend, columnar,
                   metrics);
}

TEST(ColumnarPlaneTest, OnAndOffAreElementIdenticalOnDes) {
  Outcome on = RunMixed(BackendKind::kDes, true);
  Outcome off = RunMixed(BackendKind::kDes, false);
  // Exact file-by-file, order included: the plane changes representation,
  // never content or schedule.
  EXPECT_EQ(on.files, off.files);
  // Virtual time is representation-independent too: the cost model prices
  // bytes moved, not the in-memory encoding.
  EXPECT_EQ(on.stats.total_seconds, off.stats.total_seconds);
  EXPECT_EQ(on.stats.chunks, off.stats.chunks);
}

TEST(ColumnarPlaneTest, OnAndOffAreElementIdenticalOnThreads) {
  Outcome des = RunMixed(BackendKind::kDes, true);
  Outcome on = RunMixed(BackendKind::kThreads, true);
  Outcome off = RunMixed(BackendKind::kThreads, false);
  EXPECT_EQ(on.files, off.files);
  EXPECT_EQ(on.files, des.files);
}

TEST(ColumnarPlaneTest, MixedProgramUsesFastPathAndFallback) {
  Outcome on = RunMixed(BackendKind::kDes, true);
  EXPECT_GT(on.stats.chunks, 0);
  EXPECT_GT(on.stats.chunk_fallbacks, 0);  // string chunks ride boxed
  // The int-heavy majority must columnarize: fallbacks are a strict
  // minority of all chunks.
  EXPECT_LT(on.stats.chunk_fallbacks, on.stats.chunks);
}

TEST(ColumnarPlaneTest, ColumnarOffMakesEveryChunkFallback) {
  Outcome off = RunMixed(BackendKind::kDes, false);
  EXPECT_GT(off.stats.chunks, 0);
  EXPECT_EQ(off.stats.chunk_fallbacks, off.stats.chunks);
}

TEST(ColumnarPlaneTest, ChunkCountersReachMetricsAndProm) {
  obs::MetricsRegistry metrics;
  Outcome on = RunMixed(BackendKind::kDes, true, &metrics);
  EXPECT_EQ(metrics.counter("chunks"), on.stats.chunks);
  EXPECT_EQ(metrics.counter("chunk_fallback"), on.stats.chunk_fallbacks);

  const std::string prom =
      obs::live::ToPrometheusText(metrics, on.stats.total_seconds);
  EXPECT_NE(prom.find("mitos_chunks_total"), std::string::npos) << prom;
  EXPECT_NE(prom.find("mitos_chunk_fallback_total"), std::string::npos)
      << prom;
}

// int64 sums wrap in two's complement instead of overflowing (undefined
// behaviour), identically in the boxed fold, the eager typed fold, and the
// reference interpreter.
TEST(ColumnarPlaneTest, Int64SumOverflowWrapsOnEveryEngine) {
  constexpr char kOverflow[] = R"(
s = bagOf(9223372036854775807, 1).reduce(sumInt64);
k = bagOf((7, 9223372036854775807), (7, 1)).reduceByKey(sumInt64);
write(s, "sum");
write(k, "keyed");
)";
  const Datum kMin = Datum::Int64(INT64_MIN);
  const std::map<std::string, DatumVector> want = {
      {"keyed", {Datum::Pair(Datum::Int64(7), kMin)}}, {"sum", {kMin}}};
  EXPECT_EQ(RunSource(kOverflow, EngineKind::kReference, BackendKind::kDes,
                      true)
                .files,
            want);
  for (BackendKind backend : {BackendKind::kDes, BackendKind::kThreads}) {
    for (bool columnar : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << (backend == BackendKind::kThreads)
                   << " columnar=" << columnar);
      EXPECT_EQ(
          RunSource(kOverflow, EngineKind::kMitos, backend, columnar).files,
          want);
    }
  }
}

}  // namespace
}  // namespace mitos::api
