//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the bench schema validator and the noise-aware diff engine
/// behind `examples/benchdiff`: verdicts on synthetic baseline pairs
/// (exact counters, CI-gated times, wall-time immunity, stale baselines)
/// and a round-trip of the baseline file format.
///
//===----------------------------------------------------------------------===//

#include "obs/BenchDiff.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"
#include "obs/Sampling.h"

#include "gtest/gtest.h"

using namespace nascent;
using namespace nascent::obs;

namespace {

JsonValue parse(const std::string &Text) {
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(parseJson(Text, V, &Err)) << Err;
  return V;
}

/// A minimal schema-valid table-harness document with one run. Timing
/// medians are in seconds; the CI is [Median - Spread, Median + Spread].
std::string makeTableDoc(uint64_t DynChecks, uint64_t WordOps,
                         double CpuMedian, double Spread,
                         const char *GitSha = "abc123",
                         const char *Cpu = "test cpu") {
  JsonWriter W;
  W.beginObject();
  W.kv("schemaVersion", BenchSchemaVersion);
  W.kv("harness", "synthetic");
  W.key("env");
  W.beginObject();
  W.kv("compiler", "testcc 1.0");
  W.kv("buildType", "Release");
  W.kv("cxxFlags", "");
  W.kv("sanitize", "");
  W.kv("gitSha", GitSha);
  W.kv("cpu", Cpu);
  W.kv("hardwareThreads", 1);
  W.endObject();
  W.key("config");
  W.beginObject();
  W.kv("reps", 3);
  W.kv("warmup", 1);
  W.endObject();
  W.key("runs");
  W.beginArray();
  W.beginObject();
  W.kv("source", "PRX");
  W.kv("scheme", "LLS");
  W.key("run");
  W.beginObject();
  W.kv("program", "vortex");
  W.kv("dynChecks", DynChecks);
  W.kv("dynInstrs", 1000);
  W.kv("staticChecks", 12);
  W.key("stats");
  W.beginObject();
  W.endObject();
  W.key("timing");
  W.beginObject();
  for (const char *Clock :
       {"optimizeWall", "optimizeCpu", "totalWall", "totalCpu"}) {
    SampleStats S;
    S.N = 3;
    S.Median = S.Mean = CpuMedian;
    S.Min = S.CiLow = CpuMedian - Spread;
    S.Max = S.CiHigh = CpuMedian + Spread;
    S.MAD = Spread / 2;
    W.key(Clock);
    S.writeJson(W);
  }
  W.endObject();
  W.key("work");
  W.beginObject();
  W.kv("support.bitvector.word_ops", WordOps);
  W.endObject();
  W.endObject();
  W.endObject();
  W.endArray();
  W.endObject();
  return W.str();
}

const MetricDiff *findDiff(const BenchDiffResult &R, const std::string &Key) {
  for (const MetricDiff &D : R.Diffs)
    if (D.Key == Key)
      return &D;
  return nullptr;
}

TEST(BenchSchema, ValidatesSyntheticDocument) {
  std::string Err;
  EXPECT_TRUE(
      validateBenchDocument(parse(makeTableDoc(100, 50, 0.01, 0.001)), &Err))
      << Err;
}

TEST(BenchSchema, RejectsUnknownSchemaVersion) {
  std::string Doc = makeTableDoc(100, 50, 0.01, 0.001);
  size_t Pos = Doc.find("\"schemaVersion\":1");
  ASSERT_NE(Pos, std::string::npos);
  Doc.replace(Pos, 17, "\"schemaVersion\":99");
  std::string Err;
  EXPECT_FALSE(validateBenchDocument(parse(Doc), &Err));
  EXPECT_NE(Err.find("unknown schemaVersion"), std::string::npos) << Err;
}

TEST(BenchSchema, RejectsMissingRequiredFields) {
  std::string Err;
  EXPECT_FALSE(validateBenchDocument(parse("{}"), &Err));
  EXPECT_FALSE(validateBenchDocument(
      parse(R"({"schemaVersion":1,"harness":"x"})"), &Err));
  EXPECT_NE(Err.find("env"), std::string::npos) << Err;

  // A run element whose "run" object lost its counters must fail too.
  std::string Doc = makeTableDoc(100, 50, 0.01, 0.001);
  size_t Pos = Doc.find("\"dynChecks\"");
  ASSERT_NE(Pos, std::string::npos);
  Doc.replace(Pos, 11, "\"zzChecks\"");
  EXPECT_FALSE(validateBenchDocument(parse(Doc), &Err));
  EXPECT_NE(Err.find("dynChecks"), std::string::npos) << Err;
}

TEST(BenchDiff, ExtractsKeyedMetrics) {
  std::vector<BenchMetric> Ms =
      extractBenchMetrics(parse(makeTableDoc(100, 50, 0.01, 0.001)));
  auto Find = [&Ms](const std::string &Key) -> const BenchMetric * {
    for (const BenchMetric &M : Ms)
      if (M.Key == Key)
        return &M;
    return nullptr;
  };
  const BenchMetric *Checks = Find("PRX/LLS/vortex/dynChecks");
  ASSERT_NE(Checks, nullptr);
  EXPECT_EQ(Checks->Kind, MetricKind::ExactCount);
  EXPECT_DOUBLE_EQ(Checks->Value, 100);

  const BenchMetric *Work =
      Find("PRX/LLS/vortex/work.support.bitvector.word_ops");
  ASSERT_NE(Work, nullptr);
  EXPECT_EQ(Work->Kind, MetricKind::ExactCount);

  const BenchMetric *Cpu = Find("PRX/LLS/vortex/timing.optimizeCpu");
  ASSERT_NE(Cpu, nullptr);
  EXPECT_EQ(Cpu->Kind, MetricKind::TimeSeconds);
  EXPECT_DOUBLE_EQ(Cpu->Value, 0.01);

  const BenchMetric *Wall = Find("PRX/LLS/vortex/timing.optimizeWall");
  ASSERT_NE(Wall, nullptr);
  EXPECT_EQ(Wall->Kind, MetricKind::Informational);
}

TEST(BenchDiff, IdenticalDocumentsAreClean) {
  JsonValue Doc = parse(makeTableDoc(100, 50, 0.01, 0.001));
  BenchDiffResult R = diffBenchDocuments(Doc, Doc);
  EXPECT_FALSE(R.hasRegression());
  EXPECT_EQ(R.NumRegressed, 0u);
  EXPECT_EQ(R.NumMissing, 0u);
  EXPECT_EQ(R.NumImproved, 0u);
  EXPECT_TRUE(R.EnvDrift.empty());
}

TEST(BenchDiff, CounterIncreaseRegresses) {
  JsonValue Base = parse(makeTableDoc(100, 50, 0.01, 0.001));
  JsonValue Cur = parse(makeTableDoc(101, 51, 0.01, 0.001));
  BenchDiffResult R = diffBenchDocuments(Base, Cur);
  EXPECT_TRUE(R.hasRegression());
  EXPECT_EQ(R.NumRegressed, 2u); // dynChecks and the work counter
  const MetricDiff *D = findDiff(R, "PRX/LLS/vortex/dynChecks");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Verdict, DiffVerdict::Regressed);
}

TEST(BenchDiff, CounterDecreaseImproves) {
  JsonValue Base = parse(makeTableDoc(100, 50, 0.01, 0.001));
  JsonValue Cur = parse(makeTableDoc(90, 50, 0.01, 0.001));
  BenchDiffResult R = diffBenchDocuments(Base, Cur);
  EXPECT_FALSE(R.hasRegression());
  EXPECT_EQ(R.NumImproved, 1u);
}

TEST(BenchDiff, TimeWithinNoiseDoesNotGate) {
  // 20% slower but the CIs overlap: within noise.
  JsonValue Base = parse(makeTableDoc(100, 50, 0.010, 0.002));
  JsonValue Cur = parse(makeTableDoc(100, 50, 0.012, 0.002));
  BenchDiffResult R = diffBenchDocuments(Base, Cur);
  EXPECT_FALSE(R.hasRegression());
  const MetricDiff *D = findDiff(R, "PRX/LLS/vortex/timing.optimizeCpu");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Verdict, DiffVerdict::WithinNoise);
}

TEST(BenchDiff, TimeSeparatedRegresses) {
  // 2x slower with tight disjoint CIs: a real regression.
  JsonValue Base = parse(makeTableDoc(100, 50, 0.010, 0.0005));
  JsonValue Cur = parse(makeTableDoc(100, 50, 0.020, 0.0005));
  BenchDiffResult R = diffBenchDocuments(Base, Cur);
  EXPECT_TRUE(R.hasRegression());
  const MetricDiff *Cpu = findDiff(R, "PRX/LLS/vortex/timing.optimizeCpu");
  ASSERT_NE(Cpu, nullptr);
  EXPECT_EQ(Cpu->Verdict, DiffVerdict::Regressed);
  // Wall clocks never gate, even with the same 2x separation.
  const MetricDiff *Wall = findDiff(R, "PRX/LLS/vortex/timing.optimizeWall");
  ASSERT_NE(Wall, nullptr);
  EXPECT_EQ(Wall->Verdict, DiffVerdict::WithinNoise);
}

TEST(BenchDiff, TimeBelowFloorNeverGates) {
  // 10x slower, disjoint CIs, but the baseline is 10 us — below the
  // 100 us floor, where --tiny timings are pure scheduler noise.
  JsonValue Base = parse(makeTableDoc(100, 50, 1e-5, 1e-6));
  JsonValue Cur = parse(makeTableDoc(100, 50, 1e-4, 1e-6));
  BenchDiffResult R = diffBenchDocuments(Base, Cur);
  EXPECT_FALSE(R.hasRegression());
}

TEST(BenchDiff, TimeMarginIsConfigurable) {
  // 30% slower with disjoint CIs: gated under a 10% margin, not under
  // the default 50%.
  JsonValue Base = parse(makeTableDoc(100, 50, 0.010, 0.0002));
  JsonValue Cur = parse(makeTableDoc(100, 50, 0.013, 0.0002));
  EXPECT_FALSE(diffBenchDocuments(Base, Cur).hasRegression());
  BenchDiffOptions Tight;
  Tight.TimeMargin = 0.1;
  EXPECT_TRUE(diffBenchDocuments(Base, Cur, Tight).hasRegression());
}

TEST(BenchDiff, MissingMetricFailsGate) {
  JsonValue Base = parse(makeTableDoc(100, 50, 0.01, 0.001));
  std::string CurDoc = makeTableDoc(100, 50, 0.01, 0.001);
  // Drop the work counter from the current run.
  size_t Pos = CurDoc.find("\"support.bitvector.word_ops\":50");
  ASSERT_NE(Pos, std::string::npos);
  CurDoc.erase(Pos, 31);
  BenchDiffResult R = diffBenchDocuments(Base, parse(CurDoc));
  EXPECT_TRUE(R.hasRegression());
  EXPECT_EQ(R.NumMissing, 1u);
}

TEST(BenchDiff, NewMetricIsInformational) {
  std::string BaseDoc = makeTableDoc(100, 50, 0.01, 0.001);
  size_t Pos = BaseDoc.find("\"support.bitvector.word_ops\":50");
  ASSERT_NE(Pos, std::string::npos);
  BaseDoc.erase(Pos, 31);
  JsonValue Cur = parse(makeTableDoc(100, 50, 0.01, 0.001));
  BenchDiffResult R = diffBenchDocuments(parse(BaseDoc), Cur);
  EXPECT_FALSE(R.hasRegression());
  EXPECT_EQ(R.NumNew, 1u);
}

TEST(BenchDiff, EnvDriftIsReportedNotGated) {
  JsonValue Base = parse(makeTableDoc(100, 50, 0.01, 0.001, "oldsha"));
  JsonValue Cur = parse(makeTableDoc(100, 50, 0.01, 0.001, "newsha"));
  BenchDiffResult R = diffBenchDocuments(Base, Cur);
  EXPECT_FALSE(R.hasRegression());
  ASSERT_EQ(R.EnvDrift.size(), 1u);
  EXPECT_NE(R.EnvDrift[0].find("gitSha"), std::string::npos);
}

TEST(BenchDiff, HostDriftMakesTimesInformational) {
  // 3x slower with separated CIs would regress on the same host; measured
  // on another CPU it is informational, while counters keep gating.
  JsonValue Base = parse(makeTableDoc(100, 50, 0.010, 0.001));
  JsonValue Slow =
      parse(makeTableDoc(100, 50, 0.030, 0.001, "abc123", "other cpu"));
  BenchDiffResult R = diffBenchDocuments(Base, Slow);
  EXPECT_TRUE(R.HostDrift);
  EXPECT_FALSE(R.hasRegression());
  const MetricDiff *D = findDiff(R, "PRX/LLS/vortex/timing.optimizeCpu");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Verdict, DiffVerdict::WithinNoise);

  JsonValue MoreWork =
      parse(makeTableDoc(101, 50, 0.030, 0.001, "abc123", "other cpu"));
  EXPECT_TRUE(diffBenchDocuments(Base, MoreWork).hasRegression());

  EXPECT_TRUE(diffBenchDocuments(Base, parse(makeTableDoc(100, 50, 0.030,
                                                          0.001)))
                  .hasRegression());
}

TEST(BenchDiff, MarkdownReportNamesTheVerdict) {
  JsonValue Base = parse(makeTableDoc(100, 50, 0.01, 0.001));
  JsonValue Good = parse(makeTableDoc(100, 50, 0.01, 0.001));
  JsonValue Bad = parse(makeTableDoc(150, 50, 0.01, 0.001));

  std::string Ok = renderMarkdownReport(diffBenchDocuments(Base, Good),
                                        "BENCH_synthetic.json");
  EXPECT_NE(Ok.find("Verdict: ok"), std::string::npos) << Ok;

  std::string Fail = renderMarkdownReport(diffBenchDocuments(Base, Bad),
                                          "BENCH_synthetic.json");
  EXPECT_NE(Fail.find("**REGRESSION**"), std::string::npos) << Fail;
  EXPECT_NE(Fail.find("PRX/LLS/vortex/dynChecks"), std::string::npos) << Fail;
  EXPECT_NE(Fail.find("| 100 | 150 |"), std::string::npos) << Fail;
}

TEST(BenchDiff, BaselineFileFormatRoundTrips) {
  // Writing a document, re-parsing it, and extracting metrics must agree
  // with the metrics of the original parse — the property the on-disk
  // BENCH_*.json baselines rely on.
  std::string Doc = makeTableDoc(1234, 567, 0.0123, 0.0004);
  JsonValue First = parse(Doc);
  std::string Err;
  ASSERT_TRUE(validateBenchDocument(First, &Err)) << Err;

  std::vector<BenchMetric> A = extractBenchMetrics(First);
  std::vector<BenchMetric> B = extractBenchMetrics(parse(Doc));
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Key, B[I].Key);
    EXPECT_EQ(A[I].Kind, B[I].Kind);
    EXPECT_DOUBLE_EQ(A[I].Value, B[I].Value);
    EXPECT_DOUBLE_EQ(A[I].CiLow, B[I].CiLow);
    EXPECT_DOUBLE_EQ(A[I].CiHigh, B[I].CiHigh);
  }
  // And a diff of the document against itself is all-equal.
  BenchDiffResult R = diffBenchDocuments(First, First);
  EXPECT_EQ(R.NumEqual, R.Diffs.size());
}

TEST(BenchDiff, GoogleBenchmarkMediansAreExtracted) {
  JsonValue Doc = parse(R"({
    "schemaVersion": 1,
    "harness": "bench_micro",
    "googleBenchmark": {"benchmarks": [
      {"name": "BM_X/median", "run_name": "BM_X",
       "aggregate_name": "median", "time_unit": "ns",
       "real_time": 100.0, "cpu_time": 90.0},
      {"name": "BM_X", "run_name": "BM_X",
       "real_time": 105.0, "cpu_time": 95.0}
    ]}})");
  std::vector<BenchMetric> Ms = extractBenchMetrics(Doc);
  // Only the median aggregate contributes; the raw repetition is skipped.
  ASSERT_EQ(Ms.size(), 2u);
  EXPECT_EQ(Ms[0].Key, "BM_X/cpu_time");
  EXPECT_EQ(Ms[0].Kind, MetricKind::TimeSeconds);
  EXPECT_DOUBLE_EQ(Ms[0].Value, 90.0 * 1e-9);
  EXPECT_EQ(Ms[1].Key, "BM_X/real_time");
  EXPECT_EQ(Ms[1].Kind, MetricKind::Informational);
}

} // namespace
