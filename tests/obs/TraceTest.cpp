//===----------------------------------------------------------------------===//
///
/// \file
/// The phase record: nesting depths and containment, which entries read
/// which clock, the depth-0 lookups and the summing wallOf, the Chrome
/// trace_event JSON shape (round-tripped through the bundled parser), and
/// the null-record no-op path.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace nascent;
using namespace nascent::obs;

namespace {

/// Burns a little CPU so a phase has nonzero durations.
void burn(int N) {
  volatile uint64_t X = 0;
  for (int I = 0; I != N; ++I)
    X = X + static_cast<uint64_t>(I);
}

} // namespace

TEST(Trace, NullSinkRecordsNothing) {
  PhaseTimings PT;
  {
    ScopedPhase S(nullptr, "no record is fine");
    ScopedPhase T(nullptr, "nested too");
  }
  EXPECT_TRUE(PT.Phases.empty());
  // A record with no scopes still answers every lookup.
  EXPECT_EQ(PT.find("phase"), nullptr);
  EXPECT_EQ(PT.wallOf("phase"), 0.0);
  EXPECT_EQ(PT.cpuOf("phase"), 0.0);
}

TEST(Trace, NestedScopes) {
  PhaseTimings PT;
  {
    ScopedPhase Outer(&PT, "outer");
    burn(10000);
    {
      ScopedPhase Inner(&PT, "inner");
      burn(10000);
    }
    burn(10000);
  }
  { ScopedPhase Next(&PT, "next"); }
  // Entries are appended as they open, so a parent precedes its children.
  ASSERT_EQ(PT.Phases.size(), 3u);
  const PhaseTiming &Outer = PT.Phases[0], &Inner = PT.Phases[1],
                    &Next = PT.Phases[2];
  EXPECT_EQ(Outer.Name, "outer");
  EXPECT_EQ(Inner.Name, "inner");
  EXPECT_EQ(Next.Name, "next");
  EXPECT_EQ(Outer.Depth, 0u);
  EXPECT_EQ(Inner.Depth, 1u);
  EXPECT_EQ(Next.Depth, 0u); // the depth returns once a scope closes
  // The parent span contains the child span.
  EXPECT_LE(Outer.WallStart, Inner.WallStart);
  EXPECT_GE(Outer.WallStart + Outer.WallSeconds,
            Inner.WallStart + Inner.WallSeconds);
  EXPECT_GE(Next.WallStart, Outer.WallStart + Outer.WallSeconds);
  // Only depth-0 entries read the CPU clock.
  EXPECT_GT(Outer.CpuSeconds, 0.0);
  EXPECT_EQ(Inner.CpuSeconds, 0.0);
}

TEST(Trace, JsonRoundTrip) {
  PhaseTimings PT;
  {
    ScopedPhase A(&PT, "alpha");
    { ScopedPhase B(&PT, "beta \"quoted\""); }
  }
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(mergedTraceJson({{&PT, ""}}), V, &Err)) << Err;
  const JsonValue *Events = V.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->Array.size(), 2u); // no label, no thread_name record
  for (const JsonValue &E : Events->Array) {
    EXPECT_EQ(E.get("ph")->String, "X"); // complete events
    EXPECT_EQ(E.get("cat")->String, "phase");
    ASSERT_NE(E.get("ts"), nullptr);
    ASSERT_NE(E.get("dur"), nullptr);
    EXPECT_EQ(E.get("pid")->Number, 1.0);
    EXPECT_EQ(E.get("tid")->Number, static_cast<double>(PT.Tid));
  }
  EXPECT_EQ(Events->Array[0].get("name")->String, "alpha");
  EXPECT_EQ(Events->Array[1].get("name")->String, "beta \"quoted\"");
  // Fractional microseconds keep the containment of the recorded spans.
  const JsonValue &A = Events->Array[0], &B = Events->Array[1];
  EXPECT_LE(A.get("ts")->Number, B.get("ts")->Number);
  EXPECT_GE(A.get("ts")->Number + A.get("dur")->Number,
            B.get("ts")->Number + B.get("dur")->Number);
}

TEST(Trace, WriteFile) {
  PhaseTimings PT;
  { ScopedPhase S(&PT, "span"); }
  std::string Path = testing::TempDir() + "nascent_trace_test.json";
  std::string Err;
  ASSERT_TRUE(writeMergedTraceFile({{&PT, ""}}, Path, &Err)) << Err;
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  JsonValue V;
  EXPECT_TRUE(parseJson(SS.str(), V));
  std::remove(Path.c_str());

  EXPECT_FALSE(writeMergedTraceFile({{&PT, ""}},
                                    "/nonexistent-dir/x/y/trace.json", &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Trace, ScopedPhaseRecordsBothClocks) {
  PhaseTimings PT;
  {
    ScopedPhase P(&PT, "work");
    burn(100000);
  }
  ASSERT_EQ(PT.Phases.size(), 1u);
  EXPECT_EQ(PT.Phases[0].Name, "work");
  EXPECT_GE(PT.Phases[0].WallStart, 0.0);
  EXPECT_GT(PT.Phases[0].WallSeconds, 0.0);
  EXPECT_GE(PT.Phases[0].CpuSeconds, 0.0);
  EXPECT_DOUBLE_EQ(PT.wallOf("work"), PT.Phases[0].WallSeconds);
  EXPECT_DOUBLE_EQ(PT.cpuOf("work"), PT.Phases[0].CpuSeconds);
  EXPECT_EQ(PT.find("absent"), nullptr);
  EXPECT_EQ(PT.wallOf("absent"), 0.0);
}

TEST(Trace, WallOfSumsRepeatedNames) {
  PhaseTimings PT;
  {
    ScopedPhase Outer(&PT, "outer");
    for (int I = 0; I != 3; ++I) {
      ScopedPhase S(&PT, "solve");
      burn(10000);
    }
  }
  ASSERT_EQ(PT.Phases.size(), 4u);
  double Sum = 0;
  for (const PhaseTiming &P : PT.Phases)
    if (P.Name == "solve")
      Sum += P.WallSeconds;
  EXPECT_GT(Sum, PT.Phases[1].WallSeconds);
  EXPECT_DOUBLE_EQ(PT.wallOf("solve"), Sum);
  // find and cpuOf answer for depth-0 phases only.
  EXPECT_EQ(PT.find("solve"), nullptr);
  EXPECT_EQ(PT.cpuOf("solve"), 0.0);
  EXPECT_EQ(PT.find("outer"), &PT.Phases[0]);
}

TEST(Trace, ProcessCpuClockAdvances) {
  double A = processCpuSeconds();
  burn(2000000);
  double B = processCpuSeconds();
  EXPECT_GE(B, A);
}

TEST(Trace, ContainmentRebuildsRecordDepths) {
  // A viewer knows only the JSON: it nests each span under the innermost
  // open span that contains it. On a real audited compile (whose CIG
  // builds and solves often take under a microsecond) that rebuild must
  // give every span its recorded depth, which needs the sub-microsecond
  // fractions: whole microseconds collapse short spans onto their
  // neighbours' boundaries.
  PipelineOptions Opts;
  Opts.Audit = true;
  Opts.Opt.Scheme = PlacementScheme::ALL;
  CompileResult R = compileSource(findSuiteProgram("linpackd")->Source, Opts);
  ASSERT_TRUE(R.Success);
  const std::vector<PhaseTiming> &Rec = R.Phases.Phases;
  ASSERT_GT(Rec.size(), 20u);

  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(mergedTraceJson({{&R.Phases, ""}}), V, &Err)) << Err;
  const JsonValue *Events = V.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->Array.size(), Rec.size());

  // Times back in whole nanoseconds: three decimals of a microsecond.
  auto Ns = [](const JsonValue &E, const char *Key) {
    return std::llround(E.get(Key)->Number * 1e3);
  };
  std::vector<std::pair<int64_t, int64_t>> Open; // [start, end] stack
  for (size_t I = 0; I != Rec.size(); ++I) {
    const JsonValue &E = Events->Array[I];
    ASSERT_EQ(E.get("name")->String, Rec[I].Name);
    int64_t Start = Ns(E, "ts"), End = Start + Ns(E, "dur");
    while (!Open.empty() &&
           !(Open.back().first <= Start && End <= Open.back().second))
      Open.pop_back();
    EXPECT_EQ(Open.size(), Rec[I].Depth) << I << " " << Rec[I].Name;
    Open.push_back({Start, End});
  }
}
