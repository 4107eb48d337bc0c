//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline-level telemetry: the per-phase timing breakdown (monotone
/// phase starts, both clocks populated, derived accessors, every scheme's
/// sub-phases and the auditor's stages nested under optimize and audit),
/// the Chrome trace of a full compile (>= 5 named phases, valid JSON) and
/// of two compiles merged onto one timeline, and the field-for-field JSON
/// coverage of OptimizerStats.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "obs/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

using namespace nascent;
using namespace nascent::test;

namespace {

const char *Program = R"(
program timing
  integer n, i
  real a(50)
  n = 40
  do i = 1, n
    a(i) = real(i) * 2.0
  end do
  print a(3)
end program
)";

} // namespace

TEST(PhaseTimings, MonotoneAndComplete) {
  CompileResult R = compileOrDie(Program);
  const std::vector<obs::PhaseTiming> &P = R.Phases.Phases;
  ASSERT_GE(P.size(), 6u); // parse, sema, lower, verify, optimize,
                           // verify-post, total

  // Phases are recorded in execution order; their start offsets are
  // monotone non-decreasing ("total" anchors at 0 and comes last).
  double PrevStart = 0;
  double MaxEnd = 0;
  for (const obs::PhaseTiming &Ph : P) {
    if (Ph.Name == "total")
      continue;
    EXPECT_GE(Ph.WallStart, PrevStart) << Ph.Name;
    EXPECT_GE(Ph.WallSeconds, 0.0) << Ph.Name;
    EXPECT_GE(Ph.CpuSeconds, 0.0) << Ph.Name;
    PrevStart = Ph.WallStart;
    MaxEnd = std::max(MaxEnd, Ph.WallStart + Ph.WallSeconds);
  }
  EXPECT_EQ(P.back().Name, "total");
  // The total phase spans every other phase on the shared wall clock.
  EXPECT_GE(R.totalWallSeconds(), MaxEnd);

  for (const char *Name :
       {"parse", "sema", "lower", "verify", "optimize", "verify-post"})
    EXPECT_NE(R.Phases.find(Name), nullptr) << Name;

  // Both clocks measured for both derived timings (satellite of the old
  // OptimizeSeconds-vs-TotalSeconds clock mix-up).
  EXPECT_GT(R.totalWallSeconds(), 0.0);
  EXPECT_GE(R.totalCpuSeconds(), 0.0);
  EXPECT_GT(R.optimizeWallSeconds(), 0.0);
  EXPECT_GE(R.optimizeCpuSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(R.optimizeWallSeconds(), R.Phases.wallOf("optimize"));
}

TEST(PhaseTimings, RecordedEvenOnFrontEndError) {
  CompileResult R = compileSource("program broken\n  this is not valid\n");
  EXPECT_FALSE(R.Success);
  ASSERT_NE(R.Phases.find("total"), nullptr);
  EXPECT_GT(R.totalWallSeconds(), 0.0);
}

TEST(PhaseTimings, AuditAndSnapshotPhasesAppear) {
  PipelineOptions PO;
  PO.Audit = true;
  CompileResult R = compileOrDie(Program, PO);
  EXPECT_NE(R.Phases.find("snapshot"), nullptr);
  EXPECT_NE(R.Phases.find("audit"), nullptr);
}

TEST(PhaseTimings, SubPhasesNestUnderEveryScheme) {
  // What each scheme's optimizer records beyond "fn <name>" and the
  // fold-consts step every scheme ends with.
  const std::pair<PlacementScheme, std::vector<const char *>> Expected[] = {
      {PlacementScheme::NI, {"cig-build", "eliminate", "solve-avail"}},
      {PlacementScheme::CS, {"cig-build", "strengthen", "eliminate"}},
      {PlacementScheme::LNI, {"cig-build", "lcm-place", "solve-antic"}},
      {PlacementScheme::SE, {"cig-build", "lcm-place", "solve-antic"}},
      {PlacementScheme::LI, {"cig-build", "preheader-insert", "eliminate"}},
      {PlacementScheme::LLS, {"cig-build", "preheader-insert", "eliminate"}},
      {PlacementScheme::ALL,
       {"cig-build", "preheader-insert", "lcm-place", "eliminate"}},
      {PlacementScheme::MCM, {"cig-build", "preheader-insert", "eliminate"}},
      {PlacementScheme::AI, {"interval-analysis"}},
  };
  for (const auto &[Scheme, Names] : Expected) {
    SCOPED_TRACE(placementSchemeName(Scheme));
    PipelineOptions PO; // no telemetry option: the record is always on
    PO.Opt.Scheme = Scheme;
    PO.Audit = true;
    CompileResult R = compileOrDie(Program, PO);
    const std::vector<obs::PhaseTiming> &P = R.Phases.Phases;

    // Each nested entry lies inside its parent (the latest entry one level
    // up before it) by start and duration; Root maps it to its depth-0
    // ancestor and Stage to its depth-1 one.
    std::map<std::string, std::set<std::string>> Root, Stage;
    std::vector<size_t> Open;
    for (size_t I = 0; I != P.size(); ++I) {
      Open.resize(P[I].Depth);
      if (P[I].Depth) {
        ASSERT_EQ(Open.size(), P[I].Depth) << P[I].Name;
        const obs::PhaseTiming &Parent = P[Open.back()];
        EXPECT_GE(P[I].WallStart, Parent.WallStart) << P[I].Name;
        EXPECT_LE(P[I].WallStart + P[I].WallSeconds,
                  Parent.WallStart + Parent.WallSeconds + 1e-9)
            << P[I].Name;
        EXPECT_EQ(P[I].CpuSeconds, 0.0) << P[I].Name;
        Root[P[I].Name].insert(P[Open.front()].Name);
        Stage[P[I].Name].insert(P[Open.size() > 1 ? Open[1] : I].Name);
      }
      Open.push_back(I);
    }

    EXPECT_EQ(Root["fn timing"], std::set<std::string>{"optimize"});
    EXPECT_EQ(Root["fold-consts"], std::set<std::string>{"optimize"});
    for (const char *Name : Names)
      EXPECT_TRUE(Root[Name].count("optimize")) << Name;
    for (const char *Name : {"original-analyses", "direction-a", "direction-b"})
      EXPECT_EQ(Root[Name], std::set<std::string>{"audit"}) << Name;
    // The auditor's check contexts record into the same sink.
    EXPECT_TRUE(Stage["cig-build"].count("original-analyses"));
    EXPECT_TRUE(Stage["solve-avail"].count("direction-b"));
  }
}

TEST(PipelineTrace, FullCompileTraceRoundTrips) {
  CompileResult R = compileOrDie(Program);

  obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(obs::parseJson(obs::mergedTraceJson({{&R.Phases, ""}}), V, &Err))
      << Err;
  const obs::JsonValue *Events = V.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  std::set<std::string> Names;
  for (const obs::JsonValue &E : Events->Array)
    Names.insert(E.get("name")->String);
  // The acceptance bar: at least five named pipeline phases, plus the
  // optimizer's own sub-phases.
  for (const char *Phase : {"parse", "sema", "lower", "verify", "optimize"})
    EXPECT_TRUE(Names.count(Phase)) << Phase;
  EXPECT_TRUE(Names.count("cig-build"));
  EXPECT_TRUE(Names.count("solve-avail"));
  EXPECT_TRUE(Names.count("eliminate"));
  EXPECT_GE(Names.size(), 5u);
}

TEST(PipelineTrace, TracePathWritesFile) {
  std::string Path = testing::TempDir() + "nascent_pipeline_trace.json";
  PipelineOptions PO;
  PO.Telemetry.TracePath = Path;
  CompileResult R = compileOrDie(Program, PO);
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  obs::JsonValue V;
  EXPECT_TRUE(obs::parseJson(SS.str(), V));
  std::remove(Path.c_str());
}

// The sweep --jobs merge: each compile's spans land on the lane of the
// thread that ran it, and all lanes share the earliest record's origin.
TEST(PipelineTrace, MergedLanesShareOneOrigin) {
  CompileResult First, Second;
  std::thread([&] { First = compileOrDie(Program); }).join();
  std::thread([&] { Second = compileOrDie(Program); }).join();
  ASSERT_NE(First.Phases.Tid, Second.Phases.Tid);

  std::string Path = testing::TempDir() + "nascent_merged_trace.json";
  std::string Err;
  ASSERT_TRUE(obs::writeMergedTraceFile({{&First.Phases, "worker a"},
                                         {&Second.Phases, "worker b"}},
                                        Path, &Err))
      << Err;
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::remove(Path.c_str());
  obs::JsonValue V;
  ASSERT_TRUE(obs::parseJson(SS.str(), V, &Err)) << Err;
  const obs::JsonValue *Events = V.get("traceEvents");
  ASSERT_NE(Events, nullptr);

  std::map<double, std::string> LaneNames;
  std::map<double, size_t> Spans;
  double FirstEnd = 0, SecondStart = 1e300;
  for (const obs::JsonValue &E : Events->Array) {
    double Tid = E.get("tid")->Number;
    if (E.get("ph")->String == "M") {
      EXPECT_EQ(E.get("name")->String, "thread_name");
      LaneNames[Tid] = E.get("args")->get("name")->String;
      continue;
    }
    ++Spans[Tid];
    double Ts = E.get("ts")->Number, Dur = E.get("dur")->Number;
    if (Tid == First.Phases.Tid)
      FirstEnd = std::max(FirstEnd, Ts + Dur);
    else
      SecondStart = std::min(SecondStart, Ts);
  }
  EXPECT_EQ(LaneNames[First.Phases.Tid], "worker a");
  EXPECT_EQ(LaneNames[Second.Phases.Tid], "worker b");
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans[First.Phases.Tid], First.Phases.Phases.size());
  EXPECT_EQ(Spans[Second.Phases.Tid], Second.Phases.Phases.size());
  // The second compile began after the first ended, and one timeline
  // shows that.
  EXPECT_GE(SecondStart, FirstEnd);
}

TEST(OptimizerStatsJson, FieldForFieldCoverage) {
  OptimizerStats S;
  // Give every field a distinct value via the X-macro...
  unsigned Seed = 1;
#define NASCENT_X(F) S.F = Seed++;
  NASCENT_OPTIMIZER_STATS_FIELDS(NASCENT_X)
#undef NASCENT_X

  obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(obs::parseJson(S.toJson(), V, &Err)) << Err;
  ASSERT_TRUE(V.isObject());

  // ...and assert the JSON carries exactly those fields with those values.
  unsigned Expect = 1;
  size_t NumFields = 0;
#define NASCENT_X(F)                                                           \
  {                                                                            \
    const obs::JsonValue *P = V.get(#F);                                       \
    ASSERT_NE(P, nullptr) << #F;                                               \
    EXPECT_EQ(P->Number, static_cast<double>(Expect)) << #F;                   \
    ++Expect;                                                                  \
    ++NumFields;                                                               \
  }
  NASCENT_OPTIMIZER_STATS_FIELDS(NASCENT_X)
#undef NASCENT_X
  EXPECT_EQ(V.Object.size(), NumFields);
}

TEST(OptimizerStatsJson, PrintCoversEveryField) {
  OptimizerStats S;
  std::ostringstream OS;
  S.print(OS);
  std::string Text = OS.str();
#define NASCENT_X(F) EXPECT_NE(Text.find(#F), std::string::npos) << #F;
  NASCENT_OPTIMIZER_STATS_FIELDS(NASCENT_X)
#undef NASCENT_X
}
