//===----------------------------------------------------------------------===//
///
/// \file
/// Batch-vs-serial equivalence: the BatchCompiler determinism contract
/// says a batch produces identical per-job results for every worker
/// count. For every placement scheme this compiles the audit matrix at
/// --jobs 1, 2, and 8 and asserts the optimizer stats, the audit
/// findings, and the per-job stat deltas are bit-identical to the serial
/// run. Runs under TSan via the check-threads label.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchCompiler.h"
#include "suite/Suite.h"

#include "gtest/gtest.h"

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace nascent;

namespace {

/// Everything about a job's outcome that must not depend on the worker
/// count, rendered to comparable strings.
struct JobFingerprint {
  bool Success;
  std::string Stats;
  bool AuditClean;
  std::string AuditReport;
  obs::StatSnapshot::FlatMap Work;

  bool operator==(const JobFingerprint &O) const = default;
};

std::vector<JobFingerprint> fingerprints(unsigned Jobs,
                                         const std::vector<BatchJob> &Batch) {
  std::vector<BatchJobResult> Results = BatchCompiler(Jobs).run(Batch);
  std::vector<JobFingerprint> Out;
  for (const BatchJobResult &R : Results) {
    std::ostringstream SS;
    R.Result.Stats.print(SS);
    Out.push_back({R.Result.Success, SS.str(), R.Result.Audit.clean(),
                   R.Result.Audit.render(), R.Work});
  }
  return Out;
}

std::vector<BatchJob> auditMatrix() {
  const PlacementScheme Schemes[] = {
      PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
  const ImplicationMode Modes[] = {ImplicationMode::All,
                                   ImplicationMode::CrossFamilyOnly,
                                   ImplicationMode::None};
  const SuiteProgram *P = findSuiteProgram("vortex");
  EXPECT_NE(P, nullptr);
  std::vector<BatchJob> Batch;
  for (PlacementScheme Scheme : Schemes) {
    for (ImplicationMode Mode : Modes) {
      PipelineOptions PO;
      PO.Opt.Scheme = Scheme;
      PO.Opt.Implications = Mode;
      PO.Audit = true;
      Batch.push_back({P->Source, PO});
    }
  }
  return Batch;
}

TEST(BatchCompiler, ParallelRunsMatchSerialForEveryScheme) {
  std::vector<BatchJob> Batch = auditMatrix();

  // Warmup so one-time lazy initialisation (dynamically interned
  // counters and the like) cannot appear as a first-run-only delta.
  fingerprints(1, Batch);

  std::vector<JobFingerprint> Serial = fingerprints(1, Batch);
  for (unsigned Jobs : {2u, 8u}) {
    std::vector<JobFingerprint> Parallel = fingerprints(Jobs, Batch);
    ASSERT_EQ(Parallel.size(), Serial.size());
    for (size_t I = 0; I != Serial.size(); ++I) {
      EXPECT_TRUE(Serial[I].Success) << "job " << I;
      EXPECT_EQ(Parallel[I].Success, Serial[I].Success)
          << "jobs=" << Jobs << " job " << I;
      EXPECT_EQ(Parallel[I].Stats, Serial[I].Stats)
          << "jobs=" << Jobs << " job " << I;
      EXPECT_EQ(Parallel[I].AuditClean, Serial[I].AuditClean)
          << "jobs=" << Jobs << " job " << I;
      EXPECT_EQ(Parallel[I].AuditReport, Serial[I].AuditReport)
          << "jobs=" << Jobs << " job " << I;
      EXPECT_EQ(Parallel[I].Work, Serial[I].Work)
          << "jobs=" << Jobs << " job " << I;
    }
  }
}

TEST(BatchCompiler, RegistryTotalsMatchSerialAfterParallelRun) {
  // The post-run registry view must also be exact: every worker is
  // joined (and its shard flushed) before run() returns, so the total
  // growth over a batch is the same for every worker count.
  std::vector<BatchJob> Batch = auditMatrix();
  fingerprints(1, Batch); // warmup

  auto RunDelta = [&Batch](unsigned Jobs) {
    obs::StatSnapshot Before = obs::StatRegistry::global().snapshot();
    BatchCompiler(Jobs).run(Batch);
    return obs::StatRegistry::global().snapshot().deltaFrom(Before);
  };
  obs::StatSnapshot::FlatMap Serial = RunDelta(1);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(RunDelta(2), Serial);
  EXPECT_EQ(RunDelta(8), Serial);
}

TEST(BatchCompiler, CompileErrorsAreReportedNotThrown) {
  std::vector<BatchJob> Batch(4, BatchJob{"not a ( valid program",
                                          PipelineOptions{}});
  for (unsigned Jobs : {1u, 2u}) {
    std::vector<BatchJobResult> Results = BatchCompiler(Jobs).run(Batch);
    ASSERT_EQ(Results.size(), Batch.size());
    for (const BatchJobResult &R : Results)
      EXPECT_FALSE(R.Result.Success);
  }
}

// Every depth-0 phase, "total" included, reads the compiling thread's CPU
// clock: a second thread burning CPU meanwhile (or the other worker) must
// not be charged to a compile. The process clock would charge both.
TEST(BatchCompiler, TotalCpuChargesOnlyTheCompilingThread) {
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  PipelineOptions PO;
  PO.Source = CheckSource::INX;
  PO.Opt.Scheme = PlacementScheme::ALL;
  PO.Audit = true;
  std::vector<BatchJob> Batch(8, BatchJob{P->Source, PO});

  std::atomic<bool> Started{false}, Stop{false};
  std::thread Spinner([&] {
    Started.store(true);
    volatile uint64_t X = 0;
    while (!Stop.load(std::memory_order_relaxed))
      X = X + 1;
  });
  while (!Started.load())
    std::this_thread::yield();
  std::vector<BatchJobResult> Results = BatchCompiler(2).run(Batch);
  Stop.store(true);
  Spinner.join();

  for (const BatchJobResult &BR : Results) {
    const CompileResult &R = BR.Result;
    ASSERT_TRUE(R.Success);
    double PhaseCpu = 0;
    for (const obs::PhaseTiming &Ph : R.Phases.Phases)
      if (Ph.Depth == 0 && Ph.Name != "total")
        PhaseCpu += Ph.CpuSeconds;
    // One thread cannot run longer than the wall clock it ran within.
    EXPECT_LE(R.totalCpuSeconds(), R.totalWallSeconds() + 1e-5);
    // The phases cover all but the bookkeeping between them.
    EXPECT_GE(R.totalCpuSeconds(), PhaseCpu - 1e-6);
    EXPECT_LE(R.totalCpuSeconds() - PhaseCpu, 0.25 * R.totalCpuSeconds());
  }
}

TEST(BatchCompiler, ZeroJobsClampsToSerial) {
  EXPECT_EQ(BatchCompiler(0).jobs(), 1u);
  EXPECT_GE(resolveJobCount(0), 1u);
  EXPECT_EQ(resolveJobCount(5), 5u);
}

} // namespace
