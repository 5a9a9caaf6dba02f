// Tests for the fault-tolerance layer (DESIGN.md §10): checkpoint wire
// format, corruption rejection, atomic-commit fallback, deterministic
// fault injection, the divergence watchdog, and the headline guarantee —
// a run killed mid-training resumes to bitwise-identical RunMetrics at
// any thread width.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "autograd/var.h"
#include "common/check.h"
#include "common/fault.h"
#include "core/clfd.h"
#include "eval/experiment.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "recovery/checkpoint.h"
#include "recovery/fault_plan.h"
#include "recovery/run_checkpointer.h"
#include "recovery/watchdog.h"

namespace clfd {
namespace {

using recovery::ByteReader;
using recovery::ByteWriter;
using recovery::Checkpoint;
using recovery::CheckpointError;
using recovery::CheckpointStatus;

ClfdConfig TinyConfig() {
  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 12;
  config.hidden_dim = 12;
  config.batch_size = 24;
  config.aux_batch_size = 4;
  config.budget = {2, 30, 2};
  return config;
}

// Fresh scratch directory per test case.
std::string ScratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "clfd_recovery_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return dir;
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Get().GetCounter(name)->value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Raw writer used only to plant corrupted fixtures; product code must go
// through WriteFileAtomic instead.
void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CheckpointStatus DecodeStatus(const std::string& bytes) {
  try {
    Checkpoint::Decode(bytes);
  } catch (const CheckpointError& e) {
    return e.status();
  }
  ADD_FAILURE() << "Decode accepted defective input";
  return CheckpointStatus::kIoError;
}

// ---- Wire format ----

TEST(ByteCodecTest, RoundTripsEveryFieldType) {
  ByteWriter w;
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI32(-42);
  w.PutF32(1.5f);
  w.PutF64(-2.25);
  w.PutStr("hello");
  Matrix m(2, 3);
  for (int i = 0; i < 6; ++i) m[i] = static_cast<float>(i) * 0.5f;
  w.PutMatrix(m);
  w.PutInts({7, -1, 0, 5});
  std::string bytes = w.Take();

  ByteReader r(bytes);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI32(), -42);
  EXPECT_EQ(r.GetF32(), 1.5f);
  EXPECT_EQ(r.GetF64(), -2.25);
  EXPECT_EQ(r.GetStr(), "hello");
  Matrix back = r.GetMatrix();
  ASSERT_EQ(back.rows(), 2);
  ASSERT_EQ(back.cols(), 3);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(back[i], m[i]);
  EXPECT_EQ(r.GetInts(), (std::vector<int>{7, -1, 0, 5}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteCodecTest, ShortReadsThrowTruncatedNotUB) {
  ByteWriter w;
  w.PutStr("abc");
  std::string bytes = w.Take();
  // Cut mid-string: the length prefix promises more bytes than exist.
  std::string cut = bytes.substr(0, bytes.size() - 2);
  ByteReader r(cut);
  try {
    r.GetStr();
    FAIL() << "GetStr read past the end";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.status(), CheckpointStatus::kTruncated);
  }
  // A hostile length prefix must be rejected before allocation.
  ByteWriter hostile;
  hostile.PutU32(0x7FFFFFFFu);
  ByteReader r2(hostile.bytes());
  EXPECT_THROW(r2.GetStr(), CheckpointError);
}

TEST(ByteCodecTest, HostileMatrixHeadersRejected) {
  {
    ByteWriter w;  // negative dimensions
    w.PutI32(-1);
    w.PutI32(4);
    ByteReader r(w.bytes());
    EXPECT_THROW(r.GetMatrix(), CheckpointError);
  }
  {
    ByteWriter w;  // element count far beyond the payload
    w.PutI32(1 << 14);
    w.PutI32(1 << 14);
    w.PutF32(0.0f);
    ByteReader r(w.bytes());
    EXPECT_THROW(r.GetMatrix(), CheckpointError);
  }
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  Checkpoint ckpt;
  ckpt.SetSection("meta", "abc");
  ckpt.SetSection("params.encoder", std::string(1000, 'x'));
  ckpt.SetSection("empty", "");
  Checkpoint back = Checkpoint::Decode(ckpt.Encode());
  EXPECT_EQ(back.SectionNames(),
            (std::vector<std::string>{"empty", "meta", "params.encoder"}));
  EXPECT_EQ(back.Section("meta"), "abc");
  EXPECT_EQ(back.Section("params.encoder"), std::string(1000, 'x'));
  EXPECT_TRUE(back.HasSection("empty"));
  EXPECT_FALSE(back.HasSection("absent"));
  try {
    back.Section("absent");
    FAIL() << "missing section not detected";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.status(), CheckpointStatus::kMissingSection);
  }
}

// ---- Corruption matrix: every byte region of the container is hostile ----

TEST(CheckpointTest, CorruptionMatrixEveryRegionRejected) {
  Checkpoint ckpt;
  ckpt.SetSection("meta", "0123456789");
  ckpt.SetSection("rng.main", "engine-state-bytes");
  std::string good = ckpt.Encode();
  ASSERT_NO_THROW(Checkpoint::Decode(good));

  // Magic damage.
  std::string bad_magic = good;
  bad_magic[0] ^= 0x01;
  EXPECT_EQ(DecodeStatus(bad_magic), CheckpointStatus::kBadMagic);

  // Version bump (bytes 8..11 hold the u32 format version).
  std::string bad_version = good;
  bad_version[8] = static_cast<char>(Checkpoint::kFormatVersion + 1);
  EXPECT_EQ(DecodeStatus(bad_version), CheckpointStatus::kBadVersion);

  // Bit-flip every byte after the header. Almost all flips must surface a
  // typed CheckpointError (CRC mismatch or a violated structural bound).
  // The one benign case: a flip inside a section-name byte — names are not
  // CRC-covered, so the container still decodes, just with a mutated name;
  // a later RestoreRegistered then fails with kMissingSection. Assert that
  // any flip that decodes at all changed nothing but a name.
  for (size_t i = 16; i < good.size(); ++i) {
    std::string flipped = good;
    flipped[i] ^= 0x40;
    try {
      Checkpoint mutated = Checkpoint::Decode(flipped);
      EXPECT_EQ(mutated.SectionNames().size(), 2u) << "flip at byte " << i;
      EXPECT_TRUE(mutated.HasSection("meta") || mutated.HasSection("rng.main"))
          << "flip at byte " << i;
    } catch (const CheckpointError&) {
      // Typed rejection is the expected path.
    }
  }

  // Truncation at every prefix must throw a typed error, never crash.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(Checkpoint::Decode(good.substr(0, len)), CheckpointError)
        << "truncated to " << len << " bytes";
  }
}

// ---- Atomic commit + fallback ----

TEST(CheckpointFileTest, AtomicWriteKeepsPreviousSnapshot) {
  std::string dir = ScratchDir("atomic");
  recovery::EnsureDirs(dir);
  std::string path = dir + "/run.ckpt";

  Checkpoint first;
  first.SetSection("meta", "one");
  recovery::WriteFileAtomic(path, first.Encode());
  Checkpoint second;
  second.SetSection("meta", "two");
  recovery::WriteFileAtomic(path, second.Encode());

  EXPECT_EQ(recovery::LoadCheckpoint(path).Section("meta"), "two");
  EXPECT_EQ(recovery::LoadCheckpoint(path + ".prev").Section("meta"), "one");

  // Corrupt the primary: the loader falls back to the previous snapshot.
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] ^= 0xFF;
  WriteFileBytes(path, bytes);
  auto fallback = recovery::LoadCheckpointWithFallback(path);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->Section("meta"), "one");

  // Corrupt both: no checkpoint is recoverable.
  WriteFileBytes(path + ".prev", "garbage");
  EXPECT_FALSE(recovery::LoadCheckpointWithFallback(path).has_value());
}

TEST(CheckpointFileTest, MissingFileAndDirCreation) {
  std::string dir = ScratchDir("dirs");
  EXPECT_FALSE(
      recovery::LoadCheckpointWithFallback(dir + "/absent.ckpt").has_value());
  try {
    recovery::LoadCheckpoint(dir + "/absent.ckpt");
    FAIL() << "absent file loaded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.status(), CheckpointStatus::kIoError);
  }
  // EnsureDirs builds nested components and tolerates repetition.
  recovery::EnsureDirs(dir + "/a/b/c");
  recovery::EnsureDirs(dir + "/a/b/c");
  recovery::WriteFileAtomic(dir + "/a/b/c/x.ckpt", Checkpoint().Encode());
  EXPECT_NO_THROW(recovery::LoadCheckpoint(dir + "/a/b/c/x.ckpt"));
}

TEST(CheckpointFileTest, OnlyFilesThatExistCanFailToLoad) {
  const std::string dir = ScratchDir("load_failures");
  recovery::EnsureDirs(dir);
  const int64_t failures = CounterValue("recovery.ckpt.load_failures");
  // Neither the primary nor .prev exists: a fresh run, not a failure.
  EXPECT_FALSE(
      recovery::LoadCheckpointWithFallback(dir + "/absent.ckpt").has_value());
  EXPECT_EQ(CounterValue("recovery.ckpt.load_failures"), failures);
  // A corrupt primary with no .prev is one failure.
  WriteFileBytes(dir + "/corrupt.ckpt", "not a checkpoint");
  EXPECT_FALSE(
      recovery::LoadCheckpointWithFallback(dir + "/corrupt.ckpt").has_value());
  EXPECT_EQ(CounterValue("recovery.ckpt.load_failures"), failures + 1);
}

// ---- Fault plans ----

TEST(FaultPlanTest, ParsesAndFiresDeterministically) {
  recovery::FaultPlan plan("a.site@2;b.site@3+", 1);
  EXPECT_FALSE(plan.At("a.site"));
  EXPECT_TRUE(plan.At("a.site"));   // exactly the 2nd hit
  EXPECT_FALSE(plan.At("a.site"));  // not sticky
  EXPECT_FALSE(plan.At("b.site"));
  EXPECT_FALSE(plan.At("b.site"));
  EXPECT_TRUE(plan.At("b.site"));  // 3rd hit...
  EXPECT_TRUE(plan.At("b.site"));  // ...and every one after
  EXPECT_FALSE(plan.At("unknown.site"));
  EXPECT_EQ(plan.HitCount("a.site"), 3);
  EXPECT_EQ(plan.FiredCount("a.site"), 1);
  EXPECT_EQ(plan.FiredCount("b.site"), 2);
  EXPECT_FALSE(plan.Describe().empty());
}

TEST(FaultPlanTest, ProbabilisticTriggersAreSeedDeterministic) {
  recovery::FaultPlan a("x@p=0.5", 99);
  recovery::FaultPlan b("x@p=0.5", 99);
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    bool fa = a.At("x");
    EXPECT_EQ(fa, b.At("x")) << "hit " << i;
    fired += fa ? 1 : 0;
  }
  EXPECT_GT(fired, 50);
  EXPECT_LT(fired, 150);
}

TEST(FaultPlanTest, MalformedSpecsRejected) {
  for (const char* spec :
       {"nosep", "site@", "site@0", "site@-3", "site@p=", "site@p=1.5",
        "site@p=x", "@3", "site@2junk"}) {
    EXPECT_THROW(recovery::FaultPlan(spec, 1), std::invalid_argument) << spec;
  }
  // Empty entries between separators are tolerated; an empty spec is legal
  // and arms nothing.
  recovery::FaultPlan plan("a@1;;b@1", 1);
  EXPECT_TRUE(plan.At("a"));
  EXPECT_TRUE(plan.At("b"));
}

TEST(FaultPlanTest, ScopedInstallArmsAndDisarmsProbes) {
  EXPECT_FALSE(fault::Armed());
  EXPECT_FALSE(fault::At("arena.alloc"));
  {
    recovery::ScopedFaultPlan scoped("arena.alloc@1", 1);
    EXPECT_TRUE(fault::Armed());
    EXPECT_TRUE(fault::At("arena.alloc"));
    EXPECT_FALSE(fault::At("arena.alloc"));
  }
  EXPECT_FALSE(fault::Armed());
}

TEST(FaultPlanTest, CheckpointIoFaultLeavesSnapshotIntact) {
  std::string dir = ScratchDir("iofault");
  recovery::EnsureDirs(dir);
  std::string path = dir + "/run.ckpt";
  Checkpoint good;
  good.SetSection("meta", "good");
  recovery::WriteFileAtomic(path, good.Encode());

  recovery::ScopedFaultPlan scoped("ckpt.io@1", 1);
  Checkpoint next;
  next.SetSection("meta", "next");
  try {
    recovery::WriteFileAtomic(path, next.Encode());
    FAIL() << "injected IO fault did not fire";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.status(), CheckpointStatus::kIoError);
  }
  // The failed write never touched the durable snapshot.
  EXPECT_EQ(recovery::LoadCheckpoint(path).Section("meta"), "good");
  // The probe fires exactly once; the retry goes through.
  recovery::WriteFileAtomic(path, next.Encode());
  EXPECT_EQ(recovery::LoadCheckpoint(path).Section("meta"), "next");
}

// ---- Watchdog units ----

recovery::RecoveryOptions WatchdogOnly() {
  recovery::RecoveryOptions options;
  options.watchdog.enabled = true;
  return options;
}

TEST(WatchdogTest, SkippingGuardSkipsOrPropagates) {
  recovery::WatchdogReport report;
  // Attempt 2 of the ladder skips failing batches.
  recovery::RunCheckpointer skipper(WatchdogOnly(), "skip", /*attempt=*/2,
                                    &report);
  std::vector<ag::Var> params{ag::Param(Matrix(1, 1))};
  nn::Adam optimizer(params, 0.01f);

  float loss = 0.0f;
  EXPECT_TRUE(skipper.RunBatch(&optimizer, [] { return 1.0f; }, &loss));
  EXPECT_EQ(loss, 1.0f);
  // Recoverable batch failures are skipped when the policy allows it.
  EXPECT_FALSE(skipper.RunBatch(
      &optimizer,
      [] { return std::numeric_limits<float>::quiet_NaN(); }, &loss));
  EXPECT_FALSE(skipper.RunBatch(
      &optimizer,
      []() -> float { throw check::InvariantError("poisoned op"); }, &loss));
  EXPECT_FALSE(skipper.RunBatch(
      &optimizer, []() -> float { throw std::bad_alloc(); }, &loss));
  EXPECT_EQ(report.batches_skipped, 3);
  EXPECT_EQ(loss, 1.0f);  // skipped batches leave the loss untouched

  // With skipping off (attempt 1) the failure propagates to the run driver.
  recovery::RunCheckpointer strict(WatchdogOnly(), "strict", /*attempt=*/1,
                                   &report);
  EXPECT_THROW(
      strict.RunBatch(&optimizer, []() -> float { throw std::bad_alloc(); },
                      &loss),
      std::bad_alloc);
  EXPECT_THROW(
      strict.RunBatch(
          &optimizer,
          [] { return std::numeric_limits<float>::infinity(); }, &loss),
      recovery::DivergenceError);
  // A simulated crash is never a batch-level event, even when skipping.
  EXPECT_THROW(
      skipper.RunBatch(
          &optimizer,
          []() -> float { throw recovery::SimulatedCrash("x"); }, &loss),
      recovery::SimulatedCrash);
}

// The epoch sentinel: RunCheckpointer::EndEpoch for `phase` with no
// optimizer, no local state and no checkpoint dir.
void EndEpoch(recovery::RunCheckpointer* rc, int phase, int epoch,
              float loss) {
  rc->EndEpoch(phase, epoch, loss, nullptr, std::string());
}

TEST(WatchdogTest, EndEpochCatchesNaNAndSpike) {
  recovery::RecoveryOptions options = WatchdogOnly();
  options.watchdog.spike_factor = 10.0f;
  recovery::RunCheckpointer sentinel(options, "sentinel");
  const int pretrain = recovery::kPhasePretrain;
  const int detector = recovery::kPhaseDetector;
  EndEpoch(&sentinel, pretrain, 0, 1.0f);  // establishes the phase baseline
  EndEpoch(&sentinel, pretrain, 1, 5.0f);  // within 10x
  EXPECT_THROW(EndEpoch(&sentinel, pretrain, 2,
                        std::numeric_limits<float>::quiet_NaN()),
               recovery::DivergenceError);
  EXPECT_THROW(EndEpoch(&sentinel, pretrain, 3, 11.0f),
               recovery::DivergenceError);
  // Phases have independent baselines.
  EndEpoch(&sentinel, detector, 0, 100.0f);
  EXPECT_THROW(EndEpoch(&sentinel, detector, 1, 1001.0f),
               recovery::DivergenceError);
}

TEST(WatchdogTest, EpochOfOnlySkippedBatchesIsDivergence) {
  recovery::RecoveryOptions options = WatchdogOnly();
  options.watchdog.spike_factor = 10.0f;
  recovery::RunCheckpointer rc(options, "all_skipped", /*attempt=*/2);
  std::vector<ag::Var> params{ag::Param(Matrix(1, 1))};
  nn::Adam optimizer(params, 0.01f);
  const int pretrain = recovery::kPhasePretrain;
  float loss = 0.0f;
  auto nan_step = [] { return std::numeric_limits<float>::quiet_NaN(); };

  // Every batch the epoch ran was skipped: its mean loss of 0 measures
  // nothing, so the epoch is divergence and sets no baseline.
  EXPECT_FALSE(rc.RunBatch(&optimizer, nan_step, &loss));
  EXPECT_FALSE(rc.RunBatch(&optimizer, nan_step, &loss));
  EXPECT_THROW(EndEpoch(&rc, pretrain, 0, 0.0f), recovery::DivergenceError);
  // One healthy batch among skipped ones is a measurement and sets the
  // baseline; after a baseline of 0, a loss of 5 would be a spike.
  EXPECT_FALSE(rc.RunBatch(&optimizer, nan_step, &loss));
  EXPECT_TRUE(rc.RunBatch(&optimizer, [] { return 1.0f; }, &loss));
  EndEpoch(&rc, pretrain, 1, 1.0f);
  EXPECT_TRUE(rc.RunBatch(&optimizer, [] { return 5.0f; }, &loss));
  EndEpoch(&rc, pretrain, 2, 5.0f);
  // An epoch that ran no batch at all passes: SimCLR and SupCon drop
  // batches of fewer than 2 sessions.
  EndEpoch(&rc, recovery::kPhaseDetector, 0, 0.0f);
}

// ---- End-to-end: crash/resume and fault recovery ----

// A one-cell, one-seed sweep of CLFD. Its run stem, which names its
// checkpoint file, is "CLFD.100".
RunMetrics RunOne(const recovery::RecoveryOptions& options) {
  SplitSpec split{40, 6, 20, 4};
  std::vector<CellResult> results =
      RunSweep({{"CLFD", "CLFD", TinyConfig(), DatasetKind::kWiki, split,
                 NoiseSpec::Uniform(0.3)}},
               /*seeds=*/1, options);
  return results[0].seeds[0].run;
}

TEST(CrashResumeTest, KillAndResumeBitwiseIdenticalAtEveryWidth) {
  // The headline guarantee: crash at an epoch boundary, resume, and the
  // final metrics equal an uninterrupted run bit for bit — at widths 1/2/4.
  RunMetrics baseline = RunOne(recovery::RecoveryOptions{});

  for (int width : {1, 2, 4}) {
    parallel::SetGlobalThreads(width);
    std::string dir = ScratchDir("resume_w" + std::to_string(width));
    recovery::RecoveryOptions options;
    options.dir = dir;
    options.interval_epochs = 4;

    // Interrupted run: simulated crash at the 20th epoch boundary (mid
    // corrector phase; epochs since the last interval snapshot are lost).
    {
      recovery::ScopedFaultPlan crash("run.epoch@20", 1);
      EXPECT_THROW(RunOne(options), recovery::SimulatedCrash);
    }
    // Restart: resumes from <dir>/CLFD.100.ckpt and replays the rest.
    RunMetrics resumed = RunOne(options);
    parallel::SetGlobalThreads(0);

    EXPECT_EQ(resumed.f1, baseline.f1) << "width " << width;
    EXPECT_EQ(resumed.fpr, baseline.fpr) << "width " << width;
    EXPECT_EQ(resumed.auc, baseline.auc) << "width " << width;
  }
}

TEST(CrashResumeTest, ResumeRecapturesExecutionPlansBitwiseIdentical) {
  // Execution plans are derived state — never serialized into checkpoints —
  // so a resumed process starts with empty plan caches and re-captures from
  // its first step. Killing a run at an epoch boundary and resuming must
  // land on the same bits as an uninterrupted run, whose plans were
  // captured once at the start.
  RunMetrics baseline = RunOne(recovery::RecoveryOptions{});

  recovery::RecoveryOptions options;
  options.dir = ScratchDir("plan_resume");
  options.interval_epochs = 4;
  {
    recovery::ScopedFaultPlan crash("run.epoch@20", 1);
    EXPECT_THROW(RunOne(options), recovery::SimulatedCrash);
  }
  RunMetrics resumed = RunOne(options);
  EXPECT_EQ(resumed.f1, baseline.f1);
  EXPECT_EQ(resumed.fpr, baseline.fpr);
  EXPECT_EQ(resumed.auc, baseline.auc);
}

TEST(CrashResumeTest, CheckpointingItselfDoesNotChangeResults) {
  // Snapshot writes must be pure observers of training state.
  RunMetrics plain = RunOne(recovery::RecoveryOptions{});
  recovery::RecoveryOptions options;
  options.dir = ScratchDir("observer");
  options.interval_epochs = 1;  // snapshot after every epoch
  const int64_t failures = CounterValue("recovery.ckpt.load_failures");
  RunMetrics checkpointed = RunOne(options);
  // A fresh run into an empty dir finds nothing to load; nothing failed.
  EXPECT_EQ(CounterValue("recovery.ckpt.load_failures"), failures);
  EXPECT_EQ(plain.f1, checkpointed.f1);
  EXPECT_EQ(plain.fpr, checkpointed.fpr);
  EXPECT_EQ(plain.auc, checkpointed.auc);
}

TEST(CrashResumeTest, CompletedRunIsServedFromResultsStore) {
  recovery::RecoveryOptions options;
  options.dir = ScratchDir("results_store");
  RunMetrics first = RunOne(options);
  // The second invocation finds CLFD.100 in results.ckpt and skips
  // training; identical numbers come straight from the store.
  RunMetrics second = RunOne(options);
  EXPECT_EQ(first.f1, second.f1);
  EXPECT_EQ(first.fpr, second.fpr);
  EXPECT_EQ(first.auc, second.auc);
}

TEST(CrashResumeTest, CellsKeepTheirOwnRecoveryState) {
  // Two detector cells on one world and corrector cells at two noise specs
  // share one recovery dir. Each cell's runs are stored and checkpointed
  // under its own label, so a second pass serves every cell from the store
  // with that cell's own bits.
  const ClfdConfig config = TinyConfig();
  const SplitSpec wiki{60, 6, 30, 6};
  const SplitSpec cert{60, 8, 30, 6};
  const std::vector<SweepCell> cells = {
      {"CLDet", "CLDet", config, DatasetKind::kWiki, wiki,
       NoiseSpec::Uniform(0.3)},
      {"DeepLog", "DeepLog", config, DatasetKind::kWiki, wiki,
       NoiseSpec::Uniform(0.3)},
      {"LC eta=0.45", kLabelCorrector, config, DatasetKind::kCert, cert,
       NoiseSpec::Uniform(0.45)},
      {"LC eta10/eta01", kLabelCorrector, config, DatasetKind::kCert, cert,
       NoiseSpec::ClassDependent(0.3, 0.45)}};
  const std::vector<CellResult> plain = RunSweep(cells, 1);
  recovery::RecoveryOptions options;
  options.dir = ScratchDir("cells");
  const int64_t skipped = CounterValue("recovery.run.seeds_skipped");
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    const std::vector<CellResult> got = RunSweep(cells, 1, options);
    for (size_t c = 0; c < cells.size(); ++c) {
      SCOPED_TRACE(cells[c].label);
      const SeedResult& a = got[c].seeds[0];
      const SeedResult& b = plain[c].seeds[0];
      EXPECT_EQ(a.run.f1, b.run.f1);
      EXPECT_EQ(a.run.fpr, b.run.fpr);
      EXPECT_EQ(a.run.auc, b.run.auc);
      EXPECT_EQ(a.tpr, b.tpr);
      EXPECT_EQ(a.tnr, b.tnr);
    }
    EXPECT_EQ(CounterValue("recovery.run.seeds_skipped") - skipped,
              pass == 0 ? 0 : 4);
  }
}

TEST(CrashResumeTest, RepeatedCrashesStillConverge) {
  // Crash three separate times at advancing epochs; each restart resumes
  // from the latest snapshot and the final answer is still bitwise equal.
  RunMetrics baseline = RunOne(recovery::RecoveryOptions{});
  recovery::RecoveryOptions options;
  options.dir = ScratchDir("multi_crash");
  options.interval_epochs = 3;
  for (int crash_epoch : {5, 11, 17}) {
    recovery::ScopedFaultPlan crash(
        "run.epoch@" + std::to_string(crash_epoch), 1);
    EXPECT_THROW(RunOne(options), recovery::SimulatedCrash);
  }
  RunMetrics resumed = RunOne(options);
  EXPECT_EQ(resumed.f1, baseline.f1);
  EXPECT_EQ(resumed.fpr, baseline.fpr);
  EXPECT_EQ(resumed.auc, baseline.auc);
}

TEST(CrashResumeTest, CorruptSnapshotFallsBackToPrevious) {
  RunMetrics baseline = RunOne(recovery::RecoveryOptions{});
  recovery::RecoveryOptions options;
  options.dir = ScratchDir("corrupt_primary");
  options.interval_epochs = 3;
  {
    recovery::ScopedFaultPlan crash("run.epoch@20", 1);
    EXPECT_THROW(RunOne(options), recovery::SimulatedCrash);
  }
  // Flip a bit deep inside the primary snapshot (parameter payload, CRC
  // protected): resume must reject it typed — never half-restore — and
  // restart from the .prev snapshot, losing a few epochs but never
  // correctness.
  std::string path = options.dir + "/CLFD.100.ckpt";
  std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 3] ^= 0x10;
  WriteFileBytes(path, bytes);
  RunMetrics resumed = RunOne(options);
  EXPECT_EQ(resumed.f1, baseline.f1);
  EXPECT_EQ(resumed.fpr, baseline.fpr);
  EXPECT_EQ(resumed.auc, baseline.auc);
}

TEST(WatchdogE2ETest, RecoversFromInjectedAllocAndNaNFaults) {
  // An allocation failure and a NaN-poisoned op must not kill the run:
  // the failing attempt rolls back to the last snapshot and the retry
  // (with batch skipping) completes with sane metrics. The invariant
  // layer is enabled so the poisoned op is caught at the op boundary,
  // before the optimizer can apply a poisoned update.
  check::ScopedEnable checks;
  recovery::RecoveryOptions options;
  options.dir = ScratchDir("watchdog_faults");
  options.interval_epochs = 2;
  options.watchdog.enabled = true;
  recovery::ScopedFaultPlan faults("arena.alloc@300;op.nan@900", 7);
  RunMetrics m = RunOne(options);
  EXPECT_GE(m.auc, 0.0);
  EXPECT_LE(m.auc, 100.0);
  EXPECT_GE(m.f1, 0.0);
  EXPECT_LE(m.f1, 100.0);
}

TEST(WatchdogE2ETest, PersistentDivergenceAbortsWithReport) {
  // Sticky NaN poisoning from the first op: the attempt diverges, the
  // retry budget exhausts, and the run aborts with a structured report
  // instead of hanging or corrupting state.
  check::ScopedEnable checks;
  recovery::RecoveryOptions options;
  options.watchdog.enabled = true;
  options.watchdog.max_attempts = 1;
  recovery::ScopedFaultPlan faults("op.nan@1+", 7);
  const int64_t rollbacks = CounterValue("recovery.watchdog.rollbacks");
  try {
    RunOne(options);
    FAIL() << "persistent divergence did not abort";
  } catch (const recovery::WatchdogAbort& e) {
    EXPECT_TRUE(e.report().aborted);
    EXPECT_EQ(e.report().attempts, 1);
    // The one attempt failed and nothing followed it: no rollback.
    EXPECT_EQ(e.report().rollbacks, 0);
    EXPECT_EQ(CounterValue("recovery.watchdog.rollbacks") - rollbacks, 0);
    EXPECT_FALSE(e.report().last_error.empty());
    EXPECT_FALSE(e.report().Summary().empty());
  }
}

TEST(WatchdogE2ETest, AttemptsThatSkipEveryBatchAbort) {
  // Sticky NaN poisoning under the default ladder: attempts 2 and 3 skip
  // every batch they run, which is divergence, not a success — the run
  // aborts instead of returning an untrained model. The invariant layer is
  // off, as in a Release run, so the NaNs that scoring and encoding meet
  // outside the guarded batches do not stop the run by themselves.
  check::ScopedEnable checks(false);
  recovery::RecoveryOptions options;
  options.watchdog.enabled = true;
  recovery::ScopedFaultPlan faults("op.nan@1+", 7);
  const int64_t rollbacks = CounterValue("recovery.watchdog.rollbacks");
  try {
    RunOne(options);
    FAIL() << "a run that skipped every batch did not abort";
  } catch (const recovery::WatchdogAbort& e) {
    EXPECT_EQ(e.report().attempts, 3);
    EXPECT_GT(e.report().batches_skipped, 0);
    // Attempts 1 and 2 rolled back; attempt 3 aborted the run.
    EXPECT_EQ(e.report().rollbacks, 2);
    EXPECT_EQ(CounterValue("recovery.watchdog.rollbacks") - rollbacks, 2);
  }
}

TEST(WatchdogE2ETest, DivergedRunWithoutWatchdogThrows) {
  // Nothing retries a run without the watchdog, but its divergence still
  // ends it: sticky NaN poisoning makes the first epoch's mean loss NaN,
  // and the sweep throws instead of returning the metrics of an untrained
  // model. The invariant layer is off, as in a Release run, so the NaNs
  // reach the epoch sentinel.
  check::ScopedEnable checks(false);
  recovery::ScopedFaultPlan faults("op.nan@1+", 7);
  try {
    RunOne(recovery::RecoveryOptions{});
    FAIL() << "a diverged run returned metrics";
  } catch (const recovery::DivergenceError& e) {
    EXPECT_STREQ(e.what(), "pretrain epoch 0: non-finite epoch loss");
  }
}

TEST(WatchdogE2ETest, NoResumeRetriesResumeOnlyFromThisRunsSnapshots) {
  // With resume off, a snapshot left by an earlier process is never read,
  // but a watchdog retry still rolls back to the snapshots this run wrote.
  check::ScopedEnable checks;
  recovery::RecoveryOptions options;
  options.dir = ScratchDir("no_resume");
  options.interval_epochs = 1;
  options.resume = false;
  options.watchdog.enabled = true;
  {
    // The earlier process trained a wider model: reading its snapshot
    // would throw kShapeMismatch.
    ClfdConfig wider = TinyConfig();
    wider.hidden_dim += 4;
    LabelCorrector earlier(wider, 1);
    recovery::RunCheckpointer stale(options, "CLFD.100");
    earlier.RegisterState(&stale);
    stale.MarkTrainingComplete();
  }
  const obs::Counter* resumes =
      obs::MetricsRegistry::Get().GetCounter("recovery.run.resumes");
  const int64_t before = resumes->value();
  {
    // Attempt 1 fails before its first snapshot; attempt 2 starts afresh.
    recovery::ScopedFaultPlan fault("op.nan@1", 7);
    RunOne(options);
  }
  EXPECT_EQ(resumes->value(), before);
  {
    // Attempt 1 fails after its first snapshots; attempt 2 resumes.
    recovery::ScopedFaultPlan fault("op.nan@3000", 7);
    RunOne(options);
  }
  EXPECT_EQ(resumes->value(), before + 1);
}

// ---- Per-epoch reports ----

using SeriesPoints = std::vector<std::pair<double, double>>;

// The per-epoch loss series of CLFD's four phases, in phase order.
const char* const kPhaseLossSeries[] = {
    "corrector.simclr.loss", "corrector.classifier.loss",
    "detector.supcon.loss", "detector.classifier.loss"};

// Runs `run` and returns the points each phase's loss series gained
// meanwhile; the registry is process-wide, so only the deltas are this
// run's.
std::vector<SeriesPoints> AppendedLossPoints(
    const std::function<void()>& run) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  std::vector<size_t> before;
  for (const char* name : kPhaseLossSeries) {
    before.push_back(registry.GetSeries(name)->size());
  }
  run();
  std::vector<SeriesPoints> appended;
  for (size_t p = 0; p < before.size(); ++p) {
    const SeriesPoints points =
        registry.GetSeries(kPhaseLossSeries[p])->Points();
    appended.emplace_back(points.begin() + before[p], points.end());
  }
  return appended;
}

// Points [from, to) of `points`.
SeriesPoints Slice(const SeriesPoints& points, size_t from, size_t to) {
  return SeriesPoints(points.begin() + from, points.begin() + to);
}

TEST(PhaseLoopTest, EveryPhaseReportsEachEpochItRunsOnce) {
  const TrainingBudget budget = TinyConfig().budget;
  const size_t epochs[] = {static_cast<size_t>(budget.contrastive_epochs),
                           static_cast<size_t>(budget.classifier_epochs),
                           static_cast<size_t>(budget.contrastive_epochs),
                           static_cast<size_t>(budget.classifier_epochs)};

  // A plain run reports each budgeted epoch once, in order, with a finite
  // mean loss.
  const std::vector<SeriesPoints> plain =
      AppendedLossPoints([] { RunOne(recovery::RecoveryOptions{}); });
  for (size_t p = 0; p < plain.size(); ++p) {
    SCOPED_TRACE(kPhaseLossSeries[p]);
    ASSERT_EQ(plain[p].size(), epochs[p]);
    for (size_t e = 0; e < epochs[p]; ++e) {
      EXPECT_EQ(plain[p][e].first, static_cast<double>(e));
      EXPECT_TRUE(std::isfinite(plain[p][e].second)) << "epoch " << e;
    }
  }

  // A run snapshotted after every epoch reports the same epochs and bits.
  recovery::RecoveryOptions every_epoch;
  every_epoch.dir = ScratchDir("series_every_epoch");
  every_epoch.interval_epochs = 1;
  EXPECT_EQ(AppendedLossPoints([&] { RunOne(every_epoch); }), plain);

  // A crash at the 20th epoch end stops the corrector's classifier after
  // its epoch 17, and the newest snapshot (every 4 epochs) resumes it at
  // epoch 16. Each process reports exactly the epochs it runs, so epochs
  // 16 and 17 are reported by both, with the same bits.
  recovery::RecoveryOptions resumable;
  resumable.dir = ScratchDir("series_resume");
  resumable.interval_epochs = 4;
  const std::vector<SeriesPoints> crashed = AppendedLossPoints([&] {
    recovery::ScopedFaultPlan crash("run.epoch@20", 1);
    EXPECT_THROW(RunOne(resumable), recovery::SimulatedCrash);
  });
  EXPECT_EQ(crashed[0], plain[0]);
  EXPECT_EQ(crashed[1], Slice(plain[1], 0, 18));
  EXPECT_TRUE(crashed[2].empty());
  EXPECT_TRUE(crashed[3].empty());
  const std::vector<SeriesPoints> resumed =
      AppendedLossPoints([&] { RunOne(resumable); });
  EXPECT_TRUE(resumed[0].empty());
  EXPECT_EQ(resumed[1], Slice(plain[1], 16, epochs[1]));
  EXPECT_EQ(resumed[2], plain[2]);
  EXPECT_EQ(resumed[3], plain[3]);
}

// ---- RunCheckpointer state capture ----

TEST(RunCheckpointerTest, CompletedTrainingRestoresIdenticalModel) {
  // Train to completion under a checkpoint dir, then construct a fresh
  // model and "train" it against the same dir: every phase is skipped, all
  // state comes from the snapshot, and the two models score the test set
  // identically — i.e. the snapshot captures the complete model.
  SplitSpec split{40, 6, 20, 4};
  ClfdConfig config = TinyConfig();
  ExperimentContext context(DatasetKind::kWiki, split, NoiseSpec::Uniform(0.3),
                            config.emb_dim, 31);
  recovery::RecoveryOptions options;
  options.dir = ScratchDir("full_restore");

  ClfdModel trained(config, 31);
  {
    recovery::RunCheckpointer rc(options, "model");
    trained.TrainWithRecovery(context.train(), context.embeddings(), &rc);
  }
  ClfdModel restored(config, 31);
  {
    recovery::RunCheckpointer rc(options, "model");
    restored.TrainWithRecovery(context.train(), context.embeddings(), &rc);
  }
  std::vector<double> a = trained.Score(context.test());
  std::vector<double> b = restored.Score(context.test());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "score " << i;
}

TEST(RunCheckpointerTest, ShapeMismatchedSnapshotRejectedTyped) {
  // A snapshot from a differently-shaped model must be rejected with
  // kShapeMismatch before any state is overwritten.
  SplitSpec split{40, 6, 20, 4};
  ClfdConfig config = TinyConfig();
  ExperimentContext context(DatasetKind::kWiki, split, NoiseSpec::Uniform(0.3),
                            config.emb_dim, 31);
  recovery::RecoveryOptions options;
  options.dir = ScratchDir("shape_mismatch");
  {
    ClfdModel model(config, 31);
    recovery::RunCheckpointer rc(options, "model");
    model.TrainWithRecovery(context.train(), context.embeddings(), &rc);
  }
  ClfdConfig bigger = config;
  bigger.hidden_dim = config.hidden_dim + 4;
  ClfdModel other(bigger, 31);
  recovery::RunCheckpointer rc(options, "model");
  try {
    other.TrainWithRecovery(context.train(), context.embeddings(), &rc);
    FAIL() << "mismatched snapshot accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.status(), CheckpointStatus::kShapeMismatch);
  }
}

}  // namespace
}  // namespace clfd
