// Equivalence of the checkpoint chain (docs/INTERNALS.md §13): base+delta
// chains kept in memory or on disk, and the on-disk spill tier, must all
// recover a faulted run to the exact result set of the failure-free run —
// across batch sizes, delta cadences, and kills landing mid-checkpoint. The joiner-level suites additionally check that a chain
// of FreezeBase + FreezeDelta blobs composes to a byte-identical snapshot.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle_joiner.h"
#include "core/join_topology.h"
#include "core/record_joiner.h"
#include "core/two_stream_joiner.h"
#include "store/format.h"
#include "workload/generator.h"

namespace dssj {
namespace {

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

std::vector<RecordPtr> MakeStream(uint64_t seed, size_t n) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 400;
  options.zipf_skew = 0.6;
  options.length = LengthModel::Uniform(1, 24);
  options.duplicate_fraction = 0.4;
  options.mutation_rate = 0.12;
  options.dup_locality = 200;
  options.timestamp_step_us = 1000;
  return WorkloadGenerator(options).Generate(n);
}

class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string tmpl = ::testing::TempDir() + "dssj_ckpt_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : tmpl;
  }
  ~ScopedTempDir() { store::RemoveTree(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Joiner-level: base + delta chain composes byte-identically ----------

std::string EncodeNow(store::FrozenBlob blob) {
  std::string out;
  blob.encode(&out);
  return out;
}

/// Drives `live` and a chain-restored replica through the same stream and
/// asserts the replica's full snapshot is byte-identical at every freeze.
template <typename Feed>
void CheckDeltaChain(RecordJoiner& live, RecordJoiner& replica,
                     const std::vector<RecordPtr>& stream, const Feed& feed) {
  constexpr size_t kInterval = 37;
  std::string base;
  std::vector<std::string> deltas;
  size_t fed = 0;
  bool based = false;
  for (const RecordPtr& r : stream) {
    feed(live, r);
    if (++fed % kInterval != 0) continue;
    if (!based) {
      store::FrozenBlob fb = live.FreezeBase();
      EXPECT_FALSE(fb.is_delta);
      base = EncodeNow(std::move(fb));
      based = true;
    } else {
      store::FrozenBlob fb = live.FreezeDelta();
      EXPECT_TRUE(fb.is_delta);
      deltas.push_back(EncodeNow(std::move(fb)));
    }
    // Compose base + deltas into the replica and compare full images.
    replica.Restore(base);
    for (const std::string& d : deltas) replica.RestoreDelta(d);
    std::string live_img;
    std::string replica_img;
    live.Snapshot(&live_img);
    replica.Snapshot(&replica_img);
    ASSERT_EQ(live_img, replica_img) << "chain diverged after " << fed << " records ("
                                     << deltas.size() << " deltas)";
  }
  ASSERT_TRUE(based) << "stream too short to freeze anything";
  ASSERT_FALSE(deltas.empty()) << "stream too short to exercise deltas";
}

TEST(JoinerDeltaChain, RecordJoinerComposesExactly) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const WindowSpec window = WindowSpec::ByCount(120);  // pops exercise the FIFO delta
  RecordJoinerOptions opts;
  RecordJoiner live(sim, window, opts);
  RecordJoiner replica(sim, window, opts);
  const auto stream = MakeStream(99, 400);
  CheckDeltaChain(live, replica, stream, [](RecordJoiner& j, const RecordPtr& r) {
    j.Process(r, /*store=*/true, /*probe=*/true, [](const ResultPair&) {});
  });
}

// BundleJoiner state lives in unordered maps, so two semantically equal
// instances serialize in different byte orders — the oracle here is
// behavioral: the chain-restored replica must emit exactly what a clone of
// the live joiner emits on an identical continuation, with equal counts.
TEST(JoinerDeltaChain, BundleJoinerComposesExactly) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const WindowSpec window = WindowSpec::ByCount(120);
  BundleJoinerOptions opts;
  BundleJoiner live(sim, window, opts);
  constexpr size_t kInterval = 37;
  constexpr size_t kContinuation = 60;
  std::string base;
  std::vector<std::string> deltas;
  const auto stream = MakeStream(7, 500);
  size_t fed = 0;
  bool based = false;
  for (const RecordPtr& r : stream) {
    live.Process(r, true, true, [](const ResultPair&) {});
    if (++fed % kInterval != 0 || fed + kContinuation > stream.size()) continue;
    if (!based) {
      base = EncodeNow(live.FreezeBase());
      based = true;
    } else {
      store::FrozenBlob fb = live.FreezeDelta();
      EXPECT_TRUE(fb.is_delta);
      deltas.push_back(EncodeNow(std::move(fb)));
    }
    BundleJoiner replica(sim, window, opts);
    replica.Restore(base);
    for (const std::string& d : deltas) replica.RestoreDelta(d);
    std::string live_img;
    live.Snapshot(&live_img);
    BundleJoiner clone(sim, window, opts);
    clone.Restore(live_img);
    // Not MemoryBytes: that measures vector capacity, which differs
    // between exact-reserve (full restore) and push_back growth (delta).
    ASSERT_EQ(replica.BundleCount(), clone.BundleCount()) << "after " << fed;
    std::vector<ResultPair> from_replica;
    std::vector<ResultPair> from_clone;
    for (size_t i = fed; i < fed + kContinuation; ++i) {
      replica.Process(stream[i], true, true,
                      [&](const ResultPair& p) { from_replica.push_back(p); });
      clone.Process(stream[i], true, true,
                    [&](const ResultPair& p) { from_clone.push_back(p); });
    }
    ASSERT_EQ(Canonical(from_replica), Canonical(from_clone))
        << "bundle chain diverged after " << fed << " (" << deltas.size() << " deltas)";
  }
  ASSERT_FALSE(deltas.empty());
}

TEST(JoinerDeltaChain, TwoStreamJoinerComposesExactly) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  TwoStreamJoiner live(sim, WindowSpec::ByCount(80), WindowSpec::ByCount(80));
  TwoStreamJoiner replica(sim, WindowSpec::ByCount(80), WindowSpec::ByCount(80));
  constexpr size_t kInterval = 41;
  std::string base;
  std::vector<std::string> deltas;
  size_t fed = 0;
  bool based = false;
  for (const RecordPtr& r : MakeStream(13, 400)) {
    const auto side = fed % 2 == 0 ? TwoStreamJoiner::Side::kR : TwoStreamJoiner::Side::kS;
    live.Process(side, r, [](const TwoStreamJoiner::RsPair&) {});
    if (++fed % kInterval != 0) continue;
    if (!based) {
      store::FrozenBlob fb = live.FreezeBase();
      EXPECT_FALSE(fb.is_delta);
      base = EncodeNow(std::move(fb));
      based = true;
    } else {
      store::FrozenBlob fb = live.FreezeDelta();
      EXPECT_TRUE(fb.is_delta);
      deltas.push_back(EncodeNow(std::move(fb)));
    }
    replica.Restore(base);
    for (const std::string& d : deltas) replica.RestoreDelta(d);
    std::string live_img;
    std::string replica_img;
    live.Snapshot(&live_img);
    replica.Snapshot(&replica_img);
    ASSERT_EQ(live_img, replica_img) << "two-stream chain diverged after " << fed;
  }
  ASSERT_FALSE(deltas.empty());
}

/// The frozen view must be immune to mutation after the freeze: encode
/// after feeding more records and compare against encoding immediately.
TEST(JoinerDeltaChain, FrozenViewIsImmutableUnderConcurrentMutation) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  RecordJoiner a(sim, WindowSpec::ByCount(100), {});
  RecordJoiner b(sim, WindowSpec::ByCount(100), {});
  const auto stream = MakeStream(21, 300);
  for (size_t i = 0; i < 200; ++i) {
    a.Process(stream[i], true, true, [](const ResultPair&) {});
    b.Process(stream[i], true, true, [](const ResultPair&) {});
  }
  store::FrozenBlob fa = a.FreezeBase();
  const std::string eager = EncodeNow(b.FreezeBase());  // reference encoding
  for (size_t i = 200; i < stream.size(); ++i) {
    a.Process(stream[i], true, true, [](const ResultPair&) {});
  }
  EXPECT_EQ(EncodeNow(std::move(fa)), eager)
      << "frozen view changed under post-freeze mutation";
}

// --- Topology-level: the checkpoint chain in memory and on disk --------

/// One clean unsupervised run is the oracle; the supervised runs built on
/// `options_` must reproduce it.
class StoreHarness : public ::testing::Test {
 protected:
  StoreHarness() {
    stream_ = MakeStream(417, 900);
    options_.sim = SimilaritySpec(SimilarityFunction::kJaccard, 750);
    options_.num_joiners = 3;
    options_.collect_results = true;
    options_.length_partition = PlanLengthPartition(stream_, options_.sim, options_.num_joiners,
                                                    PartitionMethod::kLoadAwareGreedy);
    options_.supervision.initial_backoff_micros = 50;
    options_.supervision.max_restarts = 16;
    options_.supervision.max_backoff_micros = 1000;
    options_.supervision.checkpoint_interval = 64;
  }

  DistributedJoinResult RunClean() {
    DistributedJoinOptions clean = options_;
    clean.supervise = false;
    clean.fault_script.clear();
    clean.store_dir.clear();
    clean.spill_watermark = 0.0;
    clean.max_index_bytes = 0;
    DistributedJoinResult result = RunDistributedJoin(stream_, clean);
    EXPECT_TRUE(result.ok);
    return result;
  }

  std::vector<RecordPtr> stream_;
  DistributedJoinOptions options_;
};

enum class Backend { kMemory, kDisk };

/// Every kill schedule, batch size and delta cadence must recover exactly
/// with the chain in memory (no store_dir) and on disk. An in-memory run
/// must not touch the filesystem: TMPDIR points at an empty directory for
/// its duration and must still be empty afterwards.
class StoreEquivalence : public StoreHarness, public ::testing::WithParamInterface<Backend> {
 protected:
  /// Fresh store root per call on disk; none in memory.
  void UseBackend() {
    tmp_ = std::make_unique<ScopedTempDir>();
    options_.store_dir = GetParam() == Backend::kDisk ? tmp_->path() : std::string();
  }

  DistributedJoinResult RunSupervised(const std::string& fault_script) {
    UseBackend();
    DistributedJoinOptions cfg = options_;
    cfg.supervise = true;
    cfg.fault_script = fault_script;
    if (GetParam() == Backend::kDisk) return RunDistributedJoin(stream_, cfg);
    const char* old = std::getenv("TMPDIR");
    const std::string saved = old != nullptr ? old : "";
    setenv("TMPDIR", tmp_->path().c_str(), 1);
    DistributedJoinResult got = RunDistributedJoin(stream_, cfg);
    if (old != nullptr) {
      setenv("TMPDIR", saved.c_str(), 1);
    } else {
      unsetenv("TMPDIR");
    }
    EXPECT_TRUE(std::filesystem::is_empty(tmp_->path()))
        << "an in-memory checkpoint chain wrote under TMPDIR";
    return got;
  }

  void ExpectMatchesClean(const std::string& fault_script, bool expect_restarts) {
    const DistributedJoinResult clean = RunClean();
    const DistributedJoinResult got = RunSupervised(fault_script);
    ASSERT_TRUE(got.ok) << got.failure_message;
    if (expect_restarts) {
      EXPECT_GT(got.restarts, 0u);
    }
    EXPECT_EQ(got.result_count, clean.result_count);
    const auto expect = Canonical(clean.pairs);
    const auto actual = Canonical(got.pairs);
    ASSERT_EQ(actual.size(), expect.size());
    EXPECT_EQ(actual, expect) << "recovered result set diverged";
    ASSERT_GT(expect.size(), 0u) << "vacuous test stream";
  }

  std::unique_ptr<ScopedTempDir> tmp_;
};

INSTANTIATE_TEST_SUITE_P(Backends, StoreEquivalence,
                         ::testing::Values(Backend::kMemory, Backend::kDisk),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kDisk ? "Disk" : "Memory";
                         });

TEST_P(StoreEquivalence, DeltaChainMatchesCleanAcrossBatchSizes) {
  for (const size_t batch : {size_t{1}, size_t{7}, size_t{32}}) {
    options_.delta_base_interval = 4;
    options_.batch_size = batch;
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ExpectMatchesClean("kill:joiner:1@150; kill:joiner:2@600", /*expect_restarts=*/true);
  }
}

TEST_P(StoreEquivalence, EveryCadenceMatchesClean) {
  // interval 1 = every checkpoint a base; 0 = never compact (all deltas
  // after the seed base); 4 = mixed.
  for (const uint32_t interval : {0u, 1u, 4u}) {
    options_.delta_base_interval = interval;
    SCOPED_TRACE("delta_base_interval=" + std::to_string(interval));
    ExpectMatchesClean("kill:joiner:0@300", /*expect_restarts=*/true);
  }
}

TEST_P(StoreEquivalence, KillLandingMidCheckpointWindow) {
  // Checkpoint boundaries land every 64 executed tuples per task; kills at
  // boundary-straddling counts catch a task between freeze and durable
  // confirm (the race the log-truncation rule must win).
  options_.delta_base_interval = 2;
  ExpectMatchesClean("kill:joiner:0@64; kill:joiner:1@65; kill:joiner:2@129",
                     /*expect_restarts=*/true);
}

TEST_P(StoreEquivalence, RepeatedKillsOfOneTask) {
  options_.delta_base_interval = 4;
  ExpectMatchesClean("kill:joiner:1@100; kill:joiner:1@101; kill:joiner:1@400",
                     /*expect_restarts=*/true);
}

TEST_P(StoreEquivalence, CountsDeltasAndBasesSeparately) {
  options_.delta_base_interval = 4;
  const DistributedJoinResult got = RunSupervised("");
  ASSERT_TRUE(got.ok) << got.failure_message;
  EXPECT_GT(got.delta_checkpoints, 0u);
  EXPECT_GT(got.base_checkpoints, 0u);  // at least the epoch-0 seeds
  EXPECT_GT(got.delta_checkpoint_bytes, 0u);
  EXPECT_GT(got.base_checkpoint_bytes, 0u);
  // Deltas must actually be smaller than bases on average — that is the
  // entire point of the incremental path.
  EXPECT_LT(got.delta_checkpoint_bytes / std::max<uint64_t>(1, got.delta_checkpoints),
            got.base_checkpoint_bytes / std::max<uint64_t>(1, got.base_checkpoints));
}

// --- Spill tier (disk only): windows larger than the memory budget ------

using DiskStoreEquivalence = StoreHarness;

TEST_F(DiskStoreEquivalence, SpillPreservesRecallWhereEvictionLosesIt) {
  // A count window far above what max_index_bytes can hold: the eviction
  // run must drop stored records (losing pairs), the spill run must match
  // the unlimited-memory oracle exactly.
  options_.window = WindowSpec::ByCount(600);
  options_.max_index_bytes = 20 * 1024;  // per joiner; far below window need

  const DistributedJoinResult oracle = RunClean();  // unlimited memory

  DistributedJoinOptions evict = options_;
  evict.supervise = true;
  const DistributedJoinResult evicted = RunDistributedJoin(stream_, evict);
  ASSERT_TRUE(evicted.ok) << evicted.failure_message;
  EXPECT_GT(evicted.budget_evictions, 0u) << "budget never engaged; test is vacuous";
  EXPECT_LT(evicted.result_count, oracle.result_count)
      << "eviction lost nothing; shrink max_index_bytes";

  ScopedTempDir tmp;
  DistributedJoinOptions spill = options_;
  spill.supervise = true;
  spill.store_dir = tmp.path();
  spill.spill_watermark = 0.5;
  spill.store_segment_bytes = 16 * 1024;
  const DistributedJoinResult spilled = RunDistributedJoin(stream_, spill);
  ASSERT_TRUE(spilled.ok) << spilled.failure_message;
  EXPECT_GT(spilled.spilled_bytes, 0u) << "nothing spilled; test is vacuous";
  EXPECT_GT(spilled.spill_reads, 0u) << "no probe ever read a cold record";
  EXPECT_EQ(spilled.result_count, oracle.result_count);
  EXPECT_EQ(Canonical(spilled.pairs), Canonical(oracle.pairs))
      << "spill tier changed the result set";
}

TEST_F(DiskStoreEquivalence, SpillSurvivesKills) {
  options_.window = WindowSpec::ByCount(600);
  options_.max_index_bytes = 20 * 1024;
  const DistributedJoinResult oracle = RunClean();

  ScopedTempDir tmp;
  DistributedJoinOptions spill = options_;
  spill.supervise = true;
  spill.store_dir = tmp.path();
  spill.delta_base_interval = 3;
  spill.spill_watermark = 0.5;
  spill.store_segment_bytes = 16 * 1024;
  spill.fault_script = "kill:joiner:0@250; kill:joiner:1@550";
  const DistributedJoinResult got = RunDistributedJoin(stream_, spill);
  ASSERT_TRUE(got.ok) << got.failure_message;
  EXPECT_GT(got.restarts, 0u);
  EXPECT_GT(got.spilled_bytes, 0u);
  EXPECT_EQ(got.result_count, oracle.result_count);
  EXPECT_EQ(Canonical(got.pairs), Canonical(oracle.pairs))
      << "spill recovery diverged from the oracle";
}

// Bundle joiner keeps PR 3 eviction (no per-record cold granularity): a
// spill-configured bundle run must still work, just without spilling.
TEST_F(DiskStoreEquivalence, BundleJoinerIgnoresSpillGracefully) {
  options_.local = LocalAlgorithm::kBundle;
  options_.window = WindowSpec::ByCount(400);
  options_.max_index_bytes = 32 * 1024;
  ScopedTempDir tmp;
  DistributedJoinOptions cfg = options_;
  cfg.supervise = true;
  cfg.store_dir = tmp.path();
  cfg.spill_watermark = 0.5;
  const DistributedJoinResult got = RunDistributedJoin(stream_, cfg);
  ASSERT_TRUE(got.ok) << got.failure_message;
  EXPECT_EQ(got.spilled_bytes, 0u) << "bundle joiner must not spill";
  EXPECT_GT(got.result_count, 0u);
}

// A task whose chain never becomes durable (here: every task_<id> path is
// a plain file, so no checkpoint write succeeds) has nothing to recover
// from exactly; a kill must fail the run rather than let it diverge.
TEST_F(DiskStoreEquivalence, UnwritableChainFailsTheRunOnRecovery) {
  ScopedTempDir tmp;
  for (int id = 0; id < 16; ++id) {
    std::FILE* f = std::fopen((tmp.path() + "/task_" + std::to_string(id)).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  options_.store_dir = tmp.path();
  options_.supervise = true;
  options_.fault_script = "kill:joiner:1@150";
  const DistributedJoinResult got = RunDistributedJoin(stream_, options_);
  EXPECT_FALSE(got.ok);
  EXPECT_NE(got.failure_message.find("no durable checkpoint"), std::string::npos)
      << got.failure_message;
}

// After a healthy run every task directory must hold exactly one live
// chain (newest base + trailing deltas) — no tmp files, no stale epochs.
TEST_F(DiskStoreEquivalence, StoreDirHygieneAfterRun) {
  ScopedTempDir tmp;
  options_.store_dir = tmp.path();
  options_.delta_base_interval = 4;
  options_.supervise = true;
  const DistributedJoinResult got = RunDistributedJoin(stream_, options_);
  ASSERT_TRUE(got.ok) << got.failure_message;
  size_t task_dirs = 0;
  for (const auto& e : std::filesystem::directory_iterator(tmp.path())) {
    if (!e.is_directory()) continue;
    const std::string t = e.path().filename().string();
    if (t.rfind("task_", 0) != 0) continue;
    ++task_dirs;
    int bases = 0;
    for (const auto& f : std::filesystem::directory_iterator(e.path())) {
      const std::string name = f.path().filename().string();
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << "tmp litter: " << t << "/" << name;
      int kind = 0;
      uint64_t id = 0;
      ASSERT_TRUE(store::ParseStoreFileName(name, &kind, &id))
          << "foreign file in store dir: " << t << "/" << name;
      if (kind == 0) ++bases;
    }
    EXPECT_LE(bases, 1) << "stale base epochs in " << t;
  }
  EXPECT_GT(task_dirs, 0u);
}

}  // namespace
}  // namespace dssj
