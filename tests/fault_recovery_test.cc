// End-to-end fault injection and recovery: a supervised topology hit by
// scripted task kills, link drops/duplicates/delays must produce a result
// set byte-identical to the failure-free run — the exactly-once recovery
// guarantee. The FaultScenario fixture below is the reusable harness:
// configure a join, attach a fault script, and assert equality against the
// clean run of the same configuration.

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_topology.h"
#include "stream/fault.h"
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

/// Reusable failure-test harness: builds a distributed join configuration,
/// runs it once clean and once under a fault script, and asserts the fault
/// run recovered to the exact clean result set. Tests tweak `options` and
/// call one of the Run* helpers.
class FaultScenario : public ::testing::Test {
 protected:
  FaultScenario() {
    stream_ = MakeStream(417, 900);
    options_.sim = SimilaritySpec(SimilarityFunction::kJaccard, 750);
    options_.num_joiners = 3;
    options_.collect_results = true;
    options_.length_partition = PlanLengthPartition(stream_, options_.sim, options_.num_joiners,
                                                    PartitionMethod::kLoadAwareGreedy);
    options_.supervision.initial_backoff_micros = 50;  // keep tests fast
    options_.supervision.max_backoff_micros = 1000;
  }

  DistributedJoinResult RunClean() {
    DistributedJoinOptions clean = options_;
    clean.supervise = false;
    clean.fault_script.clear();
    DistributedJoinResult result = RunDistributedJoin(stream_, clean);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.restarts, 0u);
    return result;
  }

  DistributedJoinResult RunFaulty(const std::string& script) {
    DistributedJoinOptions faulty = options_;
    faulty.supervise = true;
    faulty.fault_script = script;
    return RunDistributedJoin(stream_, faulty);
  }

  /// The core assertion: the faulty run must recover to the clean run's
  /// exact result set (same pairs, same count), and must actually have
  /// exercised recovery when `expect_restarts` is set.
  void ExpectExactRecovery(const std::string& script, bool expect_restarts = true) {
    const DistributedJoinResult clean = RunClean();
    const DistributedJoinResult faulty = RunFaulty(script);
    ASSERT_TRUE(faulty.ok) << faulty.failure_message;
    if (expect_restarts) {
      EXPECT_GT(faulty.restarts, 0u) << "fault script did not trigger a restart: " << script;
      EXPECT_GT(faulty.replayed_tuples, 0u);
    }
    EXPECT_EQ(faulty.result_count, clean.result_count);
    const auto expect = Canonical(clean.pairs);
    const auto got = Canonical(faulty.pairs);
    ASSERT_EQ(got.size(), expect.size()) << "script: " << script;
    EXPECT_EQ(got, expect) << "recovered result set diverged; script: " << script;
    EXPECT_GT(expect.size(), 0u) << "vacuous test stream";
  }

  std::vector<RecordPtr> stream_;
  DistributedJoinOptions options_;
};

// --- Task kills, per stateful joiner implementation ---------------------

TEST_F(FaultScenario, KillRecordJoinerMidStream) {
  options_.local = LocalAlgorithm::kRecord;
  ExpectExactRecovery("kill:joiner:1@150");
}

TEST_F(FaultScenario, KillBundleJoinerMidStream) {
  options_.local = LocalAlgorithm::kBundle;
  ExpectExactRecovery("kill:joiner:0@150");
}

TEST_F(FaultScenario, KillBruteForceJoinerMidStream) {
  options_.local = LocalAlgorithm::kBruteForce;
  ExpectExactRecovery("kill:joiner:2@100");
}

TEST_F(FaultScenario, KillJoinerWithPrefixStrategy) {
  options_.strategy = DistributionStrategy::kPrefixBased;
  options_.local = LocalAlgorithm::kRecord;
  ExpectExactRecovery("kill:joiner:1@120");
}

TEST_F(FaultScenario, KillWithCheckpointsEveryHundredTuples) {
  options_.local = LocalAlgorithm::kRecord;
  options_.supervision.checkpoint_interval = 100;
  const DistributedJoinResult faulty = RunFaulty("kill:joiner:1@350");
  ASSERT_TRUE(faulty.ok) << faulty.failure_message;
  EXPECT_GT(faulty.checkpoints, 0u);
  EXPECT_GT(faulty.checkpoint_bytes, 0u);
  const DistributedJoinResult clean = RunClean();
  EXPECT_EQ(Canonical(faulty.pairs), Canonical(clean.pairs));
  // Recovery from a checkpoint replays at most the gap since it, not the
  // whole stream.
  EXPECT_LT(faulty.replayed_tuples, 350u);
}

TEST_F(FaultScenario, CheckpointIntervalSweepKeepsResultsExact) {
  options_.local = LocalAlgorithm::kBundle;
  const DistributedJoinResult clean = RunClean();
  for (const uint64_t interval : {0ull, 50ull, 250ull}) {
    options_.supervision.checkpoint_interval = interval;
    const DistributedJoinResult faulty = RunFaulty("kill:joiner:0@300; kill:joiner:2@200");
    ASSERT_TRUE(faulty.ok) << faulty.failure_message;
    EXPECT_EQ(Canonical(faulty.pairs), Canonical(clean.pairs))
        << "checkpoint_interval=" << interval;
  }
}

TEST_F(FaultScenario, RepeatedKillsOfSameTask) {
  options_.local = LocalAlgorithm::kRecord;
  options_.supervision.checkpoint_interval = 64;
  ExpectExactRecovery("kill:joiner:1@100; kill:joiner:1@200; kill:joiner:1@300");
}

TEST_F(FaultScenario, KillDispatcher) {
  options_.local = LocalAlgorithm::kRecord;
  ExpectExactRecovery("kill:dispatcher:0@400");
}

TEST_F(FaultScenario, KillSpout) {
  options_.local = LocalAlgorithm::kRecord;
  options_.supervision.checkpoint_interval = 128;
  ExpectExactRecovery("kill:source:0@450");
}

TEST_F(FaultScenario, KillSink) {
  options_.local = LocalAlgorithm::kRecord;
  ExpectExactRecovery("kill:sink:0@50");
}

TEST_F(FaultScenario, KillEveryTierInOneRun) {
  options_.local = LocalAlgorithm::kRecord;
  options_.supervision.checkpoint_interval = 100;
  ExpectExactRecovery(
      "kill:source:0@200; kill:dispatcher:0@300; kill:joiner:0@150; "
      "kill:joiner:1@250; kill:sink:0@40");
}

// --- Kills under batched transport --------------------------------------

TEST_F(FaultScenario, KillWithBatchSizeOne) {
  options_.local = LocalAlgorithm::kRecord;
  options_.batch_size = 1;
  ExpectExactRecovery("kill:joiner:1@150");
}

TEST_F(FaultScenario, KillWithLargeBatches) {
  options_.local = LocalAlgorithm::kBundle;
  options_.batch_size = 128;
  options_.supervision.checkpoint_interval = 100;
  ExpectExactRecovery("kill:joiner:0@333; kill:dispatcher:0@500");
}

// --- Window semantics under recovery ------------------------------------

TEST_F(FaultScenario, KillWithTimeWindow) {
  options_.local = LocalAlgorithm::kRecord;
  options_.window = WindowSpec::ByTime(250 * 1000);
  options_.supervision.checkpoint_interval = 80;
  ExpectExactRecovery("kill:joiner:1@200");
}

TEST_F(FaultScenario, KillWithCountWindow) {
  options_.local = LocalAlgorithm::kBundle;
  options_.window = WindowSpec::ByCount(100);
  options_.supervision.checkpoint_interval = 90;
  ExpectExactRecovery("kill:joiner:2@250");
}

// --- Link faults ---------------------------------------------------------

TEST_F(FaultScenario, DroppedEnvelopeIsRecovered) {
  options_.local = LocalAlgorithm::kRecord;
  const DistributedJoinResult clean = RunClean();
  const DistributedJoinResult faulty =
      RunFaulty("drop:dispatcher:0->joiner:1@50; drop:source:0->dispatcher:0@200");
  ASSERT_TRUE(faulty.ok) << faulty.failure_message;
  EXPECT_EQ(faulty.link_drops_recovered, 2u);
  EXPECT_EQ(Canonical(faulty.pairs), Canonical(clean.pairs));
}

TEST_F(FaultScenario, DuplicatedEnvelopeIsDiscarded) {
  options_.local = LocalAlgorithm::kRecord;
  const DistributedJoinResult clean = RunClean();
  const DistributedJoinResult faulty =
      RunFaulty("dup:dispatcher:0->joiner:0@75; dup:source:0->dispatcher:0@300");
  ASSERT_TRUE(faulty.ok) << faulty.failure_message;
  EXPECT_EQ(faulty.link_dups_discarded, 2u);
  EXPECT_EQ(Canonical(faulty.pairs), Canonical(clean.pairs));
}

TEST_F(FaultScenario, DelayedLinkChangesNothing) {
  options_.local = LocalAlgorithm::kRecord;
  const DistributedJoinResult clean = RunClean();
  const DistributedJoinResult faulty =
      RunFaulty("delay:dispatcher:0->joiner:1@100x2000");
  ASSERT_TRUE(faulty.ok) << faulty.failure_message;
  EXPECT_EQ(faulty.restarts, 0u);
  EXPECT_EQ(Canonical(faulty.pairs), Canonical(clean.pairs));
}

TEST_F(FaultScenario, MixedKillDropDuplicateDelay) {
  options_.local = LocalAlgorithm::kRecord;
  options_.supervision.checkpoint_interval = 120;
  ExpectExactRecovery(
      "kill:joiner:1@180; drop:dispatcher:0->joiner:0@90; "
      "dup:dispatcher:0->joiner:2@140; delay:source:0->dispatcher:0@60x500; "
      "drop:dispatcher:0->joiner:1@400; kill:sink:0@100");
}

TEST_F(FaultScenario, MixedFaultsWithBatchSizeOne) {
  options_.local = LocalAlgorithm::kBundle;
  options_.batch_size = 1;
  options_.supervision.checkpoint_interval = 75;
  ExpectExactRecovery(
      "kill:joiner:0@220; dup:dispatcher:0->joiner:0@30; "
      "drop:dispatcher:0->joiner:2@110");
}

// --- Supervision edge cases ----------------------------------------------

TEST_F(FaultScenario, ExhaustedRestartBudgetFailsTheRun) {
  options_.local = LocalAlgorithm::kRecord;
  options_.supervision.max_restarts = 1;
  const DistributedJoinResult faulty =
      RunFaulty("kill:joiner:1@100; kill:joiner:1@150; kill:joiner:1@200");
  EXPECT_FALSE(faulty.ok);
  EXPECT_NE(faulty.failure_message.find("joiner"), std::string::npos)
      << "failure message should name the component: " << faulty.failure_message;
  EXPECT_NE(faulty.failure_message.find("max_restarts"), std::string::npos);
}

TEST_F(FaultScenario, SupervisionWithoutFaultsIsTransparent) {
  options_.local = LocalAlgorithm::kRecord;
  options_.supervision.checkpoint_interval = 100;
  const DistributedJoinResult clean = RunClean();
  DistributedJoinOptions supervised = options_;
  supervised.supervise = true;
  const DistributedJoinResult result = RunDistributedJoin(stream_, supervised);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_GT(result.checkpoints, 0u);
  EXPECT_EQ(Canonical(result.pairs), Canonical(clean.pairs));
}

TEST(FaultScriptTest, ParsesAllVerbs) {
  const auto script = stream::FaultScript::Parse(
      " kill:joiner:2@500 ;drop:a:0->b:1@9;dup:a:0->b:0@3 ; delay:x:1->y:0@7x250 ;"
      "stall:joiner:1@0");
  ASSERT_TRUE(script.ok()) << script.status().message();
  EXPECT_EQ(script.value().kills().size(), 1u);
  EXPECT_EQ(script.value().link_faults().size(), 3u);
  EXPECT_EQ(script.value().kills()[0].component, "joiner");
  EXPECT_EQ(script.value().kills()[0].task_index, 2);
  EXPECT_EQ(script.value().kills()[0].at_count, 500u);
  ASSERT_EQ(script.value().stalls().size(), 1u);
  EXPECT_EQ(script.value().stalls()[0].component, "joiner");
  EXPECT_EQ(script.value().stalls()[0].task_index, 1);
  EXPECT_EQ(script.value().stalls()[0].at_count, 0u);
}

TEST(FaultScriptTest, RejectsMalformedScripts) {
  for (const char* bad : {"kill:joiner@5", "boom:joiner:0@5", "drop:a:0->b:1", "kill:j:0@",
                          "kill:j:x@5", "delay:a:0->b:1@5", "drop:a:0->b:1@0",
                          "stall:joiner@5", "stall:j:0@x"}) {
    EXPECT_FALSE(stream::FaultScript::Parse(bad).ok()) << "accepted: " << bad;
  }
}

TEST(FaultScriptTest, EmptyScriptIsOkAndEmpty) {
  const auto script = stream::FaultScript::Parse("");
  ASSERT_TRUE(script.ok());
  EXPECT_TRUE(script.value().empty());
}

}  // namespace
}  // namespace dssj
