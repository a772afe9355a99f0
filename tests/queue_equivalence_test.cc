// The ring data plane must be exact: whatever configuration a topology runs
// — dataset shape, batch size, fault script, shed policy, fan-in — the
// result set equals the brute-force oracle's pair set (minus exactly the
// shed probes' pairs when a shed policy is armed). Every test here runs the
// workload through RunDistributedJoin and compares canonicalized pairs.
#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "core/join_topology.h"
#include "workload/generator.h"

namespace dssj {
namespace {

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

std::vector<RecordPtr> PresetStream(DatasetPreset preset, uint64_t seed, size_t n) {
  WorkloadOptions options = PresetOptions(preset);
  options.seed = seed;
  return WorkloadGenerator(options).Generate(n);
}

std::vector<ResultPair> Oracle(const std::vector<RecordPtr>& stream, const SimilaritySpec& sim) {
  BruteForceJoiner joiner(sim, WindowSpec::Unbounded());
  return Canonical(SingleNodeJoin(stream, joiner));
}

DistributedJoinResult RunOk(const DistributedJoinOptions& options,
                            const std::vector<RecordPtr>& stream) {
  DistributedJoinResult result = RunDistributedJoin(stream, options);
  EXPECT_TRUE(result.ok) << result.failure_message;
  return result;
}

/// The core assertion: a run of `options` produces exactly the oracle's
/// result set, and the bolts' published count agrees with it.
void ExpectMatchesOracle(const DistributedJoinOptions& options,
                         const std::vector<RecordPtr>& stream, const std::string& what) {
  const DistributedJoinResult run = RunOk(options, stream);
  const auto expect = Oracle(stream, options.sim);
  const auto got = Canonical(run.pairs);
  EXPECT_EQ(run.result_count, expect.size()) << what;
  ASSERT_EQ(got.size(), expect.size()) << what;
  EXPECT_EQ(got, expect) << what << ": ring run diverged from the oracle";
  EXPECT_GT(expect.size(), 0u) << what << ": vacuous test stream";
}

// (dataset preset, batch size)
using EquivParam = std::tuple<DatasetPreset, size_t>;

class QueueEquivalenceTest : public ::testing::TestWithParam<EquivParam> {
 protected:
  QueueEquivalenceTest() {
    const auto [preset, batch_size] = GetParam();
    stream_ = PresetStream(preset, 2024, 700);
    options_.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
    options_.strategy = DistributionStrategy::kLengthBased;
    options_.num_joiners = 3;
    options_.collect_results = true;
    options_.batch_size = batch_size;
    options_.length_partition = PlanLengthPartition(stream_, options_.sim, options_.num_joiners,
                                                    PartitionMethod::kLoadAwareGreedy);
    what_ = std::string(DatasetPresetName(preset)) + "/batch=" + std::to_string(batch_size);
  }

  std::vector<RecordPtr> stream_;
  DistributedJoinOptions options_;
  std::string what_;
};

TEST_P(QueueEquivalenceTest, CleanRunMatchesOracle) {
  ExpectMatchesOracle(options_, stream_, what_);
}

TEST_P(QueueEquivalenceTest, FaultScriptRunMatchesOracle) {
  // A joiner kill plus a dropped and a duplicated link envelope: recovery is
  // exactly-once, so the run still yields the oracle's pair set.
  options_.supervise = true;
  options_.fault_script =
      "kill:joiner:1@150; drop:dispatcher:0->joiner:0@40; dup:dispatcher:0->joiner:2@60";
  options_.supervision.checkpoint_interval = 100;
  options_.supervision.initial_backoff_micros = 50;
  options_.supervision.max_backoff_micros = 1000;
  ExpectMatchesOracle(options_, stream_, what_ + "/faults");
}

TEST_P(QueueEquivalenceTest, ArmedShedPolicyRunMatchesOracleMinusShedProbes) {
  // Shedding armed but never engaged: the queue holds the whole stream
  // below the watermark, so no probe is shed. The result set must still be
  // the oracle minus exactly the pairs of probes in shed_probe_seqs (stores
  // always land). Floods that do shed are scripted in overload_test.
  options_.shed_policy = stream::ShedPolicy::kProbe;
  options_.shed_watermark = 0.9;
  options_.queue_capacity = 4096;
  const DistributedJoinResult run = RunOk(options_, stream_);
  EXPECT_EQ(run.shed_probes, 0u) << what_;
  ASSERT_EQ(run.shed_probes, run.shed_probe_seqs.size()) << what_;
  std::set<uint64_t> shed;
  for (const auto& [seq, partition] : run.shed_probe_seqs) shed.insert(seq);
  std::vector<ResultPair> kept;
  for (const ResultPair& p : Oracle(stream_, options_.sim)) {
    if (shed.count(p.probe_seq) == 0) kept.push_back(p);
  }
  EXPECT_EQ(Canonical(run.pairs), kept) << what_;
  EXPECT_EQ(run.result_count, kept.size()) << what_;
  EXPECT_GT(kept.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndBatchSizes, QueueEquivalenceTest,
    ::testing::Values(EquivParam{DatasetPreset::kTweet, 1},
                      EquivParam{DatasetPreset::kTweet, 16},
                      EquivParam{DatasetPreset::kTweet, 128},
                      EquivParam{DatasetPreset::kDblp, 1},
                      EquivParam{DatasetPreset::kDblp, 16},
                      EquivParam{DatasetPreset::kDblp, 128}),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      return std::string(DatasetPresetName(std::get<0>(info.param))) + "Batch" +
             std::to_string(std::get<1>(info.param));
    });

// Fan-in through the MPMC ring: the sink is a fan-in consumer of every
// joiner, and broadcast routing makes every joiner emit. Exercised at the
// batch-size extremes.
TEST(QueueEquivalenceFanInTest, BroadcastBundleJoinMatchesOracle) {
  const auto stream = PresetStream(DatasetPreset::kTweet, 7, 500);
  for (size_t batch_size : {1u, 128u}) {
    DistributedJoinOptions options;
    options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
    options.strategy = DistributionStrategy::kBroadcast;
    options.local = LocalAlgorithm::kBundle;
    options.num_joiners = 4;
    options.collect_results = true;
    options.batch_size = batch_size;
    ExpectMatchesOracle(options, stream, "broadcast/batch=" + std::to_string(batch_size));
  }
}

}  // namespace
}  // namespace dssj
