// Joiner-level exactness of the spill tier (docs/INTERNALS.md §13): a
// RecordJoiner whose spill watermark pushes almost the whole window to disk
// must emit, probe by probe, exactly the pairs an unlimited RecordJoiner
// emits on the same stream. Cold records sit in the same prefix index as
// hot ones, so even the filter counters must agree. Covers count and time
// windows, the positional filter and the prefix-distribution configuration
// (token filter + min-prefix-token dedup), base+delta restore mid-stream,
// budget eviction of cold records, and corrupt spill frames.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/record_joiner.h"
#include "store/format.h"
#include "store/spill.h"
#include "workload/generator.h"

namespace dssj {
namespace {

using store::SpillStore;

// A few hot records stay in memory; everything older spills.
constexpr size_t kWatermarkBytes = 2048;

class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string tmpl = ::testing::TempDir() + "dssj_spilljoin_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : tmpl;
  }
  ~ScopedTempDir() { store::RemoveTree(path_); }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

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

std::unique_ptr<SpillStore> OpenSpill(const std::string& dir) {
  std::unique_ptr<SpillStore> spill;
  // Small segments so rotation and segment GC happen within the stream.
  EXPECT_TRUE(SpillStore::Open(dir, 4096, SpillStore::GcPolicy::kDeferred, &spill).ok());
  return spill;
}

std::vector<ResultPair> ProcessOne(RecordJoiner& j, const RecordPtr& r) {
  std::vector<ResultPair> out;
  j.Process(r, /*store=*/true, /*probe=*/true,
            [&out](const ResultPair& p) { out.push_back(p); });
  return out;
}

std::vector<ResultPair> Sorted(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

/// The counters that depend only on the window's contents and the index:
/// equal window, equal postings, equal filter decisions.
void ExpectSameFiltering(const JoinerStats& spilled, const JoinerStats& unlimited) {
  EXPECT_EQ(spilled.results, unlimited.results);
  EXPECT_EQ(spilled.candidates, unlimited.candidates);
  EXPECT_EQ(spilled.postings_scanned, unlimited.postings_scanned);
  EXPECT_EQ(spilled.dead_postings_purged, unlimited.dead_postings_purged);
  EXPECT_EQ(spilled.length_filtered, unlimited.length_filtered);
  EXPECT_EQ(spilled.position_filtered, unlimited.position_filtered);
  EXPECT_EQ(spilled.evictions, unlimited.evictions);
}

struct Config {
  const char* name;
  WindowSpec window;
  bool prefix_distribution;
  bool direct_index;
};

RecordJoinerOptions OptionsFor(const Config& c) {
  RecordJoinerOptions opts;
  opts.direct_index = c.direct_index;
  if (c.prefix_distribution) {
    opts.token_filter = [](TokenId w) { return w % 3 != 1; };
    opts.dedup_by_min_prefix_token = true;
  }
  return opts;
}

class SpillJoinerExactness : public ::testing::TestWithParam<Config> {};

TEST_P(SpillJoinerExactness, EveryProbeMatchesUnlimited) {
  const Config& c = GetParam();
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  ScopedTempDir tmp;
  std::unique_ptr<SpillStore> spill = OpenSpill(tmp.Sub("spill"));
  RecordJoiner unlimited(sim, c.window, OptionsFor(c));
  RecordJoiner spilled(sim, c.window, OptionsFor(c));
  spilled.AttachSpillStore(spill.get(), kWatermarkBytes);
  const auto stream = MakeStream(501, 1500);
  size_t total = 0;
  size_t max_cold = 0;
  for (const RecordPtr& r : stream) {
    const std::vector<ResultPair> want = ProcessOne(unlimited, r);
    const std::vector<ResultPair> got = ProcessOne(spilled, r);
    ASSERT_EQ(Sorted(got), Sorted(want)) << c.name << " probe seq " << r->seq;
    total += want.size();
    max_cold = std::max(max_cold, spilled.ColdCount());
  }
  EXPECT_GT(total, 0u) << "vacuous stream";
  EXPECT_GT(max_cold, 100u) << "the window never went cold";
  EXPECT_GT(spilled.stats().spill_reads, 0u);
  EXPECT_EQ(spilled.stats().spill_read_errors, 0u);
  EXPECT_EQ(spilled.StoredCount(), unlimited.StoredCount());
  ExpectSameFiltering(spilled.stats(), unlimited.stats());
}

INSTANTIATE_TEST_SUITE_P(
    Windows, SpillJoinerExactness,
    ::testing::Values(Config{"count", WindowSpec::ByCount(400), false, true},
                      Config{"time", WindowSpec::ByTime(300'000), false, true},
                      Config{"count_prefix_dist", WindowSpec::ByCount(400), true, true},
                      Config{"time_prefix_dist_sparse", WindowSpec::ByTime(300'000), true,
                             false}),
    [](const ::testing::TestParamInfo<Config>& info) { return std::string(info.param.name); });

std::string Encode(store::FrozenBlob blob) {
  std::string out;
  blob.encode(&out);
  return out;
}

// Recovery: a replica composed from FreezeBase + FreezeDelta blobs over a
// copy of the spill directory (what a restarted task finds on disk) must
// continue with exactly the live joiner's emissions, in the same order.
TEST(SpillJoinerRestore, BaseDeltaChainContinuesLikeTheLiveJoiner) {
  for (const bool prefix_distribution : {false, true}) {
    const Config c{"restore", WindowSpec::ByCount(400), prefix_distribution, true};
    const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
    ScopedTempDir tmp;
    std::unique_ptr<SpillStore> live_spill = OpenSpill(tmp.Sub("live"));
    RecordJoiner unlimited(sim, c.window, OptionsFor(c));
    RecordJoiner live(sim, c.window, OptionsFor(c));
    live.AttachSpillStore(live_spill.get(), kWatermarkBytes);
    const auto stream = MakeStream(601, 1400);
    constexpr size_t kInterval = 97;
    constexpr size_t kRestoreAt = 970;  // a base and 9 deltas in
    std::string base;
    std::vector<std::string> deltas;
    size_t i = 0;
    for (; i < kRestoreAt; ++i) {
      ProcessOne(unlimited, stream[i]);
      ProcessOne(live, stream[i]);
      if ((i + 1) % kInterval != 0) continue;
      if (base.empty()) {
        base = Encode(live.FreezeBase());
      } else {
        deltas.push_back(Encode(live.FreezeDelta()));
      }
    }
    ASSERT_FALSE(deltas.empty());
    ASSERT_GT(live.ColdCount(), 100u);
    std::filesystem::copy(tmp.Sub("live"), tmp.Sub("replica"),
                          std::filesystem::copy_options::recursive);
    std::unique_ptr<SpillStore> replica_spill = OpenSpill(tmp.Sub("replica"));
    RecordJoiner replica(sim, c.window, OptionsFor(c));
    replica.AttachSpillStore(replica_spill.get(), kWatermarkBytes);
    replica.Restore(base);
    for (const std::string& d : deltas) replica.RestoreDelta(d);
    ASSERT_TRUE(replica_spill->PurgeUnclaimed().ok());
    EXPECT_EQ(replica.stats().spill_read_errors, 0u) << "a cold stub failed to re-claim";
    EXPECT_EQ(replica.StoredCount(), live.StoredCount());
    EXPECT_EQ(replica.ColdCount(), live.ColdCount());
    const uint64_t reads_before = replica.stats().spill_reads;
    for (; i < stream.size(); ++i) {
      const std::vector<ResultPair> want = ProcessOne(live, stream[i]);
      ASSERT_EQ(ProcessOne(replica, stream[i]), want)
          << "prefix_distribution=" << prefix_distribution << " seq " << stream[i]->seq;
      ASSERT_EQ(Sorted(want), Sorted(ProcessOne(unlimited, stream[i])));
    }
    EXPECT_GT(replica.stats().spill_reads, reads_before) << "no cold record read after restore";
    EXPECT_EQ(replica.stats().spill_read_errors, 0u);
  }
}

// Budget eviction pops cold records first; their postings must die with
// them (the spilled joiner keeps scanning exactly what the unlimited one
// does after the same evictions).
TEST(SpillJoinerEviction, EvictOldestDropsColdPostings) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  ScopedTempDir tmp;
  std::unique_ptr<SpillStore> spill = OpenSpill(tmp.Sub("spill"));
  RecordJoiner unlimited(sim, WindowSpec::Unbounded(), {});
  RecordJoiner spilled(sim, WindowSpec::Unbounded(), {});
  spilled.AttachSpillStore(spill.get(), kWatermarkBytes);
  const auto stream = MakeStream(701, 1200);
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i > 0 && i % 150 == 0) {
      ASSERT_GT(spilled.ColdCount(), 60u);
      EXPECT_EQ(spilled.EvictOldest(60), 60u);
      EXPECT_EQ(unlimited.EvictOldest(60), 60u);
    }
    ASSERT_EQ(Sorted(ProcessOne(spilled, stream[i])), Sorted(ProcessOne(unlimited, stream[i])))
        << "seq " << stream[i]->seq;
  }
  EXPECT_GT(spilled.stats().dead_postings_purged, 0u);
  EXPECT_EQ(spilled.stats().budget_evictions, unlimited.stats().budget_evictions);
  ExpectSameFiltering(spilled.stats(), unlimited.stats());
}

// Flips the last payload byte of every frame in every segment file, in
// place (the store reads through descriptors it already holds).
void CorruptEveryFrame(const std::string& dir) {
  std::vector<std::string> names;
  ASSERT_TRUE(store::ListStoreFiles(dir, &names).ok());
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    std::string bytes;
    ASSERT_TRUE(store::ReadFileToString(path, &bytes).ok());
    std::vector<size_t> frame_ends;
    size_t offset = 0;
    std::string payload;
    while (offset < bytes.size()) {
      size_t end = 0;
      ASSERT_TRUE(store::ReadSegmentFrame(bytes.data(), bytes.size(), offset, &payload, &end).ok());
      frame_ends.push_back(end);
      offset = end;
    }
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    for (const size_t end : frame_ends) {
      const char flipped = static_cast<char>(bytes[end - 1] ^ 0x10);
      ASSERT_EQ(std::fseek(f, static_cast<long>(end - 1), SEEK_SET), 0);
      ASSERT_EQ(std::fwrite(&flipped, 1, 1, f), 1u);
    }
    std::fclose(f);
  }
}

// A corrupt cold frame costs only the pairs of that record: the read is
// counted as an error, the probe goes on, and nothing else changes.
TEST(SpillJoinerCorruption, BitFlippedFramesAreCountedNotFatal) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  ScopedTempDir tmp;
  std::unique_ptr<SpillStore> spill = OpenSpill(tmp.Sub("spill"));
  RecordJoiner unlimited(sim, WindowSpec::ByCount(400), {});
  RecordJoiner spilled(sim, WindowSpec::ByCount(400), {});
  spilled.AttachSpillStore(spill.get(), kWatermarkBytes);
  const auto stream = MakeStream(801, 900);
  constexpr size_t kCorruptAt = 500;
  for (size_t i = 0; i < kCorruptAt; ++i) {
    ASSERT_EQ(Sorted(ProcessOne(spilled, stream[i])), Sorted(ProcessOne(unlimited, stream[i])));
  }
  ASSERT_GT(spilled.ColdCount(), 100u);
  CorruptEveryFrame(tmp.Sub("spill"));
  size_t lost = 0;
  for (size_t i = kCorruptAt; i < stream.size(); ++i) {
    const std::vector<ResultPair> want = Sorted(ProcessOne(unlimited, stream[i]));
    const std::vector<ResultPair> got = Sorted(ProcessOne(spilled, stream[i]));
    EXPECT_TRUE(std::includes(want.begin(), want.end(), got.begin(), got.end(),
                              [](const ResultPair& a, const ResultPair& b) {
                                return std::tie(a.probe_seq, a.partner_seq) <
                                       std::tie(b.probe_seq, b.partner_seq);
                              }))
        << "corruption produced a pair the unlimited joiner does not emit";
    lost += want.size() - got.size();
  }
  EXPECT_GT(spilled.stats().spill_read_errors, 0u);
  EXPECT_GT(lost, 0u) << "no emitted pair depended on a corrupted frame";
}

}  // namespace
}  // namespace dssj
