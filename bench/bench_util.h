#ifndef DSSJ_BENCH_BENCH_UTIL_H_
#define DSSJ_BENCH_BENCH_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/brute_force_joiner.h"
#include "core/join_topology.h"
#include "text/record.h"
#include "workload/generator.h"

namespace dssj::bench {

/// Returns (and memoizes) a deterministic synthetic stream for `preset`.
/// Benches share streams so every configuration sees identical input.
inline const std::vector<RecordPtr>& CachedStream(DatasetPreset preset, size_t n,
                                                  uint64_t seed = 42) {
  static auto* cache =
      new std::map<std::tuple<int, size_t, uint64_t>, std::vector<RecordPtr>>();
  const auto key = std::make_tuple(static_cast<int>(preset), n, seed);
  auto it = cache->find(key);
  if (it == cache->end()) {
    WorkloadOptions options = PresetOptions(preset);
    options.seed = seed;
    it = cache->emplace(key, WorkloadGenerator(options).Generate(n)).first;
  }
  return it->second;
}

/// A stream with an explicit near-duplicate density (bundle experiments).
inline const std::vector<RecordPtr>& CachedDupStream(double dup_fraction, size_t n,
                                                     uint64_t seed = 42) {
  static auto* cache =
      new std::map<std::tuple<int, size_t, uint64_t>, std::vector<RecordPtr>>();
  const auto key = std::make_tuple(static_cast<int>(dup_fraction * 1000), n, seed);
  auto it = cache->find(key);
  if (it == cache->end()) {
    WorkloadOptions options = PresetOptions(DatasetPreset::kTweet);
    options.seed = seed;
    options.duplicate_fraction = dup_fraction;
    options.mutation_rate = 0.06;
    options.dup_locality = 20000;
    it = cache->emplace(key, WorkloadGenerator(options).Generate(n)).first;
  }
  return it->second;
}

/// Baseline distributed-join options shared by the macro benches.
///
/// remote_byte_cost_ns models the serialization/deserialization CPU a
/// Storm-like system pays for every byte crossing workers (~2 ns/byte ≈
/// Kryo at 500 MB/s per core, both endpoints charged). Without it,
/// in-process message passing is free and the broadcast baseline looks far
/// better than it ever is on a real cluster.
inline DistributedJoinOptions BaseJoinOptions(int64_t threshold_permille, int joiners) {
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, threshold_permille);
  options.num_joiners = joiners;
  options.collect_results = false;
  options.queue_capacity = 8192;
  options.remote_byte_cost_ns = 2.0;
  return options;
}

/// Brute-force oracle result count for `stream` under `sim` with an
/// unbounded window, memoized per (stream, similarity). Sweeps compare
/// every cell's result_count against it: a distributed run is exact only
/// if it reports exactly this many pairs.
inline uint64_t OracleResultCount(const std::vector<RecordPtr>& stream,
                                  const SimilaritySpec& sim) {
  static auto* cache = new std::map<std::tuple<const void*, size_t, int, int64_t>, uint64_t>();
  const auto key = std::make_tuple(static_cast<const void*>(stream.data()), stream.size(),
                                   static_cast<int>(sim.function()), sim.threshold_permille());
  auto it = cache->find(key);
  if (it == cache->end()) {
    BruteForceJoiner oracle(sim, WindowSpec::Unbounded());
    uint64_t count = 0;
    for (const RecordPtr& r : stream) {
      oracle.Process(r, /*store=*/true, /*probe=*/true, [&count](const ResultPair&) { ++count; });
    }
    it = cache->emplace(key, count).first;
  }
  return it->second;
}

/// Fails the benchmark cell unless `r` reports exactly the oracle's result
/// count. Returns false (after SkipWithError) on a mismatch.
inline bool CheckExact(benchmark::State& state, const DistributedJoinResult& r,
                       uint64_t oracle) {
  if (r.ok && r.result_count == oracle) return true;
  const std::string msg = "inexact: result_count " + std::to_string(r.result_count) +
                          " != oracle " + std::to_string(oracle) +
                          (r.ok ? "" : " (run failed: " + r.failure_message + ")");
  state.SkipWithError(msg.c_str());
  return false;
}

/// Publishes the result metrics every macro bench reports.
inline void ReportJoinResult(benchmark::State& state, const DistributedJoinResult& r) {
  state.counters["rec_per_s_wall"] = r.throughput_rps;
  state.counters["rec_per_s_scaled"] = r.scaled_throughput_rps;
  state.counters["results"] = static_cast<double>(r.result_count);
  state.counters["dispatch_msgs"] = static_cast<double>(r.dispatch_messages);
  state.counters["dispatch_MB"] = static_cast<double>(r.dispatch_bytes) / 1e6;
  state.counters["remote_MB"] = static_cast<double>(r.remote_bytes) / 1e6;
  state.counters["replication"] = r.replication_factor;
  state.counters["lat_p50_us"] = static_cast<double>(r.latency.p50_us);
  state.counters["lat_p99_us"] = static_cast<double>(r.latency.p99_us);
}

}  // namespace dssj::bench

#endif  // DSSJ_BENCH_BENCH_UTIL_H_
