// Single-thread replay of a workload through the library's public calls:
// MakeRouter -> Router::Route, the wire codec for tuples that cross
// simulated workers (loopback workloads), MakeLocalJoiner ->
// LocalJoiner::Process per route target, and on spill workloads the spill
// store plus checkpoint freezes and writes at the timed runs' cadence.
// It is the correctness reference for the timed runs, the single-thread
// baseline, and (with a tracer) the source of the per-layer metrics.
#ifndef DSSJ_PERFBENCH_REPLAY_H_
#define DSSJ_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/join_topology.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct ReplayResult {
  bool ok = true;
  std::string error;
  double wall_s = 0.0;
  uint64_t pairs = 0;
  /// (probe id, partner id), sorted; filled only when collecting.
  std::vector<std::pair<uint64_t, uint64_t>> pair_ids;
  uint64_t route_targets = 0;
  uint64_t spilled_bytes = 0;  ///< summed over partitions
  uint64_t wire_tuples = 0;
  uint64_t wire_bytes = 0;
  uint64_t checkpoint_bytes = 0;
};

/// Replays `input` in order. `options` must carry the planned partition.
/// Spill segments and checkpoint chains (spill workloads, and the final
/// snapshot of a traced replay) go under `store_dir`, which must exist and
/// be empty. `tracer` may be disabled.
ReplayResult Replay(const Workload& w, const std::vector<dssj::RecordPtr>& input,
                    const dssj::DistributedJoinOptions& options, const std::string& store_dir,
                    Tracer* tracer, bool collect_pairs);

}  // namespace perfbench

#endif  // DSSJ_PERFBENCH_REPLAY_H_
