// The benchmark's workloads: what each one configures, how its input is
// generated from a seed, and the user-visible set-up step (text load plus
// length-partition planning) that turns the generated text into the
// stream the join consumes.
#ifndef DSSJ_PERFBENCH_WORKLOAD_H_
#define DSSJ_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/join_topology.h"
#include "text/record.h"
#include "trace.h"
#include "workload/generator.h"

namespace perfbench {

/// One benchmark workload. Every workload uses Jaccard similarity,
/// length-based routing over a load-aware greedy partition, the record
/// joiner, a 20 s stream-time window and 4 joiners; the fields below are
/// what differs between them.
struct Workload {
  const char* name;
  dssj::DatasetPreset preset;
  int64_t threshold_permille;
  size_t records;
  dssj::JoinTransport transport;
  int workers;             ///< simulated workers (loopback placement); 0 = joiners
  double rate_per_sec;     ///< open-loop offered rate; 0 = unthrottled
  size_t max_index_bytes;  ///< per-joiner index budget; 0 = unlimited
  bool spill;              ///< spill cold state + async checkpoints to a store dir
};

inline constexpr int kJoiners = 4;
inline constexpr int64_t kWindowMicros = 20'000'000;
/// Records are stamped seq x 1 ms of stream time, so the window holds 20k.
inline constexpr int64_t kStampMicros = 1000;
/// Checkpoint cadence of the spill workload, in tuples per joiner task.
inline constexpr uint64_t kCheckpointInterval = 1024;
inline constexpr double kSpillWatermark = 0.5;

/// Returns the workload called `name`, or null.
const Workload* FindWorkload(const std::string& name);
std::string WorkloadNames();

/// Generates the workload's records from `seed` and renders them as text,
/// one document per line, one word per token.
std::vector<std::string> GenerateDocuments(const Workload& w, uint64_t seed);

/// Options of a timed streaming run (counts only, no pair collection).
dssj::DistributedJoinOptions JoinOptions(const Workload& w,
                                         const dssj::LengthPartition& partition);

/// What a `dssj_cli` user waits for before the stream starts.
struct Setup {
  std::vector<dssj::RecordPtr> records;  ///< loaded and stamped with stream time
  dssj::LengthPartition partition;
  double load_s = 0.0;  ///< LoadCorpusFromFileSharded
  double plan_s = 0.0;  ///< PlanLengthPartition
};

/// Loads `path` and plans the length partition, as spans under one
/// "setup" root. Returns false (with a message on stderr) if the file
/// cannot be loaded.
bool RunSetup(const Workload& w, const std::string& path, Tracer* tracer, Setup* out);

}  // namespace perfbench

#endif  // DSSJ_PERFBENCH_WORKLOAD_H_
