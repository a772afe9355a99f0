#ifndef DSSJ_STREAM_METRICS_H_
#define DSSJ_STREAM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace dssj::stream {

/// Per-task runtime metrics, updated by the executor and the output
/// collector. All fields are thread-safe to read while the topology runs.
struct TaskMetrics {
  /// Data tuples executed (bolts) or emitted by NextTuple (spouts count 0).
  Counter executed;
  /// Tuples emitted by this task (all edges, including local).
  Counter emitted;
  /// Messages / bytes sent to a task on a *different* simulated worker.
  Counter remote_messages;
  Counter remote_bytes;
  /// Messages / bytes sent anywhere (local included).
  Counter total_messages;
  Counter total_bytes;
  /// Peak inbound-queue depth observed (bolts; backpressure indicator —
  /// a value pinned at the queue capacity means the task was saturated).
  MaxGauge queue_highwater;
  /// Wall nanoseconds per Execute call (profiling; includes preemption).
  Histogram execute_nanos;
  /// Total CPU nanoseconds this task consumed: the executor thread's CPU
  /// time (blocking on the queue burns none) plus any simulated
  /// serialization cost (see TopologyBuilder::SetRemoteByteCostNanos).
  /// Finalized when the task finishes — read after Topology::Wait().
  Counter busy_nanos;
  /// Wall nanoseconds the executor spent waiting on an empty inbound queue
  /// (bolts only; spouts pace themselves and report 0). High idle with low
  /// busy means the stage is starved by its upstream.
  Counter idle_nanos;
  /// Wall nanoseconds the output collector spent pushing into downstream
  /// queues (includes backpressure blocking when a consumer is full). High
  /// blocked means this stage is throttled by its downstream.
  Counter blocked_nanos;

  // Fault tolerance (supervised executors; all zero in unsupervised runs).
  /// Times this task's component object was destroyed and re-created.
  Counter restarts;
  /// Tuples re-executed (bolts) or NextTuple calls re-issued (spouts)
  /// during recovery; their emissions are suppressed per-link.
  Counter replayed_tuples;
  /// Checkpoints taken, and their cumulative serialized size / wall time.
  Counter checkpoints;
  Counter checkpoint_bytes;
  Counter checkpoint_nanos;
  /// Injected-link-fault recovery: envelopes fetched from retention after a
  /// scripted drop, and duplicate deliveries discarded by sequence check.
  Counter link_drops_recovered;
  Counter link_dups_discarded;

  // Checkpoint chain (zero unless supervised). The `checkpoints` triple
  // above keeps counting every checkpoint; these split it by kind so
  // overhead attribution (small frequent deltas vs. rare full bases)
  // survives aggregation.
  Counter delta_checkpoints;
  Counter base_checkpoints;
  Counter delta_checkpoint_bytes;
  Counter base_checkpoint_bytes;
  /// Bytes moved to the on-disk spill tier, and cold-record read-backs
  /// triggered by probes that survived the in-memory stub filters.
  Counter spilled_bytes;
  Counter spill_reads;

  // Overload control (all zero unless TopologyBuilder::SetOverload).
  /// Probe sides shed by admission control; stores are always processed,
  /// so each shed loses at most the pairs the probe would have found.
  Counter shed_probes;
  /// Σ stored-window size at each shed — an upper bound on pairs lost.
  Counter shed_pairs_upper_bound;
  /// Application-defined result counter (e.g. pairs found by a joiner
  /// task). Components publish into it at Finish so multi-process runs can
  /// aggregate results on the coordinator without sharing memory.
  Counter app_results;

  // Elastic scaling (zero unless TopologyBuilder::SetElastic).
  /// Completed live migrations of this task, the cumulative size of the
  /// shipped state blobs, and the wall time spent frozen (pause → resume).
  Counter migrations;
  Counter migration_bytes;
  Counter migration_nanos;

  // Network transport health (filled from Transport::Stats at end of run,
  // attributed to the first locally hosted task of each rank).
  /// Connect attempts beyond the first per dial (the backoff retry loop).
  Counter net_connect_retries;
  /// Connections re-established after an established link dropped.
  Counter net_reconnects;
  /// Queue-health snapshots (see QueueHealth), refreshed by the executor
  /// once per batch and by the watchdog tick. EWMA is scaled ×1000 to fit
  /// an integer gauge.
  Gauge queue_depth;
  Gauge queue_depth_ewma_x1000;
  Gauge queue_time_at_capacity_micros;
  Gauge queue_oldest_age_micros;
};

/// Identity + metrics of one task, exposed by Topology after (or during) a
/// run.
struct TaskStats {
  std::string component;
  int task_index = 0;  ///< index within the component
  int task_id = 0;     ///< global id
  int worker = 0;      ///< simulated worker hosting this task
  const TaskMetrics* metrics = nullptr;
};

/// Aggregate of one component's tasks (helper for benches).
struct ComponentAggregate {
  uint64_t executed = 0;
  uint64_t emitted = 0;
  uint64_t remote_messages = 0;
  uint64_t remote_bytes = 0;
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
  uint64_t busy_nanos_max = 0;  ///< bottleneck task busy time
  uint64_t busy_nanos_sum = 0;
  uint64_t idle_nanos_sum = 0;     ///< executor wall time starved upstream
  uint64_t blocked_nanos_sum = 0;  ///< collector wall time pushing downstream

  // Fault tolerance (zero in unsupervised runs).
  uint64_t restarts = 0;
  uint64_t replayed_tuples = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_nanos = 0;
  uint64_t link_drops_recovered = 0;
  uint64_t link_dups_discarded = 0;

  // Tiered state store (zero unless a store is configured).
  uint64_t delta_checkpoints = 0;
  uint64_t base_checkpoints = 0;
  uint64_t delta_checkpoint_bytes = 0;
  uint64_t base_checkpoint_bytes = 0;
  uint64_t spilled_bytes = 0;
  uint64_t spill_reads = 0;

  // Overload control (zero when no shed policy / watchdog is active).
  uint64_t shed_probes = 0;
  uint64_t shed_pairs_upper_bound = 0;
  uint64_t app_results = 0;
  int64_t queue_time_at_capacity_micros_max = 0;
  int64_t queue_oldest_age_micros_max = 0;

  // Elastic scaling (zero in static runs).
  uint64_t migrations = 0;
  uint64_t migration_bytes = 0;
  uint64_t migration_nanos = 0;
  uint64_t net_connect_retries = 0;
  uint64_t net_reconnects = 0;
};

/// Sums `tasks` (typically Topology::TasksOf(component)).
ComponentAggregate Aggregate(const std::vector<TaskStats>& tasks);

/// Serializes a task's counters into a portable blob (fixed field order
/// with a leading count, so old readers accept new writers and vice versa).
/// Used by the network transport to ship worker-side metrics to the
/// coordinator at end of run.
void SerializeTaskCounters(const TaskMetrics& m, std::string* out);

/// Merges a SerializeTaskCounters blob into `m`: counters add, the queue
/// high-watermark max-merges. Returns false on a malformed blob (left
/// partially merged only if the blob was truncated mid-field — callers
/// treat false as a transport-level failure).
bool MergeTaskCounters(const std::string& blob, TaskMetrics* m);

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_METRICS_H_
