#ifndef DSSJ_STREAM_FAULT_H_
#define DSSJ_STREAM_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dssj::stream {

/// Supervised-executor policy (see TopologyBuilder::SetSupervision).
struct SupervisorOptions {
  /// How many times one task may be restarted before the topology is marked
  /// failed (Topology::ok() turns false).
  int max_restarts = 3;

  /// Snapshot-capable tasks checkpoint every this-many canonical input
  /// tuples (spouts: NextTuple calls), truncating their replay log. 0
  /// disables periodic checkpoints: recovery then replays from the start of
  /// the stream, which stays exact but keeps the whole input in the log.
  uint64_t checkpoint_interval = 0;

  /// Exponential restart backoff: the k-th restart of a task sleeps
  /// min(initial << (k-1), max) microseconds before re-creating it.
  int64_t initial_backoff_micros = 1000;
  int64_t max_backoff_micros = 1000000;

  /// Test/bench seam: a task frozen for migration holds the frozen state
  /// this long before handing off, widening the handoff window so races
  /// (kills mid-STATE, watchdog ticks during the freeze) become
  /// deterministic to script. 0 in production.
  int64_t migration_freeze_hold_micros = 0;
};

/// Deterministically kill one task the moment its canonical progress counter
/// reaches `at_count`: for bolts that is "just before executing tuple
/// at_count + 1" (counted over canonical data tuples), for spouts "just
/// before NextTuple call at_count + 1". The simulated crash destroys the
/// spout/bolt object (all component state); the executor thread survives and
/// acts as supervisor.
struct KillFault {
  std::string component;
  int task_index = 0;
  uint64_t at_count = 0;
};

/// Hold one bolt task the moment its canonical progress counter reaches
/// `at_count` (just before executing data tuple at_count + 1) until its
/// inbound queue is full — or closed, or every upstream task has exited so
/// nothing more can arrive — then let it continue. The deterministic
/// stand-in for a slow consumer: "the producer outran this task" becomes a
/// scripted state instead of a wall-clock race (the overload tests gate
/// shedding on it). The executor pops no tuple past `at_count` before the
/// hold, so at release the queue holds exactly the tuples that follow it.
struct StallFault {
  std::string component;
  int task_index = 0;
  uint64_t at_count = 0;
};

enum class LinkFaultKind {
  kDrop,        ///< envelope never reaches the consumer queue (recovered from retention)
  kDuplicate,   ///< envelope is delivered twice (consumer discards the copy)
  kDelay,       ///< producer sleeps before delivering the envelope
  kDisconnect,  ///< network fault: the remote connection carrying this link is
                ///< severed just before this envelope and re-established after
                ///< delay_micros; no envelope is lost (clean close drains the
                ///< socket). On an in-process link it degrades to a delay.
};

/// Kill every bolt task hosted by one simulated worker the moment the
/// topology's source progress (total canonical spout emissions) reaches
/// `at_seq`. Each task dies at its next execution boundary with the same
/// crash semantics as KillFault, so a whole-rank outage is one statement
/// instead of one kill per task — and it composes with migrations to script
/// "worker dies mid-handoff".
struct WorkerKillFault {
  int rank = 0;
  uint64_t at_seq = 0;
};

/// Live-migrate one bolt task to another worker when source progress
/// reaches `at_seq` (see Topology::MigrateTask). Scripted migrations are
/// the deterministic counterpart of the elastic controller's load-driven
/// ones.
struct MigrateAction {
  std::string component;
  int task_index = 0;
  int target_worker = 0;
  uint64_t at_seq = 0;
};

/// A fault on one (producer task → consumer task) link, firing when that
/// link's canonical data sequence number (1-based, assigned by the producer)
/// equals `at_seq`.
struct LinkFault {
  LinkFaultKind kind = LinkFaultKind::kDrop;
  std::string src_component;
  int src_index = 0;
  std::string dst_component;
  int dst_index = 0;
  uint64_t at_seq = 0;
  int64_t delay_micros = 0;  ///< kDelay only
};

/// A deterministic schedule of injected faults, resolved against the
/// topology at Build() (unknown components / out-of-range task indices are
/// build errors). Construct programmatically with the builder methods or
/// from the CLI DSL via Parse():
///
///   kill:<comp>:<task>@<count>
///   stall:<comp>:<task>@<count>
///   kill_worker:<rank>@<seq>
///   migrate:<comp>:<task>-><rank>@<seq>
///   drop:<comp>:<i>-><comp>:<j>@<seq>
///   dup:<comp>:<i>-><comp>:<j>@<seq>
///   delay:<comp>:<i>-><comp>:<j>@<seq>x<micros>
///   disconnect:<comp>:<i>-><comp>:<j>@<seq>x<micros>
///
/// kill_worker and migrate fire on *source progress* — the total canonical
/// tuples emitted by the topology's spouts — because no single task counter
/// spans a whole worker; a UTF-8 "→" is accepted for migrate's arrow.
///
/// Statements are ';'-separated; whitespace around tokens is ignored, e.g.
/// "kill:joiner:0@500; drop:dispatcher:0->joiner:1@120".
class FaultScript {
 public:
  FaultScript() = default;

  static StatusOr<FaultScript> Parse(const std::string& text);

  FaultScript& KillAt(const std::string& component, int task_index, uint64_t at_count) {
    kills_.push_back(KillFault{component, task_index, at_count});
    return *this;
  }
  FaultScript& StallAt(const std::string& component, int task_index, uint64_t at_count) {
    stalls_.push_back(StallFault{component, task_index, at_count});
    return *this;
  }
  FaultScript& DropAt(const std::string& src, int src_index, const std::string& dst,
                      int dst_index, uint64_t at_seq) {
    links_.push_back(
        LinkFault{LinkFaultKind::kDrop, src, src_index, dst, dst_index, at_seq, 0});
    return *this;
  }
  FaultScript& DuplicateAt(const std::string& src, int src_index, const std::string& dst,
                           int dst_index, uint64_t at_seq) {
    links_.push_back(
        LinkFault{LinkFaultKind::kDuplicate, src, src_index, dst, dst_index, at_seq, 0});
    return *this;
  }
  FaultScript& DelayAt(const std::string& src, int src_index, const std::string& dst,
                       int dst_index, uint64_t at_seq, int64_t delay_micros) {
    links_.push_back(LinkFault{LinkFaultKind::kDelay, src, src_index, dst, dst_index, at_seq,
                               delay_micros});
    return *this;
  }
  /// Severs the remote connection carrying the (src task → dst task) link
  /// just before the envelope with canonical sequence `at_seq`, then
  /// reconnects after `reconnect_delay_micros`. Applied to the transport
  /// when the link crosses workers; an in-process link just delays.
  FaultScript& DisconnectAt(const std::string& src, int src_index, const std::string& dst,
                            int dst_index, uint64_t at_seq, int64_t reconnect_delay_micros) {
    links_.push_back(LinkFault{LinkFaultKind::kDisconnect, src, src_index, dst, dst_index,
                               at_seq, reconnect_delay_micros});
    return *this;
  }

  FaultScript& KillWorkerAt(int rank, uint64_t at_seq) {
    worker_kills_.push_back(WorkerKillFault{rank, at_seq});
    return *this;
  }
  FaultScript& MigrateAt(const std::string& component, int task_index, int target_worker,
                         uint64_t at_seq) {
    migrations_.push_back(MigrateAction{component, task_index, target_worker, at_seq});
    return *this;
  }

  bool empty() const {
    return kills_.empty() && stalls_.empty() && links_.empty() && worker_kills_.empty() &&
           migrations_.empty();
  }
  bool has_link_faults() const { return !links_.empty(); }
  /// True when any statement fires on source progress (needs the action
  /// driver thread).
  bool has_progress_actions() const { return !worker_kills_.empty() || !migrations_.empty(); }
  const std::vector<KillFault>& kills() const { return kills_; }
  const std::vector<StallFault>& stalls() const { return stalls_; }
  const std::vector<LinkFault>& link_faults() const { return links_; }
  const std::vector<WorkerKillFault>& worker_kills() const { return worker_kills_; }
  const std::vector<MigrateAction>& migrations() const { return migrations_; }

 private:
  std::vector<KillFault> kills_;
  std::vector<StallFault> stalls_;
  std::vector<LinkFault> links_;
  std::vector<WorkerKillFault> worker_kills_;
  std::vector<MigrateAction> migrations_;
};

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_FAULT_H_
