// In-memory span recorder for the benchmark's traced replay. Spans are
// recorded around calls into the library's public API (the library itself
// is not instrumented), kept in memory, and written out once at the end.
#ifndef DSSJ_PERFBENCH_TRACE_H_
#define DSSJ_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/local_joiner.h"

namespace perfbench {

/// Span names. Each names the layer (module) whose public call it wraps,
/// except kRecord (one root per replayed record) and kSetup.
enum SpanName : uint8_t {
  kRecord,
  kSetup,
  kTextLoad,
  kTextTokenize,
  kTextDict,
  kPartitionPlan,
  kRoute,
  kNetEncode,
  kNetDecode,
  kJoin,
  kStoreFreeze,
  kStoreWrite,
  kNumSpanNames,
};
const char* SpanNameString(SpanName name);

/// Work counts recorded next to a core.join span: the joiner's stats delta
/// over the call.
struct JoinCounts {
  uint64_t probes = 0;
  uint64_t postings = 0;
  uint64_t candidates = 0;
  uint64_t results = 0;
  uint64_t merge_steps = 0;
  uint64_t spill_reads = 0;

  static JoinCounts Delta(const dssj::JoinerStats& before, const dssj::JoinerStats& after);
  JoinCounts& operator+=(const JoinCounts& o);
};

struct Span {
  int64_t start_ns = 0;  ///< since the tracer was created
  int64_t end_ns = 0;
  int64_t trace = -1;    ///< record seq shared by one record's spans; -1 for set-up
  int32_t parent = -1;   ///< index of the causing span; -1 for a root
  int32_t counts = -1;   ///< index into Tracer::counts(); -1 if none
  SpanName name = kRecord;
  int8_t partition = -1;  ///< joiner partition for core.join / store spans
};

/// Records spans when enabled; every call is a no-op (no clock read) when
/// disabled, so the same replay code gives the untraced baseline.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int Begin(SpanName name, int parent, int64_t trace, int partition = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.trace = trace;
    s.partition = static_cast<int8_t>(partition);
    s.start_ns = Now();
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = Now();
  }
  void SetCounts(int span, const JoinCounts& counts) {
    if (span < 0) return;
    spans_[static_cast<size_t>(span)].counts = static_cast<int32_t>(counts_.size());
    counts_.push_back(counts);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<JoinCounts>& counts() const { return counts_; }

  /// Writes every span as one tab-separated line (with a header line).
  bool WriteTsv(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<JoinCounts> counts_;
};

/// Per-name totals: a span's self time is its duration minus the time its
/// child spans cover.
struct LayerTime {
  uint64_t spans = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
struct SelfTimes {
  LayerTime by_name[kNumSpanNames];
  /// core.join self time per joiner partition.
  std::vector<int64_t> join_self_ns_by_partition;
  JoinCounts join_counts;
};
SelfTimes ComputeSelfTimes(const Tracer& tracer, int partitions);

}  // namespace perfbench

#endif  // DSSJ_PERFBENCH_TRACE_H_
