#ifndef DSSJ_CORE_LOCAL_JOINER_H_
#define DSSJ_CORE_LOCAL_JOINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/serialize.h"
#include "core/verify.h"
#include "store/frozen.h"
#include "text/record.h"

namespace dssj {

namespace store {
class SpillStore;
}  // namespace store

/// One emitted join result: the probing record and a previously stored
/// partner. Sequence numbers let distributed callers apply the
/// exactly-once rule (emit iff partner_seq < probe_seq).
struct ResultPair {
  uint64_t probe_id = 0;
  uint64_t probe_seq = 0;
  uint64_t partner_id = 0;
  uint64_t partner_seq = 0;

  friend bool operator==(const ResultPair& a, const ResultPair& b) = default;
};

using ResultCallback = std::function<void(const ResultPair&)>;

/// Instrumentation shared by all joiner implementations; benches read these
/// to attribute filtering vs verification cost. Fields irrelevant to an
/// implementation stay zero.
struct JoinerStats {
  uint64_t probes = 0;
  uint64_t stores = 0;
  uint64_t evictions = 0;
  uint64_t results = 0;
  /// Records evicted *ahead of* the window policy — memory budget
  /// (max_index_bytes) or shed-policy pressure (LocalJoiner::EvictOldest).
  /// Also counted in `evictions`.
  uint64_t budget_evictions = 0;
  /// Highest sequence number evicted ahead of the window: probes can miss
  /// stored partners with seq <= this horizon (and only those).
  uint64_t eviction_horizon_seq = 0;

  // Filtering.
  uint64_t postings_scanned = 0;
  uint64_t dead_postings_purged = 0;
  uint64_t candidates = 0;         ///< distinct candidates reaching verification
  uint64_t length_filtered = 0;    ///< pruned by the partner-length bound
  uint64_t position_filtered = 0;  ///< pruned by the positional filter
  uint64_t suffix_filtered = 0;    ///< pruned by the suffix filter (if on)

  // Verification.
  VerifyCounters verify;

  // Bundle-specific.
  uint64_t bundles_created = 0;
  uint64_t members_added = 0;
  uint64_t bundle_candidates = 0;       ///< candidate bundles probed
  uint64_t batch_accepts = 0;           ///< members accepted by the lower bound
  uint64_t batch_rejects = 0;           ///< members rejected by the upper bound
  uint64_t member_diff_resolutions = 0; ///< members resolved via diff merge

  // Tiered spill (joiners with an attached store::SpillStore).
  uint64_t spilled_records = 0;    ///< hot records moved to the cold on-disk tier
  uint64_t spilled_bytes = 0;      ///< payload bytes appended to spill segments
  uint64_t spill_reads = 0;        ///< cold frames read back during probes
  uint64_t spill_read_errors = 0;  ///< unreadable cold frames skipped (corrupt segment)
};

/// A single-partition streaming set-similarity joiner: maintains a sliding
/// window of stored records and, for each probing record, reports every
/// stored record satisfying the similarity predicate.
///
/// Implementations are deliberately single-threaded (the distributed layer
/// provides parallelism by running one joiner per task); callers must
/// serialize Process calls.
class LocalJoiner {
 public:
  virtual ~LocalJoiner() = default;

  /// Handles one record. When `probe` is set, invokes `cb` once per stored
  /// record matching `r` (all matches — callers apply any cross-partition
  /// dedup rule). When `store` is set, `r` joins the window afterwards, so
  /// a record never matches itself. Eviction (by `r`'s timestamp for time
  /// windows) happens before probing. Empty records neither match nor
  /// store.
  virtual void Process(const RecordPtr& r, bool store, bool probe,
                       const ResultCallback& cb) = 0;

  /// Records currently stored in the window.
  virtual size_t StoredCount() const = 0;

  /// Evicts up to `n` of the oldest stored records ahead of the window
  /// policy (memory budgets, overload shedding), always keeping at least
  /// one. Returns the number evicted; counted in stats as budget_evictions
  /// and reflected in eviction_horizon_seq. The default does nothing — not
  /// every joiner has an eviction order (e.g. the brute-force oracle keeps
  /// exact window semantics).
  virtual size_t EvictOldest(size_t /*n*/) { return 0; }

  /// Approximate resident bytes of window + index state.
  virtual size_t MemoryBytes() const = 0;

  virtual const JoinerStats& stats() const = 0;

  /// Checkpoint support for supervised recovery. An implementation
  /// returning true must make Restore(blob-from-Snapshot) on a freshly
  /// constructed joiner (same spec/window/options) reproduce the
  /// snapshotted joiner's observable behavior exactly: identical matches,
  /// in identical callback order, for any subsequent Process sequence.
  /// Internal scratch (probe stamps, caches) need not round-trip.
  virtual bool SupportsSnapshot() const { return false; }
  virtual void Snapshot(std::string* /*out*/) const {
    LOG(FATAL) << "joiner does not support snapshots";
  }
  virtual void Restore(const std::string& /*blob*/) {
    LOG(FATAL) << "joiner does not support snapshots";
  }

  /// Incremental checkpointing for the checkpoint chain. FreezeBase and
  /// FreezeDelta capture a cheap immutable view of the state at the call
  /// boundary (reference bumps + small copies of dirty bookkeeping) and
  /// return the encoder that serializes it later on the checkpoint thread;
  /// both reset the joiner's dirty tracking, so the next FreezeDelta
  /// covers exactly the state touched since this call. A delta blob
  /// (is_delta = true) replays on top of the preceding image via
  /// RestoreDelta; recovery therefore applies Restore(base) then
  /// RestoreDelta(each delta, epoch order). The defaults serialize a full
  /// image eagerly (is_delta = false), so every joiner works under the
  /// chain and incremental support is a pure optimization.
  virtual bool SupportsIncrementalSnapshot() const { return false; }
  virtual store::FrozenBlob FreezeBase() {
    auto blob = std::make_shared<std::string>();
    Snapshot(blob.get());
    store::FrozenBlob f;
    f.encode = [blob](std::string* out) { *out = std::move(*blob); };
    return f;
  }
  virtual store::FrozenBlob FreezeDelta() { return FreezeBase(); }
  virtual void RestoreDelta(const std::string& /*blob*/) {
    LOG(FATAL) << "joiner does not support delta snapshots";
  }

  /// Tiered spill: when attached, the memory-budget path moves cold
  /// window state to `spill` once approximate hot bytes would exceed
  /// `watermark_bytes`, instead of evicting it — probes read cold records
  /// back on demand, so recall is preserved for windows larger than the
  /// budget. The default ignores the store (implementations without an
  /// eviction order, or where cold state has no per-record granularity,
  /// keep PR 3 budget eviction — see docs/INTERNALS.md §13).
  virtual bool SupportsSpill() const { return false; }
  virtual void AttachSpillStore(store::SpillStore* /*spill*/, size_t /*watermark_bytes*/) {}
};

/// Checkpoint helpers shared by the joiner implementations.

inline void WriteRecordTo(const Record& r, BinaryWriter* w) {
  w->WriteU64(r.id);
  w->WriteU64(r.seq);
  w->WriteI64(r.timestamp);
  w->WriteU32Span(r.tokens.data(), r.tokens.size());
}

inline RecordPtr ReadRecordFrom(BinaryReader* r) {
  const uint64_t id = r->ReadU64();
  const uint64_t seq = r->ReadU64();
  const int64_t timestamp = r->ReadI64();
  std::vector<TokenId> tokens;
  r->ReadU32Vec(&tokens);
  return std::make_shared<const Record>(id, seq, timestamp, std::move(tokens));
}

inline void WriteJoinerStats(const JoinerStats& s, BinaryWriter* w) {
  w->WriteU64(s.probes);
  w->WriteU64(s.stores);
  w->WriteU64(s.evictions);
  w->WriteU64(s.results);
  w->WriteU64(s.budget_evictions);
  w->WriteU64(s.eviction_horizon_seq);
  w->WriteU64(s.postings_scanned);
  w->WriteU64(s.dead_postings_purged);
  w->WriteU64(s.candidates);
  w->WriteU64(s.length_filtered);
  w->WriteU64(s.position_filtered);
  w->WriteU64(s.suffix_filtered);
  w->WriteU64(s.verify.merge_steps);
  w->WriteU64(s.verify.full_verifications);
  w->WriteU64(s.verify.diff_verifications);
  w->WriteU64(s.verify.early_exits);
  w->WriteU64(s.bundles_created);
  w->WriteU64(s.members_added);
  w->WriteU64(s.bundle_candidates);
  w->WriteU64(s.batch_accepts);
  w->WriteU64(s.batch_rejects);
  w->WriteU64(s.member_diff_resolutions);
  w->WriteU64(s.spilled_records);
  w->WriteU64(s.spilled_bytes);
  w->WriteU64(s.spill_reads);
  w->WriteU64(s.spill_read_errors);
}

inline void ReadJoinerStats(BinaryReader* r, JoinerStats* s) {
  s->probes = r->ReadU64();
  s->stores = r->ReadU64();
  s->evictions = r->ReadU64();
  s->results = r->ReadU64();
  s->budget_evictions = r->ReadU64();
  s->eviction_horizon_seq = r->ReadU64();
  s->postings_scanned = r->ReadU64();
  s->dead_postings_purged = r->ReadU64();
  s->candidates = r->ReadU64();
  s->length_filtered = r->ReadU64();
  s->position_filtered = r->ReadU64();
  s->suffix_filtered = r->ReadU64();
  s->verify.merge_steps = r->ReadU64();
  s->verify.full_verifications = r->ReadU64();
  s->verify.diff_verifications = r->ReadU64();
  s->verify.early_exits = r->ReadU64();
  s->bundles_created = r->ReadU64();
  s->members_added = r->ReadU64();
  s->bundle_candidates = r->ReadU64();
  s->batch_accepts = r->ReadU64();
  s->batch_rejects = r->ReadU64();
  s->member_diff_resolutions = r->ReadU64();
  s->spilled_records = r->ReadU64();
  s->spilled_bytes = r->ReadU64();
  s->spill_reads = r->ReadU64();
  s->spill_read_errors = r->ReadU64();
}

}  // namespace dssj

#endif  // DSSJ_CORE_LOCAL_JOINER_H_
