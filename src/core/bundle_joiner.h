#ifndef DSSJ_CORE_BUNDLE_JOINER_H_
#define DSSJ_CORE_BUNDLE_JOINER_H_

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/local_joiner.h"
#include "core/similarity.h"
#include "core/window.h"

namespace dssj {

/// Configuration of the bundle-based joiner.
struct BundleJoinerOptions {
  /// Similarity (permille, same function family as the join) a record must
  /// have to the bundle pivot to be admitted as a member. 0 means "use the
  /// join threshold" — i.e., bundle the probe with its own join partners,
  /// which is exactly the paper's "join results guide index construction".
  /// For Overlap joins (whose threshold is absolute) admission falls back
  /// to Jaccard >= 0.8.
  int64_t admission_permille = 0;

  /// Members may differ from the pivot by at most this many tokens
  /// (|m ∖ p| + |p ∖ m|); keeps diff-based verification profitable.
  size_t max_diff = 64;

  /// When false, members are resolved by reconstructing their token array
  /// and running a full merge verification — the "individual verification"
  /// baseline of the batch-verification experiment (E7).
  bool batch_verify = true;

  /// Index layout; same tradeoff as RecordJoinerOptions::direct_index.
  /// Direct addressing wins for a joiner holding a dense share of the
  /// token space, a hash map wins for partitioned joiners whose sparse
  /// slice still spans the full token-id range.
  bool direct_index = true;

  /// Memory budget for bundle + index state, in approximate bytes (0 =
  /// unlimited). When the budget is exceeded the oldest members are evicted
  /// ahead of the window policy — counted as budget_evictions with the
  /// horizon in eviction_horizon_seq. The accounting is incremental and
  /// deterministic (postings of dead bundles stay counted until the bundle
  /// dies, mirroring lazy purging).
  size_t max_index_bytes = 0;
};

/// Bundle-based streaming joiner. Stored records that are similar to each
/// other are grouped into *bundles*: a pivot token array plus per-member
/// token diffs. The inverted index posts bundles (not records), shrinking
/// posting lists on duplicate-rich streams; a probe verifies the pivot once
/// and resolves every member from the pivot overlap and the small diffs
/// (batch verification). Produces exactly the same result set as
/// BruteForceJoiner / RecordJoiner.
class BundleJoiner : public LocalJoiner {
 public:
  BundleJoiner(const SimilaritySpec& sim, const WindowSpec& window,
               BundleJoinerOptions options = {});

  void Process(const RecordPtr& r, bool store, bool probe, const ResultCallback& cb) override;

  size_t StoredCount() const override { return alive_members_; }
  size_t MemoryBytes() const override;
  size_t EvictOldest(size_t n) override;
  const JoinerStats& stats() const override { return stats_; }

  /// Number of live bundles (for instrumentation; average bundle size is
  /// StoredCount() / BundleCount()).
  size_t BundleCount() const { return bundles_.size(); }

  /// Checkpointing. Bundle assignment is history-dependent (each record
  /// joins the best bundle existing at its arrival), so unlike RecordJoiner
  /// the state cannot be rebuilt by re-storing records: the snapshot
  /// serializes the full structure — bundles with member diffs, posting
  /// lists verbatim (dead bundle ids included, so lazy purging proceeds
  /// identically after a restore), eviction order, and stats. Probe stamps
  /// reset to zero on restore (per-probe scratch, never observable).
  bool SupportsSnapshot() const override { return true; }
  void Snapshot(std::string* out) const override;
  void Restore(const std::string& blob) override;

  /// Incremental checkpointing: Store, eviction, and index growth record
  /// which bundles were touched, which retired, and which postings were
  /// appended since the last freeze; a delta ships deep copies of just
  /// the dirty bundles plus those logs. FreezeBase serializes the full
  /// image eagerly (bundle state has no cheap immutable view — unlike the
  /// record joiner's refcounted window — so the win here is that bases
  /// are periodic and deltas small).
  bool SupportsIncrementalSnapshot() const override { return true; }
  store::FrozenBlob FreezeBase() override;
  store::FrozenBlob FreezeDelta() override;
  void RestoreDelta(const std::string& blob) override;

 private:
  struct Member {
    uint64_t id = 0;
    uint64_t seq = 0;
    int64_t timestamp = 0;
    uint32_t size = 0;                ///< |m|
    std::vector<TokenId> added;       ///< m ∖ pivot, ascending
    std::vector<TokenId> removed;     ///< pivot ∖ m, ascending
  };

  struct Bundle {
    std::vector<TokenId> pivot;  ///< founding record's tokens
    /// (uid, member), insertion-ordered. A flat vector: the member sweep in
    /// ProbeBundle is the joiner's hottest loop, and uids are removed by
    /// linear search only on eviction (bundles stay small, see max_diff).
    std::vector<std::pair<uint32_t, Member>> members;
    uint32_t next_uid = 0;
    std::vector<TokenId> indexed;     ///< tokens posted for this bundle, ascending
    uint32_t min_size = 0;            ///< over members ever added
    uint32_t max_size = 0;
    uint32_t max_added = 0;           ///< max |added| over members ever added
    uint64_t probe_stamp = 0;         ///< dedups candidate generation per probe
  };

  struct OrderEntry {
    uint64_t bundle_id;
    uint32_t uid;
    int64_t timestamp;
  };

  /// Best admission target found while probing.
  struct AdmissionCandidate {
    uint64_t bundle_id = 0;
    size_t pivot_overlap = 0;
    double score = -1.0;
  };

  void Evict(int64_t now);
  /// Removes the single oldest member (and its bundle when it empties),
  /// maintaining the byte accounting. Returns the member's seq.
  uint64_t EvictOldestEntry();
  /// Per-member / per-bundle contributions to the incremental accounting
  /// backing max_index_bytes. Deterministic O(1) proxies for real resident
  /// bytes (MemoryBytes walks capacities); index postings are charged as
  /// tokens enter a bundle's `indexed` set and released when the bundle
  /// dies, matching lazy posting purges.
  size_t ApproxMemberBytes(const Member& m) const;
  size_t ApproxBundleBytes(const Bundle& b) const;
  void RecomputeApproxBytes();
  void Probe(const Record& r, const ResultCallback& cb, AdmissionCandidate* admission);
  void ProbeBundle(const Record& r, uint64_t bundle_id, Bundle& bundle,
                   const ResultCallback& cb, AdmissionCandidate* admission);
  void Store(const RecordPtr& r, const AdmissionCandidate& admission);
  void AddMemberTokensToIndex(uint64_t bundle_id, Bundle& bundle, const Record& member);
  void ReconstructMemberInto(const Bundle& bundle, const Member& m,
                             std::vector<TokenId>* out);
  static void WriteBundleTo(uint64_t id, const Bundle& b, BinaryWriter* w);
  static void ReadBundleInto(BinaryReader* r, Bundle* b);
  /// Clears the dirty logs: the next FreezeDelta is relative to now.
  void MarkFrozen();

  SimilaritySpec sim_;
  SimilaritySpec admission_sim_;
  WindowSpec window_;
  BundleJoinerOptions options_;

  std::unordered_map<uint64_t, Bundle> bundles_;
  // Inverted index over indexed prefix tokens; exactly one layout is
  // populated, per options_.direct_index. In the dense layout lists that
  // fall empty keep their 24-byte header.
  std::vector<std::vector<uint64_t>> dense_index_;
  std::unordered_map<TokenId, std::vector<uint64_t>> sparse_index_;
  std::deque<OrderEntry> store_order_;
  uint64_t next_bundle_id_ = 0;
  uint64_t probe_stamp_ = 0;
  size_t alive_members_ = 0;
  size_t approx_bytes_ = 0;  ///< Σ ApproxBundleBytes + ApproxMemberBytes, live state

  // Dirty tracking for delta checkpoints (reset by MarkFrozen). The set
  // is ordered so a delta's bundle section serializes deterministically.
  // Posting appends are logged as (token, bundle) pairs because a bundle
  // keeps gaining indexed tokens over its life — rebuilding lists from
  // bundle state could not reproduce live list order.
  std::set<uint64_t> dirty_bundles_;
  std::vector<uint64_t> retired_bundles_;
  std::vector<std::pair<TokenId, uint64_t>> posting_appends_;
  uint64_t order_pops_since_freeze_ = 0;
  uint64_t frozen_order_len_ = 0;

  /// Reused across individual verifications (batch_verify == false) so the
  /// E7 baseline measures merge cost, not per-member allocation.
  std::vector<TokenId> scratch_member_;
  std::vector<TokenId> scratch_kept_;

  JoinerStats stats_;
};

}  // namespace dssj

#endif  // DSSJ_CORE_BUNDLE_JOINER_H_
