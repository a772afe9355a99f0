#include "core/record_joiner.h"

#include <algorithm>

#include "common/logging.h"

namespace dssj {

RecordJoiner::RecordJoiner(const SimilaritySpec& sim, const WindowSpec& window,
                           RecordJoinerOptions options)
    : sim_(sim), window_(window), options_(std::move(options)) {
  if (options_.dedup_by_min_prefix_token) {
    CHECK(options_.token_filter != nullptr)
        << "dedup_by_min_prefix_token requires a token_filter";
  }
  // The positional filter's upper bound assumes the accumulated count covers
  // *every* common token in the scanned prefix region. Under a token filter
  // unowned common tokens are invisible, the count undercounts, and the
  // bound would prune true pairs — so the filter must be off.
  if (options_.token_filter != nullptr) options_.positional_filter = false;
}

size_t RecordJoiner::ApproxStoredBytes(const Record& r) const {
  return sizeof(Record) + sizeof(RecordPtr) + r.tokens.size() * sizeof(TokenId) +
         sim_.PrefixLength(r.size()) * sizeof(Posting);
}

void RecordJoiner::PopOldestStored() {
  // Popping hot past a cold tier would shift every cold slot.
  DCHECK(cold_.empty());
  approx_bytes_ -= ApproxStoredBytes(*store_.front());
  store_.pop_front();
  ++base_;
  ++stats_.evictions;
}

void RecordJoiner::PopOldestCold() {
  if (spill_ != nullptr) spill_->Release(cold_.front().handle);
  cold_.pop_front();
  ++cold_popped_total_;
  ++stats_.evictions;
}

void RecordJoiner::PopOldestOverall() {
  if (!cold_.empty()) {
    PopOldestCold();
  } else {
    PopOldestStored();
  }
}

void RecordJoiner::Evict(int64_t now) {
  if (window_.kind != WindowSpec::Kind::kTime) return;
  // Cold records are strictly older than every hot one, and a hot record
  // may only go once the cold tier is empty (see PopOldestStored).
  while (!cold_.empty() && window_.ExpiredByTime(cold_.front().timestamp, now)) {
    PopOldestCold();
  }
  if (!cold_.empty()) return;
  while (!store_.empty() && window_.ExpiredByTime(store_.front()->timestamp, now)) {
    PopOldestStored();
  }
}

size_t RecordJoiner::EvictOldest(size_t n) {
  size_t evicted = 0;
  while (evicted < n && StoredCount() > 1) {
    if (!cold_.empty()) {
      stats_.eviction_horizon_seq = std::max(stats_.eviction_horizon_seq, cold_.front().seq);
      PopOldestCold();
    } else {
      stats_.eviction_horizon_seq = std::max(stats_.eviction_horizon_seq, store_.front()->seq);
      PopOldestStored();
    }
    ++stats_.budget_evictions;
    ++evicted;
  }
  return evicted;
}

std::vector<TokenId> RecordJoiner::IndexablePrefix(const Record& r) const {
  const size_t prefix_len = sim_.PrefixLength(r.size());
  std::vector<TokenId> prefix;
  prefix.reserve(prefix_len);
  for (size_t i = 0; i < prefix_len; ++i) {
    const TokenId w = r.tokens[i];
    if (options_.token_filter != nullptr && !options_.token_filter(w)) continue;
    prefix.push_back(w);
  }
  return prefix;
}

bool RecordJoiner::AppendCold(const Record& r) {
  std::string payload;
  BinaryWriter w(&payload);
  WriteRecordTo(r, &w);
  store::SpillHandle handle;
  if (!spill_->Append(payload, &handle).ok()) return false;
  ColdStub stub;
  stub.id = r.id;
  stub.seq = r.seq;
  stub.timestamp = r.timestamp;
  stub.size = static_cast<uint32_t>(r.size());
  stub.prefix = IndexablePrefix(r);
  stub.handle = handle;
  cold_.push_back(std::move(stub));
  ++cold_appended_total_;
  ++stats_.spilled_records;
  stats_.spilled_bytes += payload.size();
  return true;
}

bool RecordJoiner::SpillOldestHot() {
  if (spill_ == nullptr || store_.size() <= 1 || !AppendCold(*store_.front())) return false;
  // The record stays in the window and keeps its slot (the newest cold
  // slot is base_ - 1) and its postings, so no eviction is counted and
  // the horizon does not move.
  approx_bytes_ -= ApproxStoredBytes(*store_.front());
  store_.pop_front();
  ++base_;
  return true;
}

Status RecordJoiner::ReadCold(const ColdStub& stub, RecordPtr* out) const {
  std::string payload;
  DSSJ_RETURN_IF_ERROR(spill_->Read(stub.handle, &payload));
  BinaryReader br(payload);
  *out = ReadRecordFrom(&br);
  return Status::OK();
}

namespace {

/// Smallest token common to both records' streaming prefixes, or
/// TokenDictionary-style "no token" when the prefixes are disjoint. For a
/// pair that satisfies the similarity predicate the prefixes always
/// intersect (prefix filtering principle), so callers may treat the
/// no-token case as "do not emit".
constexpr TokenId kNoCommonToken = ~static_cast<TokenId>(0);

TokenId MinCommonPrefixToken(const SimilaritySpec& sim, const Record& a, const Record& b) {
  const size_t pa = sim.PrefixLength(a.size());
  const size_t pb = sim.PrefixLength(b.size());
  size_t i = 0, j = 0;
  while (i < pa && j < pb) {
    if (a.tokens[i] == b.tokens[j]) return a.tokens[i];
    if (a.tokens[i] < b.tokens[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return kNoCommonToken;
}

}  // namespace

void RecordJoiner::Probe(const Record& r, const ResultCallback& cb) {
  ++stats_.probes;
  const size_t prefix_len = sim_.PrefixLength(r.size());
  if (prefix_len == 0) return;
  const size_t lo = sim_.LengthLowerBound(r.size());
  const size_t hi = sim_.LengthUpperBound(r.size());
  const size_t cold_n = cold_.size();
  const uint64_t first = base_ - cold_n;

  ++probe_stamp_;
  if (cand_overlap_.size() < cold_n + store_.size()) {
    cand_overlap_.resize(cold_n + store_.size());
    cand_stamp_.resize(cold_n + store_.size(), 0);
  }
  cand_order_.clear();
  // Memoize MinOverlap per eligible partner length: it is asked for a few
  // distinct lengths per probe but several times each (posting scan +
  // verification), and each computation is an integer division. Lazy fill
  // so lengths never seen cost nothing; skipped when the eligible window
  // is huge (kOverlap allows any length).
  constexpr uint32_t kAlphaUnset = ~0u;
  const bool cache_alpha = hi - lo < 4096;
  if (cache_alpha) alpha_cache_.assign(hi - lo + 1, kAlphaUnset);
  const auto alpha_for = [&](size_t s_size) -> size_t {
    if (!cache_alpha) return sim_.MinOverlap(r.size(), s_size);
    uint32_t& slot = alpha_cache_[s_size - lo];
    if (slot == kAlphaUnset) slot = static_cast<uint32_t>(sim_.MinOverlap(r.size(), s_size));
    return slot;
  };

  // Candidate generation over the probe prefix's posting lists, cold and
  // hot slots alike. Dead postings are compacted away in passing.
  for (size_t i = 0; i < prefix_len; ++i) {
    const TokenId w = r.tokens[i];
    if (options_.token_filter != nullptr && !options_.token_filter(w)) continue;
    std::vector<Posting>* list_ptr;
    if (options_.direct_index) {
      if (w >= dense_index_.size() || dense_index_[w].empty()) continue;
      list_ptr = &dense_index_[w];
    } else {
      const auto it = sparse_index_.find(w);
      if (it == sparse_index_.end()) continue;
      list_ptr = &it->second;
    }
    std::vector<Posting>& list = *list_ptr;
    size_t write = 0;
    for (size_t read = 0; read < list.size(); ++read) {
      const Posting p = list[read];
      if (p.local_id < first) {
        ++stats_.dead_postings_purged;
        continue;
      }
      list[write++] = p;
      ++stats_.postings_scanned;
      const size_t s_size = p.size;
      if (s_size < lo || s_size > hi) {
        ++stats_.length_filtered;
        continue;
      }
      const size_t slot = static_cast<size_t>(p.local_id - first);
      int32_t& ov = cand_overlap_[slot];
      if (cand_stamp_[slot] != probe_stamp_) {
        cand_stamp_[slot] = probe_stamp_;
        ov = 0;
        cand_order_.push_back(p.local_id);
      }
      if (ov < 0) continue;  // already pruned by the positional filter
      if (options_.positional_filter) {
        const size_t alpha = alpha_for(s_size);
        const size_t upper = static_cast<size_t>(ov) + 1 +
                             std::min(r.size() - i - 1, s_size - p.position - 1);
        if (upper < alpha) {
          ov = -1;
          ++stats_.position_filtered;
          continue;
        }
      }
      ++ov;
    }
    list.resize(write);
  }

  // Verification. Only a cold candidate that survived the filters costs
  // a spill read.
  RecordPtr cold;
  for (const uint64_t lid : cand_order_) {
    const size_t slot = static_cast<size_t>(lid - first);
    if (cand_overlap_[slot] < 0) continue;
    ++stats_.candidates;
    const Record* s;
    if (lid < base_) {
      ++stats_.spill_reads;
      if (!ReadCold(cold_[slot], &cold).ok()) {
        // A corrupt frame costs recall for this record only; never a crash.
        ++stats_.spill_read_errors;
        continue;
      }
      s = cold.get();
    } else {
      s = store_[slot - cold_n].get();
    }
    const size_t alpha = alpha_for(s->size());
    if (options_.suffix_filter) {
      // overlap = (|r| + |s| − |r △ s|) / 2, so overlap >= alpha requires
      // |r △ s| <= |r| + |s| − 2·alpha.
      const size_t budget = r.size() + s->size() - 2 * alpha;
      if (SymmetricDifferenceLowerBound(r.tokens, s->tokens,
                                        options_.suffix_filter_depth) > budget) {
        ++stats_.suffix_filtered;
        continue;
      }
    }
    const size_t o = VerifyOverlap(r.tokens, s->tokens, alpha, &stats_.verify);
    if (o < alpha) continue;
    if (options_.dedup_by_min_prefix_token) {
      const TokenId w = MinCommonPrefixToken(sim_, r, *s);
      if (w == kNoCommonToken || !options_.token_filter(w)) continue;
    }
    ++stats_.results;
    cb(ResultPair{r.id, r.seq, s->id, s->seq});
  }
}

void RecordJoiner::Store(const RecordPtr& r) {
  while (window_.OverCount(StoredCount())) PopOldestOverall();
  const size_t incoming = ApproxStoredBytes(*r);
  if (spill_ != nullptr && spill_watermark_bytes_ > 0) {
    // Tiered path: past the watermark, cold records move to disk and stay
    // in the window. Eviction below remains the backstop (spill failure,
    // or a budget even the stubs overflow).
    while (approx_bytes_ + incoming > spill_watermark_bytes_ && SpillOldestHot()) {
    }
  }
  if (options_.max_index_bytes > 0) {
    while (approx_bytes_ + incoming > options_.max_index_bytes && EvictOldest(1) > 0) {
    }
  }
  AppendStored(r);
  ++stats_.stores;
}

void RecordJoiner::AppendStored(const RecordPtr& r) {
  PushHot(r);
  PostRecord(base_ + store_.size() - 1, *r);
}

void RecordJoiner::PushHot(const RecordPtr& r) {
  store_.push_back(r);
  approx_bytes_ += ApproxStoredBytes(*r);
}

void RecordJoiner::AddPosting(TokenId w, const Posting& p) {
  std::vector<Posting>* list;
  if (options_.direct_index) {
    if (w >= dense_index_.size()) {
      dense_index_.resize(std::max<size_t>(w + 1, dense_index_.size() + dense_index_.size() / 2));
    }
    list = &dense_index_[w];
  } else {
    list = &sparse_index_[w];
  }
  // One allocation per list instead of the 1->2->4 growth chain: most
  // lists stay short (Zipf tail), and malloc dominates Store otherwise.
  if (list->capacity() == 0) list->reserve(4);
  list->push_back(p);
}

void RecordJoiner::PostRecord(uint64_t slot, const Record& r) {
  const size_t prefix_len = sim_.PrefixLength(r.size());
  for (size_t i = 0; i < prefix_len; ++i) {
    const TokenId w = r.tokens[i];
    if (options_.token_filter != nullptr && !options_.token_filter(w)) continue;
    AddPosting(w, Posting{slot, static_cast<uint32_t>(i), static_cast<uint32_t>(r.size())});
  }
}

void RecordJoiner::Reindex() {
  CHECK_GE(base_, cold_.size()) << "cold tier larger than the slots before base";
  dense_index_.clear();
  sparse_index_.clear();
  uint64_t slot = FirstSlot();
  for (const ColdStub& stub : cold_) {
    // The stub keeps only the filtered prefix. Without a token filter
    // its j-th token sits at record position j; with one the positional
    // filter is off, so the position is never read.
    for (size_t j = 0; j < stub.prefix.size(); ++j) {
      AddPosting(stub.prefix[j], Posting{slot, static_cast<uint32_t>(j), stub.size});
    }
    ++slot;
  }
  for (const RecordPtr& r : store_) PostRecord(slot++, *r);
}

void RecordJoiner::Process(const RecordPtr& r, bool store, bool probe,
                           const ResultCallback& cb) {
  if (r->size() == 0) return;
  Evict(r->timestamp);
  if (probe) Probe(*r, cb);
  if (store) Store(r);
}

void RecordJoiner::CompactIndex() {
  const auto compact = [this](std::vector<Posting>& list) {
    size_t write = 0;
    for (size_t read = 0; read < list.size(); ++read) {
      if (Alive(list[read].local_id)) {
        list[write++] = list[read];
      } else {
        ++stats_.dead_postings_purged;
      }
    }
    list.resize(write);
    if (list.empty()) std::vector<Posting>().swap(list);  // free the storage
  };
  for (std::vector<Posting>& list : dense_index_) compact(list);
  for (auto& [w, list] : sparse_index_) compact(list);
}

namespace {

// Blob tags (docs/INTERNALS.md §13). Self-contained images inline cold
// records (the migration format); tiered bases carry
// cold records as spill-segment stubs; deltas carry only the window
// suffix touched since the previous freeze.
constexpr uint8_t kTagSelfContained = 0;
constexpr uint8_t kTagTieredBase = 1;
constexpr uint8_t kTagDelta = 2;

}  // namespace

void RecordJoiner::WriteStubTo(const ColdStub& stub, BinaryWriter* w) {
  w->WriteU64(stub.id);
  w->WriteU64(stub.seq);
  w->WriteI64(stub.timestamp);
  w->WriteU32(stub.size);
  w->WriteU32Vec(stub.prefix);
  w->WriteU32(stub.handle.segment);
  w->WriteU64(stub.handle.offset);
  w->WriteU32(stub.handle.length);
}

RecordJoiner::ColdStub RecordJoiner::ReadStubFrom(BinaryReader* r) {
  ColdStub stub;
  stub.id = r->ReadU64();
  stub.seq = r->ReadU64();
  stub.timestamp = r->ReadI64();
  stub.size = r->ReadU32();
  r->ReadU32Vec(&stub.prefix);
  stub.handle.segment = r->ReadU32();
  stub.handle.offset = r->ReadU64();
  stub.handle.length = r->ReadU32();
  return stub;
}

void RecordJoiner::MarkFrozen() {
  frozen_base_ = base_;
  frozen_next_id_ = base_ + store_.size();
  frozen_cold_len_ = cold_.size();
  frozen_cold_popped_ = cold_popped_total_;
}

void RecordJoiner::Snapshot(std::string* out) const {
  BinaryWriter w(out);
  w.WriteU8(kTagSelfContained);
  w.WriteU64(cold_.size());
  for (const ColdStub& stub : cold_) {
    // The spill payload *is* the WriteRecordTo serialization, so cold
    // records inline as raw read-back bytes. Unreadable cold state makes
    // a self-contained image impossible — this is the migration path, so
    // it is a hard failure rather than silent record loss.
    std::string payload;
    const Status st = spill_->Read(stub.handle, &payload);
    CHECK(st.ok()) << "cold record unreadable during snapshot: " << st.ToString();
    out->append(payload);
  }
  w.WriteU64(store_.size());
  for (const RecordPtr& r : store_) WriteRecordTo(*r, &w);
  WriteJoinerStats(stats_, &w);
}

store::FrozenBlob RecordJoiner::FreezeBase() {
  auto hot = std::make_shared<const std::vector<RecordPtr>>(store_.begin(), store_.end());
  auto cold = std::make_shared<const std::vector<ColdStub>>(cold_.begin(), cold_.end());
  auto stats = std::make_shared<const JoinerStats>(stats_);
  MarkFrozen();
  store::FrozenBlob f;
  f.is_delta = false;
  f.encode = [hot, cold, stats](std::string* out) {
    BinaryWriter w(out);
    w.WriteU8(kTagTieredBase);
    w.WriteU64(cold->size());
    for (const ColdStub& stub : *cold) WriteStubTo(stub, &w);
    w.WriteU64(hot->size());
    for (const RecordPtr& rec : *hot) WriteRecordTo(*rec, &w);
    WriteJoinerStats(*stats, &w);
  };
  return f;
}

store::FrozenBlob RecordJoiner::FreezeDelta() {
  // The window is FIFO, so everything that changed since the last freeze
  // is two front-pop counts plus the back suffixes that survived. An
  // entry appended *and* popped within the interval shows up only in the
  // pop count (pops consume older entries first, so popped appends are
  // exactly the non-surviving prefix of the appended sequence).
  const uint64_t hot_pops = base_ - frozen_base_;
  const uint64_t cold_pops = cold_popped_total_ - frozen_cold_popped_;
  const size_t hot_start =
      frozen_next_id_ > base_ ? static_cast<size_t>(frozen_next_id_ - base_) : 0;
  const size_t cold_start =
      frozen_cold_len_ > cold_pops ? static_cast<size_t>(frozen_cold_len_ - cold_pops) : 0;
  auto hot = std::make_shared<const std::vector<RecordPtr>>(
      store_.begin() + static_cast<ptrdiff_t>(hot_start), store_.end());
  auto cold = std::make_shared<const std::vector<ColdStub>>(
      cold_.begin() + static_cast<ptrdiff_t>(cold_start), cold_.end());
  auto stats = std::make_shared<const JoinerStats>(stats_);
  MarkFrozen();
  store::FrozenBlob f;
  f.is_delta = true;
  f.encode = [hot_pops, cold_pops, hot, cold, stats](std::string* out) {
    BinaryWriter w(out);
    w.WriteU8(kTagDelta);
    w.WriteU64(hot_pops);
    w.WriteU64(cold_pops);
    w.WriteU64(hot->size());
    for (const RecordPtr& rec : *hot) WriteRecordTo(*rec, &w);
    w.WriteU64(cold->size());
    for (const ColdStub& stub : *cold) WriteStubTo(stub, &w);
    WriteJoinerStats(*stats, &w);
  };
  return f;
}

void RecordJoiner::Restore(const std::string& blob) {
  store_.clear();
  approx_bytes_ = 0;
  cand_overlap_.clear();
  cand_stamp_.clear();
  probe_stamp_ = 0;
  cand_order_.clear();
  cold_.clear();
  cold_appended_total_ = 0;
  cold_popped_total_ = 0;
  BinaryReader r(blob);
  const uint8_t tag = r.ReadU8();
  CHECK(tag != kTagDelta) << "delta blob passed to Restore (use RestoreDelta)";
  uint64_t dropped_stubs = 0;
  const uint64_t cold_n = r.ReadU64();
  for (uint64_t i = 0; i < cold_n; ++i) {
    if (tag == kTagSelfContained) {
      // Rebuild the cold tier exactly: re-append to fresh segments so the
      // hot/cold split round-trips. With no spill attached (or once an
      // append fails) the remaining cold records become the oldest hot
      // entries, preserving window order.
      const RecordPtr rec = ReadRecordFrom(&r);
      if (spill_ != nullptr && store_.empty() && AppendCold(*rec)) continue;
      PushHot(rec);
    } else {
      ColdStub stub = ReadStubFrom(&r);
      // A stub whose frame did not survive (torn segment truncated away)
      // costs that one record; recovery continues.
      if (spill_ == nullptr || !spill_->Reref(stub.handle)) {
        ++dropped_stubs;
        continue;
      }
      cold_.push_back(std::move(stub));
      ++cold_appended_total_;
    }
  }
  const uint64_t hot_n = r.ReadU64();
  for (uint64_t i = 0; i < hot_n; ++i) PushHot(ReadRecordFrom(&r));
  base_ = cold_.size();
  Reindex();
  ReadJoinerStats(&r, &stats_);
  stats_.spill_read_errors += dropped_stubs;
  MarkFrozen();
}

void RecordJoiner::RestoreDelta(const std::string& blob) {
  BinaryReader r(blob);
  const uint8_t tag = r.ReadU8();
  CHECK(tag == kTagDelta) << "non-delta blob passed to RestoreDelta";
  const uint64_t hot_pops = r.ReadU64();
  const uint64_t cold_pops = r.ReadU64();
  // Pops beyond what this replica materialized refer to entries appended
  // and popped within the interval — they never existed here. Hot pops
  // include records the live joiner spilled in place (they come back as
  // the delta's cold stubs), so the window is composed first and the
  // index rebuilt from it in slot order, the order the live joiner's
  // posting lists hold.
  for (uint64_t i = 0; i < cold_pops && !cold_.empty(); ++i) PopOldestCold();
  const uint64_t hot_k = std::min<uint64_t>(hot_pops, store_.size());
  for (uint64_t i = 0; i < hot_k; ++i) {
    approx_bytes_ -= ApproxStoredBytes(*store_.front());
    store_.pop_front();
  }
  base_ += hot_pops;
  const uint64_t hot_n = r.ReadU64();
  for (uint64_t i = 0; i < hot_n; ++i) PushHot(ReadRecordFrom(&r));
  uint64_t dropped_stubs = 0;
  const uint64_t cold_n = r.ReadU64();
  for (uint64_t i = 0; i < cold_n; ++i) {
    ColdStub stub = ReadStubFrom(&r);
    if (spill_ == nullptr || !spill_->Reref(stub.handle)) {
      ++dropped_stubs;
      continue;
    }
    cold_.push_back(std::move(stub));
    ++cold_appended_total_;
  }
  Reindex();
  ReadJoinerStats(&r, &stats_);
  stats_.spill_read_errors += dropped_stubs;
  MarkFrozen();
}

size_t RecordJoiner::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const RecordPtr& s : store_) bytes += sizeof(Record) + s->tokens.size() * sizeof(TokenId);
  // Cold records live on disk; only their stubs are resident.
  bytes += cold_.size() * sizeof(ColdStub);
  for (const ColdStub& stub : cold_) bytes += stub.prefix.capacity() * sizeof(TokenId);
  bytes += dense_index_.capacity() * sizeof(std::vector<Posting>);
  for (const std::vector<Posting>& list : dense_index_) {
    bytes += list.capacity() * sizeof(Posting);
  }
  // ~per-node overhead of the hash map: key + list header + bucket/next.
  bytes += sparse_index_.size() * (sizeof(TokenId) + sizeof(std::vector<Posting>) + 16);
  for (const auto& [w, list] : sparse_index_) {
    bytes += list.capacity() * sizeof(Posting);
  }
  return bytes;
}

}  // namespace dssj
