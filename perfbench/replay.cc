#include "replay.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/stats.h"
#include "net/frame_arena.h"
#include "net/wire.h"
#include "store/spill.h"
#include "store/state_store.h"
#include "stream/channel.h"

namespace perfbench {
namespace {

// Task ids written into wire frames. They only label the link; the
// topology's own numbering is not observable through the public API.
constexpr int32_t kDispatcherTask = 1;
constexpr int32_t kFirstJoinerTask = 2;
constexpr int64_t kFlagStore = 1;
constexpr int64_t kFlagProbe = 2;

/// Per-partition store state, mirroring what a supervised joiner task
/// owns: a checkpoint chain, and on spill workloads a spill directory.
struct PartitionStore {
  std::unique_ptr<dssj::store::SpillStore> spill;
  std::unique_ptr<dssj::store::StateStore> chain;
  uint64_t since_checkpoint = 0;
  uint64_t epoch = 0;
};

}  // namespace

ReplayResult Replay(const Workload& w, const std::vector<dssj::RecordPtr>& input,
                    const dssj::DistributedJoinOptions& options, const std::string& store_dir,
                    Tracer* tracer, bool collect_pairs) {
  ReplayResult res;
  const int k = options.num_joiners;
  std::unique_ptr<dssj::Router> router = dssj::MakeRouter(options);
  std::vector<std::unique_ptr<dssj::LocalJoiner>> joiners;
  for (int p = 0; p < k; ++p) joiners.push_back(dssj::MakeLocalJoiner(options, p));

  // Spill workloads own a spill directory and a checkpoint chain per
  // partition, as supervised joiner tasks do. Other workloads get chains
  // only when traced, for the final-state snapshot probe below.
  const bool chains = w.spill || tracer->enabled();
  std::vector<PartitionStore> stores(chains ? static_cast<size_t>(k) : 0);
  // Freezes partition p's joiner and writes the checkpoint, as the async
  // checkpoint service does (encode + write), but inline on this thread.
  auto checkpoint = [&](int p, int parent, int64_t trace) {
    PartitionStore& ps = stores[static_cast<size_t>(p)];
    dssj::LocalJoiner& joiner = *joiners[static_cast<size_t>(p)];
    const bool base = ps.epoch % options.delta_base_interval == 0;
    int span = tracer->Begin(kStoreFreeze, parent, trace, p);
    dssj::store::FrozenBlob blob = base ? joiner.FreezeBase() : joiner.FreezeDelta();
    const uint64_t mark = blob.is_delta || !ps.spill ? 0 : ps.spill->TakeRetireMark();
    tracer->End(span);
    span = tracer->Begin(kStoreWrite, parent, trace, p);
    std::string payload;
    blob.encode(&payload);
    dssj::Status st = blob.is_delta ? ps.chain->WriteDelta(ps.epoch, payload)
                                    : ps.chain->WriteBase(ps.epoch, payload);
    if (st.ok() && !blob.is_delta && ps.spill) st = ps.spill->DeleteRetiredBefore(mark);
    tracer->End(span);
    if (!st.ok() && res.ok) {
      res.ok = false;
      res.error = "checkpoint write failed: " + st.ToString();
    }
    ++ps.epoch;
    res.checkpoint_bytes += payload.size();
  };
  const auto watermark = static_cast<size_t>(options.spill_watermark *
                                             static_cast<double>(options.max_index_bytes));
  for (int p = 0; p < static_cast<int>(stores.size()); ++p) {
    PartitionStore& ps = stores[static_cast<size_t>(p)];
    const std::string suffix = "_p" + std::to_string(p);
    ps.chain = std::make_unique<dssj::store::StateStore>(store_dir + "/task" + suffix);
    if (!w.spill) continue;
    const dssj::Status st = dssj::store::SpillStore::Open(
        store_dir + "/spill_joiner" + suffix, options.store_segment_bytes,
        dssj::store::SpillStore::GcPolicy::kDeferred, &ps.spill);
    if (!st.ok()) {
      res.ok = false;
      res.error = "spill store: " + st.ToString();
      return res;
    }
    joiners[static_cast<size_t>(p)]->AttachSpillStore(ps.spill.get(), watermark);
    checkpoint(p, -1, -1);  // the seed base every supervised task starts from
  }

  const int workers = options.num_workers > 0 ? options.num_workers : k;
  const bool wire = w.transport == dssj::JoinTransport::kLoopback;
  const dssj::net::PayloadCodec codec = dssj::RecordWireCodec();
  dssj::net::FrameArenaPool arenas(options.net_arena_pool);
  dssj::net::Frame frame;
  std::vector<dssj::stream::Envelope> batch(1);
  // Sends one dispatcher->joiner tuple across the wire as one DATA frame
  // and parses it back into arena storage, as the loopback transport does.
  // Returns the decoded record, or null (with res.error set) on failure.
  auto round_trip = [&](const dssj::RecordPtr& rec, const dssj::RouteTarget& target, int parent,
                        int64_t trace) -> dssj::RecordPtr {
    const int p = target.partition;
    const int64_t flags = (target.store ? kFlagStore : 0) | (target.probe ? kFlagProbe : 0);
    batch[0].tuple = dssj::stream::MakeTuple(std::shared_ptr<const void>(rec), flags,
                                             static_cast<int64_t>(dssj::NowMicros()));
    batch[0].tuple.set_payload_bytes(rec->SerializedBytes());
    batch[0].source_task = kDispatcherTask;
    std::shared_ptr<dssj::net::FrameArena> arena = arenas.Acquire();
    std::string& bytes = arena->bytes();
    int span = tracer->Begin(kNetEncode, parent, trace, p);
    dssj::net::AppendDataFrame(options.wire_codec, kDispatcherTask, kFirstJoinerTask + p, batch,
                               &codec, &bytes);
    tracer->End(span);
    span = tracer->Begin(kNetDecode, parent, trace, p);
    size_t consumed = 0;
    std::string error;
    const dssj::net::ParseStatus st =
        dssj::net::ParseFrame(bytes.data(), bytes.size(), &codec,
                              dssj::net::kDefaultMaxFrameBytes, &frame, &consumed, &error, arena);
    tracer->End(span);
    if (st != dssj::net::ParseStatus::kFrame || consumed != bytes.size() ||
        frame.envelopes.size() != 1) {
      res.ok = false;
      res.error = "wire round trip failed: " + error;
      return nullptr;
    }
    ++res.wire_tuples;
    res.wire_bytes += bytes.size();
    return frame.envelopes[0].tuple.Ptr<dssj::Record>(0);
  };

  std::vector<dssj::RouteTarget> targets;
  const dssj::ResultCallback on_pair = [&](const dssj::ResultPair& pair) {
    if (pair.partner_seq >= pair.probe_seq) return;  // the topology's exactly-once rule
    ++res.pairs;
    if (collect_pairs) res.pair_ids.emplace_back(pair.probe_id, pair.partner_id);
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (const dssj::RecordPtr& rec : input) {
    const auto trace = static_cast<int64_t>(rec->seq);
    const int root = tracer->Begin(kRecord, -1, trace);
    int span = tracer->Begin(kRoute, root, trace);
    router->Route(*rec, targets);
    tracer->End(span);
    res.route_targets += targets.size();
    for (const dssj::RouteTarget& target : targets) {
      const int p = target.partition;
      dssj::RecordPtr delivered = rec;
      // Joiner p lives on another simulated worker than the dispatcher.
      if (wire && p % workers != 0) {
        delivered = round_trip(rec, target, root, trace);
        if (delivered == nullptr) return res;
      }
      dssj::LocalJoiner& joiner = *joiners[static_cast<size_t>(p)];
      span = tracer->Begin(kJoin, root, trace, p);
      dssj::JoinerStats before;
      if (tracer->enabled()) before = joiner.stats();
      // The joiner task's detach-on-store: stored records must own their
      // tokens rather than pin a frame arena.
      joiner.Process(target.store ? dssj::DetachRecord(delivered) : delivered, target.store,
                     target.probe, on_pair);
      tracer->End(span);
      if (tracer->enabled()) tracer->SetCounts(span, JoinCounts::Delta(before, joiner.stats()));
      if (w.spill) {
        PartitionStore& ps = stores[static_cast<size_t>(p)];
        if (++ps.since_checkpoint >= kCheckpointInterval) {
          ps.since_checkpoint = 0;
          checkpoint(p, root, trace);
        }
      }
    }
    tracer->End(root);
  }
  res.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const auto& joiner : joiners) {
    res.spilled_bytes += joiner->stats().spilled_bytes;
    if (joiner->stats().spill_read_errors > 0 && res.ok) {
      res.ok = false;
      res.error = "spill read errors during replay";
    }
  }

  // Probes of layers this workload bypasses, outside the replay's timing,
  // so a traced run reports a cost for every layer: the wire codec on the
  // tuples a 2-worker placement would send, and one snapshot of each
  // partition's final window state. They are root spans of their own.
  if (tracer->enabled() && !wire) {
    for (const dssj::RecordPtr& rec : input) {
      router->Route(*rec, targets);
      for (const dssj::RouteTarget& target : targets) {
        if (target.partition % 2 != 0 &&
            round_trip(rec, target, -1, static_cast<int64_t>(rec->seq)) == nullptr) {
          return res;
        }
      }
    }
  }
  if (tracer->enabled() && !w.spill) {
    for (int p = 0; p < k; ++p) checkpoint(p, -1, -1);
  }
  if (collect_pairs) std::sort(res.pair_ids.begin(), res.pair_ids.end());
  return res;
}

}  // namespace perfbench
