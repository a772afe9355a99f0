// On-disk overflow tier for cold window state: append-only segment files
// of checksummed frames, addressed by (segment, offset, length) handles.
// The PR 3 memory-budget path spills cold records here instead of
// evicting them; probes read them back on demand; window expiry releases
// them and sealed all-dead segments are reclaimed (docs/INTERNALS.md §13).
#ifndef DSSJ_STORE_SPILL_H_
#define DSSJ_STORE_SPILL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace dssj::store {

/// Stable address of one spilled frame. Valid until Release()d.
struct SpillHandle {
  uint32_t segment = 0;
  uint64_t offset = 0;
  uint32_t length = 0;  // payload bytes (excludes frame header)
};

/// One joiner task's spill directory. Not thread-safe — owned and driven
/// entirely by the task thread (reads on probe, appends on store); the
/// checkpoint service never touches it.
///
/// Each segment file is opened once and its descriptor kept until the
/// segment retires or is deleted (or the store is destroyed): an append
/// is one write(2) of the frame, a read one pread(2) of header + payload.
/// Appends are not fsync'd.
///
/// GC discipline: Release() drops a frame's liveness; a sealed segment
/// whose frames are all dead is *retired* (tracked, file kept) rather
/// than deleted, because a base checkpoint written earlier may still hold
/// handles into it. Retired segments stay until the owner confirms a base
/// checkpoint that post-dates the retirement is durable (TakeRetireMark at
/// freeze, DeleteRetiredBefore when durable).
class SpillStore {
 public:
  /// Single-valued; stays until perfbench/ stops passing it to Open.
  enum class GcPolicy : uint8_t { kDeferred = 1 };

  /// Opens (creating if needed) the spill directory. Existing segments
  /// from a previous incarnation are scanned: torn tails are truncated
  /// away, intact frames become *unclaimed* — Reref() during restore
  /// claims the ones the recovered state references, PurgeUnclaimed()
  /// afterwards deletes the rest.
  static Status Open(const std::string& dir, size_t segment_bytes, GcPolicy gc,
                     std::unique_ptr<SpillStore>* out);

  ~SpillStore();
  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Appends one frame to the active segment (rotating first if the
  /// active segment is at or past the size limit) and returns its handle.
  Status Append(const std::string& payload, SpillHandle* handle);

  /// Reads one frame back, validating its checksum. A corrupt or missing
  /// frame is a clean non-OK Status (callers count it and move on).
  Status Read(const SpillHandle& handle, std::string* payload) const;

  /// Marks a frame dead. When this kills the last live frame of a sealed
  /// segment, the segment is retired.
  void Release(const SpillHandle& handle);

  /// Claims an unclaimed frame during restore (inverse of Release for
  /// frames inherited from a previous incarnation). Returns false if the
  /// handle does not address an intact frame on disk.
  bool Reref(const SpillHandle& handle);

  /// Deletes every frame no restore claimed, then any segment left empty.
  Status PurgeUnclaimed();

  /// Current retirement watermark: retired segments are numbered by the
  /// order they retire, and the mark is one past the newest. A caller
  /// freezing a base checkpoint records the mark; once that checkpoint is
  /// durable, DeleteRetiredBefore(mark) reclaims the files no durable
  /// state can reference.
  uint64_t TakeRetireMark() const { return retire_seq_; }
  Status DeleteRetiredBefore(uint64_t mark);

  /// Total payload bytes currently live on disk (approximate RSS relief).
  uint64_t live_bytes() const { return live_bytes_; }
  const std::string& dir() const { return dir_; }

 private:
  struct Segment {
    uint64_t file_bytes = 0;   // current file size (next append offset)
    uint64_t live = 0;         // live frames
    uint64_t unclaimed = 0;    // intact frames awaiting Reref after Open
    bool sealed = false;       // rotation happened; no more appends
    uint64_t retired_at = 0;   // retire_seq_ value when retired (0 = live)
    int fd = -1;               // open until retired or deleted
    std::vector<SpillHandle> unclaimed_frames;
  };

  SpillStore(std::string dir, size_t segment_bytes)
      : dir_(std::move(dir)), segment_bytes_(segment_bytes) {}

  std::string SegmentPath(uint32_t id) const;
  void MaybeRetire(Segment* seg);
  /// Ends appends to the active segment `seg` and moves on to the next id.
  void SealActive(Segment* seg);
  /// Closes the segment's descriptor, removes its file and forgets it.
  Status DeleteSegment(uint32_t id);

  std::string dir_;
  size_t segment_bytes_;
  std::map<uint32_t, Segment> segments_;
  uint32_t active_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t retire_seq_ = 1;  // next retirement stamp; mark 1 = nothing retired
  std::string frame_;        // Append's encode buffer, reused
};

}  // namespace dssj::store

#endif  // DSSJ_STORE_SPILL_H_
