#include "store/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "store/format.h"

namespace dssj::store {

Status SpillStore::Open(const std::string& dir, size_t segment_bytes, GcPolicy /*gc*/,
                        std::unique_ptr<SpillStore>* out) {
  DSSJ_RETURN_IF_ERROR(EnsureDir(dir));
  std::unique_ptr<SpillStore> store(new SpillStore(dir, segment_bytes));
  std::vector<std::string> names;
  DSSJ_RETURN_IF_ERROR(ListStoreFiles(dir, &names));
  uint32_t max_id = 0;
  bool any = false;
  for (const std::string& name : names) {
    int kind = 0;
    uint64_t id = 0;
    if (!ParseStoreFileName(name, &kind, &id) || kind != 2) continue;
    const uint32_t seg_id = static_cast<uint32_t>(id);
    any = true;
    max_id = std::max(max_id, seg_id);
    const std::string path = dir + "/" + name;
    // In the map before anything can fail, so the destructor closes the fd.
    Segment& seg = store->segments_[seg_id];
    seg.fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (seg.fd < 0) return Status::Internal("cannot open " + path + ": " + std::strerror(errno));
    std::string bytes;
    DSSJ_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
    // Walk frames until the first corrupt one; everything after a torn
    // frame is unreachable (appends are strictly sequential), so the
    // file is truncated to the last intact frame boundary.
    size_t offset = 0;
    std::string payload;
    while (offset < bytes.size()) {
      size_t frame_end = 0;
      if (!ReadSegmentFrame(bytes.data(), bytes.size(), offset, &payload, &frame_end).ok()) {
        break;
      }
      SpillHandle h;
      h.segment = seg_id;
      h.offset = offset;
      h.length = static_cast<uint32_t>(payload.size());
      seg.unclaimed_frames.push_back(h);
      ++seg.unclaimed;
      offset = frame_end;
    }
    if (offset < bytes.size() && ::ftruncate(seg.fd, static_cast<off_t>(offset)) != 0) {
      return Status::Internal("cannot truncate " + path + ": " + std::strerror(errno));
    }
    seg.file_bytes = offset;
    seg.sealed = true;  // a new incarnation never appends to inherited segments
    if (seg.unclaimed == 0) DSSJ_RETURN_IF_ERROR(store->DeleteSegment(seg_id));
  }
  store->active_ = any ? max_id + 1 : 0;
  *out = std::move(store);
  return Status::OK();
}

SpillStore::~SpillStore() {
  for (const auto& [id, seg] : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
}

std::string SpillStore::SegmentPath(uint32_t id) const {
  return dir_ + "/" + SegmentFileName(id);
}

void SpillStore::SealActive(Segment* seg) {
  seg->sealed = true;
  MaybeRetire(seg);
  ++active_;
}

Status SpillStore::Append(const std::string& payload, SpillHandle* handle) {
  Segment* seg = &segments_[active_];
  if (seg->file_bytes >= segment_bytes_ && seg->file_bytes > 0) {
    SealActive(seg);
    seg = &segments_[active_];
  }
  if (seg->fd < 0) {
    const std::string path = SegmentPath(active_);
    seg->fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (seg->fd < 0) {
      return Status::Internal("cannot open " + path + ": " + std::strerror(errno));
    }
  }
  frame_.clear();
  AppendSegmentFrame(payload, &frame_);
  const ssize_t written = ::write(seg->fd, frame_.data(), frame_.size());
  if (written != static_cast<ssize_t>(frame_.size())) {
    // A partial frame may sit at the tail now; no later append may land
    // behind it (reopening truncates it away).
    const std::string path = SegmentPath(active_);
    if (written > 0) SealActive(seg);
    return Status::Internal("short append to " + path);
  }
  handle->segment = active_;
  handle->offset = seg->file_bytes;
  handle->length = static_cast<uint32_t>(payload.size());
  seg->file_bytes += frame_.size();
  ++seg->live;
  live_bytes_ += payload.size();
  return Status::OK();
}

Status SpillStore::Read(const SpillHandle& handle, std::string* payload) const {
  auto it = segments_.find(handle.segment);
  if (it == segments_.end() || it->second.fd < 0) {
    return Status::NotFound("spill segment missing");
  }
  std::string frame(SegmentFrameBytes(handle.length), '\0');
  const ssize_t got =
      ::pread(it->second.fd, frame.data(), frame.size(), static_cast<off_t>(handle.offset));
  if (got < 0) return Status::Internal(std::string("spill read: ") + std::strerror(errno));
  DSSJ_RETURN_IF_ERROR(ReadSegmentFrame(frame.data(), static_cast<size_t>(got), 0, payload,
                                        /*frame_end=*/nullptr));
  if (payload->size() != handle.length) {
    return Status::InvalidArgument("spill frame length disagrees with handle");
  }
  return Status::OK();
}

void SpillStore::Release(const SpillHandle& handle) {
  auto it = segments_.find(handle.segment);
  if (it == segments_.end()) return;
  Segment& seg = it->second;
  if (seg.live == 0) return;
  --seg.live;
  live_bytes_ -= std::min<uint64_t>(live_bytes_, handle.length);
  MaybeRetire(&seg);
}

void SpillStore::MaybeRetire(Segment* seg) {
  if (!seg->sealed || seg->live != 0 || seg->unclaimed != 0 || seg->retired_at != 0) return;
  seg->retired_at = retire_seq_++;
  // Nothing live reads a retired segment; only an older base checkpoint
  // may still name its file.
  if (seg->fd >= 0) ::close(seg->fd);
  seg->fd = -1;
}

Status SpillStore::DeleteSegment(uint32_t id) {
  auto it = segments_.find(id);
  if (it != segments_.end()) {
    if (it->second.fd >= 0) ::close(it->second.fd);
    segments_.erase(it);
  }
  return RemoveFile(SegmentPath(id));
}

bool SpillStore::Reref(const SpillHandle& handle) {
  auto it = segments_.find(handle.segment);
  if (it == segments_.end()) return false;
  Segment& seg = it->second;
  auto frame = std::find_if(seg.unclaimed_frames.begin(), seg.unclaimed_frames.end(),
                            [&](const SpillHandle& h) {
                              return h.offset == handle.offset && h.length == handle.length;
                            });
  if (frame == seg.unclaimed_frames.end()) return false;
  seg.unclaimed_frames.erase(frame);
  --seg.unclaimed;
  ++seg.live;
  live_bytes_ += handle.length;
  return true;
}

Status SpillStore::PurgeUnclaimed() {
  std::vector<uint32_t> dead;
  for (auto& [id, seg] : segments_) {
    seg.unclaimed = 0;
    seg.unclaimed_frames.clear();
    seg.unclaimed_frames.shrink_to_fit();
    if (seg.sealed && seg.live == 0 && seg.retired_at == 0) {
      seg.retired_at = retire_seq_++;
      dead.push_back(id);
    }
  }
  for (uint32_t id : dead) DSSJ_RETURN_IF_ERROR(DeleteSegment(id));
  return Status::OK();
}

Status SpillStore::DeleteRetiredBefore(uint64_t mark) {
  std::vector<uint32_t> dead;
  for (const auto& [id, seg] : segments_) {
    if (seg.retired_at != 0 && seg.retired_at < mark) dead.push_back(id);
  }
  for (uint32_t id : dead) DSSJ_RETURN_IF_ERROR(DeleteSegment(id));
  return Status::OK();
}

}  // namespace dssj::store
