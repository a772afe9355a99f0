#include "store/state_store.h"

#include <algorithm>

#include "store/format.h"

namespace dssj::store {
namespace {

struct StoreFile {
  int kind = 0;  // 0 base, 1 delta
  uint64_t epoch = 0;
  std::string name;
};

// Checkpoint files in the directory, epoch-ascending (bases before deltas
// at equal epoch, though the writer never produces both for one epoch).
Status ListCheckpoints(const std::string& dir, std::vector<StoreFile>* out) {
  std::vector<std::string> names;
  DSSJ_RETURN_IF_ERROR(ListStoreFiles(dir, &names));
  out->clear();
  for (const std::string& name : names) {
    int kind = 0;
    uint64_t id = 0;
    if (!ParseStoreFileName(name, &kind, &id) || kind > 1) continue;
    out->push_back({kind, id, name});
  }
  std::sort(out->begin(), out->end(), [](const StoreFile& a, const StoreFile& b) {
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    return a.kind < b.kind;
  });
  return Status::OK();
}

// Reads + validates one checkpoint file. Any corruption (torn write, bit
// flip, foreign bytes) comes back as a non-OK Status, never a crash.
Status LoadCheckpoint(const std::string& path, CheckpointKind want_kind, uint64_t want_epoch,
                      std::string* payload) {
  std::string bytes;
  DSSJ_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  CheckpointKind kind = CheckpointKind::kBase;
  uint64_t epoch = 0;
  DSSJ_RETURN_IF_ERROR(DecodeCheckpointFile(bytes.data(), bytes.size(), &kind, &epoch, payload));
  if (kind != want_kind || epoch != want_epoch) {
    return Status::InvalidArgument("checkpoint file header disagrees with file name");
  }
  return Status::OK();
}

}  // namespace

Status StateStore::WriteBase(uint64_t epoch, const std::string& payload) {
  if (dir_.empty()) {
    mem_ = RecoveredChain{true, epoch, payload, {}};
    return Status::OK();
  }
  DSSJ_RETURN_IF_ERROR(EnsureDir(dir_));
  std::string image;
  EncodeCheckpointFile(CheckpointKind::kBase, epoch, payload, &image);
  DSSJ_RETURN_IF_ERROR(WriteFileAtomic(dir_ + "/" + BaseFileName(epoch), image));
  // Everything older than this base is unreachable by any recovery
  // composition; reclaim it now so the directory stays O(interval) files.
  std::vector<StoreFile> files;
  DSSJ_RETURN_IF_ERROR(ListCheckpoints(dir_, &files));
  for (const StoreFile& f : files) {
    if (f.epoch < epoch) DSSJ_RETURN_IF_ERROR(RemoveFile(dir_ + "/" + f.name));
  }
  return Status::OK();
}

Status StateStore::WriteDelta(uint64_t epoch, const std::string& payload) {
  if (dir_.empty()) {
    // A delta that does not extend the chain could never be composed.
    if (mem_.valid && epoch == mem_.epoch + 1) {
      mem_.deltas.push_back(payload);
      mem_.epoch = epoch;
    }
    return Status::OK();
  }
  DSSJ_RETURN_IF_ERROR(EnsureDir(dir_));
  std::string image;
  EncodeCheckpointFile(CheckpointKind::kDelta, epoch, payload, &image);
  return WriteFileAtomic(dir_ + "/" + DeltaFileName(epoch), image);
}

Status StateStore::Recover(RecoveredChain* out) const {
  if (dir_.empty()) {
    *out = mem_;
    return Status::OK();
  }
  *out = RecoveredChain{};
  std::vector<StoreFile> files;
  DSSJ_RETURN_IF_ERROR(ListCheckpoints(dir_, &files));
  // Try bases newest-first. For each intact base, extend with the
  // contiguous run of intact deltas at epochs base+1, base+2, ... — the
  // first gap or corrupt delta ends the chain (later deltas would skip
  // state and are unusable).
  for (size_t b = files.size(); b-- > 0;) {
    if (files[b].kind != 0) continue;
    std::string base_payload;
    if (!LoadCheckpoint(dir_ + "/" + files[b].name, CheckpointKind::kBase, files[b].epoch,
                        &base_payload)
             .ok()) {
      continue;
    }
    out->valid = true;
    out->epoch = files[b].epoch;
    out->base = std::move(base_payload);
    out->deltas.clear();
    uint64_t next = files[b].epoch + 1;
    for (size_t d = b + 1; d < files.size(); ++d) {
      if (files[d].kind != 1 || files[d].epoch != next) break;
      std::string delta_payload;
      if (!LoadCheckpoint(dir_ + "/" + files[d].name, CheckpointKind::kDelta, files[d].epoch,
                          &delta_payload)
               .ok()) {
        break;
      }
      out->deltas.push_back(std::move(delta_payload));
      out->epoch = next;
      ++next;
    }
    return Status::OK();
  }
  return Status::OK();
}

Status StateStore::Truncate() {
  if (dir_.empty()) {
    mem_ = RecoveredChain{};
    return Status::OK();
  }
  std::vector<StoreFile> files;
  DSSJ_RETURN_IF_ERROR(ListCheckpoints(dir_, &files));
  for (const StoreFile& f : files) {
    DSSJ_RETURN_IF_ERROR(RemoveFile(dir_ + "/" + f.name));
  }
  return Status::OK();
}

}  // namespace dssj::store
