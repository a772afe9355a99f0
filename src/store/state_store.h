// Per-task checkpoint chain: one directory holding full base images plus
// the delta files written since the newest base, or the same chain held in
// memory when there is no directory. Recovery composes the newest *valid*
// base with the longest contiguous run of valid deltas after it
// (docs/INTERNALS.md §13) — a torn or bit-flipped file terminates the
// chain cleanly instead of failing recovery outright.
#ifndef DSSJ_STORE_STATE_STORE_H_
#define DSSJ_STORE_STATE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dssj::store {

/// Result of composing the on-disk chain: the payload of the chosen base
/// checkpoint, then the delta payloads to apply on top, in epoch order.
/// `epoch` is the epoch of the newest file in the composition (the state
/// the restored task resumes from). `valid` is false when no intact base
/// exists (fresh task, or every base corrupt).
struct RecoveredChain {
  bool valid = false;
  uint64_t epoch = 0;
  std::string base;
  std::vector<std::string> deltas;
};

/// Owns one task's checkpoint chain: the directory `dir`, or memory when
/// `dir` is empty (the newest base plus the contiguous deltas after it;
/// same contract, nothing touches the filesystem). Not thread-safe: all
/// writes happen on the checkpoint service thread, Recover / Truncate on
/// the task thread strictly before/after the service touches the task —
/// the service Barrier orders them.
class StateStore {
 public:
  explicit StateStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// Writes a full base image for `epoch` (atomic tmp+rename), then
  /// garbage-collects every base and delta file with a smaller epoch —
  /// they can no longer participate in any recovery composition.
  Status WriteBase(uint64_t epoch, const std::string& payload);

  /// Writes a delta file for `epoch` (atomic tmp+rename).
  Status WriteDelta(uint64_t epoch, const std::string& payload);

  /// Scans the directory and composes the newest valid base + contiguous
  /// valid delta chain. Corrupt or missing files never fail the call:
  /// a bad delta truncates the chain just before it, a bad base falls
  /// back to the previous base. Returns non-OK only for IO errors that
  /// make the directory unreadable.
  Status Recover(RecoveredChain* out) const;

  /// Removes every checkpoint file (fresh incarnation start).
  Status Truncate();

 private:
  std::string dir_;
  RecoveredChain mem_;  ///< the whole chain when dir_ is empty
};

}  // namespace dssj::store

#endif  // DSSJ_STORE_STATE_STORE_H_
