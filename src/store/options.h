// Configuration of the checkpoint chains (docs/INTERNALS.md §13): where
// they live, and how often a chain is compacted into a full base image.
#ifndef DSSJ_STORE_OPTIONS_H_
#define DSSJ_STORE_OPTIONS_H_

#include <cstdint>
#include <string>

namespace dssj::store {

/// Read by nothing; stays until perfbench/ stops setting checkpoint_mode.
enum class CheckpointMode : uint8_t { kAsync = 1 };

struct StoreOptions {
  /// Root directory for checkpoint files; each task uses `dir`/task_<id>/.
  /// Empty keeps every task's checkpoint chain in memory.
  std::string dir;

  /// Every Nth checkpoint of a task is a full base image; the N-1 between
  /// are deltas (dirty sets only). Larger values shrink steady-state
  /// checkpoint bytes but lengthen the recovery chain.
  uint32_t delta_base_interval = 8;
};

}  // namespace dssj::store

#endif  // DSSJ_STORE_OPTIONS_H_
