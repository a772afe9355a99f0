#include "store/checkpoint_service.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stats.h"

namespace dssj::store {

CheckpointService::CheckpointService() : thread_([this] { Run(); }) {}

CheckpointService::~CheckpointService() { Stop(); }

void CheckpointService::Submit(CheckpointJob job) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(!stop_) << "Submit after CheckpointService::Stop";
  ++tasks_[job.task_id].submitted;
  queue_.push_back(std::move(job));
  cv_.notify_one();
}

uint64_t CheckpointService::DurableEpoch(int task_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  return it == tasks_.end() ? 0 : it->second.durable;
}

bool CheckpointService::DurableSet(int task_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  return it != tasks_.end() && it->second.durable_set;
}

bool CheckpointService::Wedged(int task_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  return it != tasks_.end() && it->second.wedged;
}

void CheckpointService::Barrier(int task_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  const uint64_t target = it->second.submitted;
  done_cv_.wait(lock, [&] {
    auto jt = tasks_.find(task_id);
    return jt == tasks_.end() || jt->second.processed >= target;
  });
}

void CheckpointService::Reset(int task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  it->second.durable = 0;
  it->second.durable_set = false;
  it->second.wedged = false;
}

void CheckpointService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !thread_.joinable()) return;
    stop_ = true;
    cv_.notify_one();
  }
  if (thread_.joinable()) thread_.join();
}

void CheckpointService::Run() {
  for (;;) {
    CheckpointJob job;
    bool wedged = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      wedged = tasks_[job.task_id].wedged;
    }

    // A wedged store skips the write, keeping the durable epoch pinned so
    // the task never truncates replay state it still needs.
    bool ok = false;
    uint64_t bytes = 0;
    uint64_t nanos = 0;
    if (!wedged) {
      const int64_t t0 = NowNanos();
      std::string payload;
      if (job.blob.encode) job.blob.encode(&payload);
      const Status st = job.is_base ? job.store->WriteBase(job.epoch, payload)
                                    : job.store->WriteDelta(job.epoch, payload);
      nanos = static_cast<uint64_t>(NowNanos() - t0);
      ok = st.ok();
      bytes = ok ? payload.size() : 0;
      std::lock_guard<std::mutex> lock(mu_);
      TaskState& ts = tasks_[job.task_id];
      if (ok) {
        ts.durable = job.epoch;
        ts.durable_set = true;
      } else {
        ts.wedged = true;
        LOG(ERROR) << "checkpoint write failed for task " << job.task_id << " epoch "
                   << job.epoch << ": " << st.ToString() << " (store wedged)";
      }
    }
    if (job.on_complete) job.on_complete(ok, bytes, nanos);
    {
      // Counted only after on_complete, so a Barrier also orders the
      // callback's effects before the waiter.
      std::lock_guard<std::mutex> lock(mu_);
      ++tasks_[job.task_id].processed;
    }
    done_cv_.notify_all();
  }
}

}  // namespace dssj::store
