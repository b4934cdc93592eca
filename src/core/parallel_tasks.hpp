// The host's one task loop: `workers` threads, the caller among them, claim
// task indices from one atomic cursor and write disjoint preallocated slots,
// which the caller reads after the join.  Shared by cpu-single-scan's
// episode split and distrib's episode jobs.
//
// A task that throws stops the others from claiming more; its exception is
// rethrown on the caller once every worker has joined, so a throw inside a
// worker thread never reaches std::terminate.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace gm::core {

/// Run task_fn(0 .. tasks-1) on min(workers, tasks) threads (inline when one
/// suffices).  The first exception any task raises is rethrown here.
template <typename Fn>
void for_each_task(int workers, std::size_t tasks, Fn&& task_fn) {
  const std::size_t threads =
      std::min(static_cast<std::size_t>(std::max(workers, 1)), tasks);
  if (threads <= 1) {
    for (std::size_t t = 0; t < tasks; ++t) task_fn(t);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;  // guarded by failure_mutex
  auto drain = [&]() noexcept {
    try {
      for (std::size_t t = next.fetch_add(1, std::memory_order_relaxed); t < tasks;
           t = next.fetch_add(1, std::memory_order_relaxed)) {
        task_fn(t);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
      next.store(tasks, std::memory_order_relaxed);  // the others stop claiming
    }
  };
  {
    // jthread joins on destruction, so the workers are joined before the
    // state they share goes away, even if spawning a later one throws.
    std::vector<std::jthread> pool;
    pool.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(drain);
    drain();
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace gm::core
