#include "exec/task_pool.h"

#include <stdexcept>

#include "obs/names.h"

namespace subscale::exec {

namespace {

thread_local bool tl_on_worker_thread = false;

}  // namespace

TaskPool::TaskPool(std::size_t threads, obs::MetricsRegistry* metrics)
    : metrics_(metrics), born_(std::chrono::steady_clock::now()) {
  if (threads == 0) threads = 1;
  if (metrics_ != nullptr) {
    // Look the instruments up once; submit/worker paths only touch
    // atomics after this.
    tasks_run_counter_ = &metrics_->counter(obs::names::kPoolTasksRun);
    queue_depth_gauge_ = &metrics_->gauge(obs::names::kPoolQueueDepthMax);
    metrics_->counter(obs::names::kPoolPools).add(1);
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (metrics_ != nullptr) {
    metrics_->gauge(obs::names::kPoolUtilizationPct).set(utilization_pct());
  }
}

double TaskPool::utilization_pct() const {
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - born_)
          .count());
  if (!(wall_ns > 0.0)) return 0.0;
  const double busy = static_cast<double>(
      busy_ns_.load(std::memory_order_relaxed));
  return 100.0 * busy / (wall_ns * static_cast<double>(workers_.size()));
}

void TaskPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      throw std::logic_error("TaskPool::submit: pool is shutting down");
    }
    queue_.push_back(std::move(task));
    ++pending_;
    depth = queue_.size();
  }
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->set_max(static_cast<double>(depth));
  }
  work_ready_.notify_one();
}

void TaskPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
}

bool TaskPool::on_worker_thread() { return tl_on_worker_thread; }

void TaskPool::worker_loop() {
  tl_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Count the task before running it: a task may publish its result
    // from inside (a serve reply), and whoever observes that result must
    // already see the task counted.
    if (tasks_run_counter_ != nullptr) tasks_run_counter_->add(1);
    const auto start = std::chrono::steady_clock::now();
    task();
    if (metrics_ != nullptr) {
      busy_ns_.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count()),
          std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace subscale::exec
