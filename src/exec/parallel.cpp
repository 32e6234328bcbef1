#include "exec/parallel.h"

#include <algorithm>
#include <mutex>

#include "exec/task_pool.h"
#include "obs/names.h"
#include "obs/profiler.h"

namespace subscale::exec {

namespace {

TaskError capture(std::size_t index) {
  TaskError error;
  error.index = index;
  error.exception = std::current_exception();
  try {
    throw;
  } catch (const std::exception& e) {
    error.message = e.what();
  } catch (...) {
    error.message = "unknown exception";
  }
  return error;
}

/// One task body with its observability wrapper. Shared by the serial
/// and pooled paths so a loop records the same spans (one "exec.task"
/// span per index) at any thread count.
void run_task(const std::function<void(std::size_t)>& fn, std::size_t i,
              obs::SpanProfiler* profiler) {
  const obs::ScopedSpan span(profiler, obs::names::spans::kTask);
  fn(i);
}

std::vector<TaskError> serial_for(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    obs::SpanProfiler* profiler) {
  std::vector<TaskError> errors;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      run_task(fn, i, profiler);
    } catch (...) {
      errors.push_back(capture(i));
    }
  }
  return errors;
}

}  // namespace

std::vector<TaskError> parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    const ExecPolicy& policy, obs::SpanProfiler* profiler) {
  if (profiler == nullptr) profiler = obs::default_profiler();
  const std::size_t threads = std::min(policy.resolved_threads(), n);
  if (threads <= 1 || TaskPool::on_worker_thread()) {
    return serial_for(n, fn, profiler);
  }

  std::vector<TaskError> errors;
  std::mutex errors_mu;
  {
    TaskPool pool(threads);
    for (std::size_t i = 0; i < n; ++i) {
      pool.submit([&fn, &errors, &errors_mu, profiler, i] {
        try {
          run_task(fn, i, profiler);
        } catch (...) {
          TaskError error = capture(i);
          std::lock_guard<std::mutex> lock(errors_mu);
          errors.push_back(std::move(error));
        }
      });
    }
    pool.wait_idle();
  }
  std::sort(errors.begin(), errors.end(),
            [](const TaskError& a, const TaskError& b) {
              return a.index < b.index;
            });
  return errors;
}

void rethrow_first(const std::vector<TaskError>& errors) {
  if (!errors.empty() && errors.front().exception) {
    std::rethrow_exception(errors.front().exception);
  }
}

}  // namespace subscale::exec
