#pragma once

/// \file parallel.h
/// Structured data-parallel loops on top of TaskPool.
///
/// Contract (relied on by core/circuits/scaling and enforced by
/// tests/test_exec.cpp):
///   * results are ordered by task index, never by completion order;
///   * a task that throws yields a structured TaskError/TaskResult for
///     that index — with the original exception preserved as an
///     std::exception_ptr so callers can rethrow it with its type
///     intact — while every other task still runs to completion;
///   * a resolved thread count of 1 executes the exact serial path:
///     fn(0), fn(1), ... inline on the calling thread, no pool;
///   * nested calls from inside a pool worker run inline (serially)
///     instead of submitting to a second pool, so layered parallelism
///     (roadmap over nodes -> candidate scan per node) cannot deadlock
///     or oversubscribe.

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/policy.h"

namespace subscale::obs {
class SpanProfiler;
}  // namespace subscale::obs

namespace subscale::exec {

/// One task index that threw, with the message and the rethrowable
/// original exception.
struct TaskError {
  std::size_t index = 0;
  std::string message;
  std::exception_ptr exception;
};

/// Run fn(i) for i in [0, n), capturing per-task exceptions. Returns
/// the failures sorted by index (empty = all tasks succeeded).
///
/// Each task records one "exec.task" span into `profiler` (null falls
/// back to obs::default_profiler()) — on the serial path too, so task
/// *counts* stay thread-count-invariant per the §10.3 determinism
/// contract. The span carries the recording thread's tid.
std::vector<TaskError> parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    const ExecPolicy& policy = ExecPolicy{},
    obs::SpanProfiler* profiler = nullptr);

/// Rethrow the lowest-index failure (no-op when there is none): the
/// first failure in index order is the same one the serial loop would
/// have hit first.
void rethrow_first(const std::vector<TaskError>& errors);

/// Outcome of one mapped task: value on success, error otherwise.
template <typename T>
struct TaskResult {
  std::size_t index = 0;
  std::optional<T> value;
  std::string error;
  std::exception_ptr exception;
  bool ok() const { return value.has_value(); }
};

/// Map fn over [0, n), returning one TaskResult per index, in index
/// order. T must be default-irrelevant: a failed index carries no value.
template <typename T>
std::vector<TaskResult<T>> parallel_map(
    std::size_t n, const std::function<T(std::size_t)>& fn,
    const ExecPolicy& policy = ExecPolicy{},
    obs::SpanProfiler* profiler = nullptr) {
  std::vector<TaskResult<T>> results(n);
  const std::vector<TaskError> errors = parallel_for(
      n, [&](std::size_t i) { results[i].value.emplace(fn(i)); }, policy,
      profiler);
  for (std::size_t i = 0; i < n; ++i) results[i].index = i;
  for (const TaskError& e : errors) {
    results[e.index].error = e.message;
    results[e.index].exception = e.exception;
  }
  return results;
}

/// Rethrow the lowest-index failed result (no-op when all succeeded).
template <typename T>
void rethrow_first(const std::vector<TaskResult<T>>& results) {
  for (const TaskResult<T>& r : results) {
    if (!r.ok() && r.exception) std::rethrow_exception(r.exception);
  }
}

/// Unwrap an all-success map into plain values (index order). Throws
/// the first failure if any task failed.
template <typename T>
std::vector<T> values_or_throw(std::vector<TaskResult<T>> results) {
  rethrow_first(results);
  std::vector<T> out;
  out.reserve(results.size());
  for (TaskResult<T>& r : results) out.push_back(std::move(*r.value));
  return out;
}

}  // namespace subscale::exec
