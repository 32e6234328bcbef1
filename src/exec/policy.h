#pragma once

/// \file policy.h
/// Execution policy for the task runtime. Thread counts resolve in
/// priority order: explicit option > SUBSCALE_THREADS environment
/// variable > hardware concurrency. A resolved count of 1 makes every
/// parallel_* entry point degrade to the exact serial path (no pool, no
/// locks, index order), which is the baseline of the determinism
/// contract: results at any thread count must match the serial run
/// bitwise.

#include <cstddef>

namespace subscale::exec {

struct ExecPolicy {
  /// Worker threads to use. 0 = auto: SUBSCALE_THREADS if set and
  /// valid, otherwise std::thread::hardware_concurrency().
  std::size_t threads = 0;

  /// The concrete thread count this policy resolves to (always >= 1).
  std::size_t resolved_threads() const;

  static ExecPolicy serial() { return ExecPolicy{1}; }
};

/// Thread count requested by SUBSCALE_THREADS, or 0 when unset,
/// empty, non-numeric, or zero (all of which mean "auto").
std::size_t env_thread_override();

}  // namespace subscale::exec
