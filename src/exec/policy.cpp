#include "exec/policy.h"

#include <cstdlib>
#include <string>
#include <thread>

namespace subscale::exec {

std::size_t env_thread_override() {
  const char* raw = std::getenv("SUBSCALE_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  // Digits only: strtoul would silently wrap "-2" to a huge count.
  for (const char* c = raw; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return 0;
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(raw, &end, 10);
  if (end == raw || (end != nullptr && *end != '\0')) return 0;
  return static_cast<std::size_t>(parsed);
}

std::size_t ExecPolicy::resolved_threads() const {
  if (threads > 0) return threads;
  const std::size_t from_env = env_thread_override();
  if (from_env > 0) return from_env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

}  // namespace subscale::exec
