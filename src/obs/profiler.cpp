#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace subscale::obs {

namespace {

/// Small dense ordinal of the calling thread (0, 1, 2, ... in first-use
/// order, process-wide), so concurrent spans attribute to distinct
/// tracks. Stable for a thread's lifetime; NOT stable across runs
/// (scheduling decides first-use order), so it is diagnostic, never
/// part of a determinism contract.
std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<SpanProfiler*> g_default_profiler{nullptr};

std::uint64_t next_profiler_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// One thread's recording state. The owner thread is the only writer:
/// it fills the next slot, then publishes it with a release store on
/// `size`; snapshot() reads `size` with acquire and only touches slots
/// below it, so recording needs no lock and no per-record atomics
/// beyond the publication index. The nesting fields (next_seq,
/// open_seq, open_depth) are owner-thread-only and never read by
/// snapshot.
struct SpanProfiler::ThreadBuffer {
  std::vector<ProfileSpan> records;     ///< fixed capacity, preallocated
  std::atomic<std::size_t> size{0};     ///< published record count
  std::atomic<std::uint64_t> dropped{0};
  std::uint32_t tid = 0;
  std::uint64_t epoch_ns = 0;  ///< copy of the profiler's epoch
  // Owner-thread nesting state:
  std::uint64_t next_seq = 1;
  std::uint64_t open_seq = 0;   ///< seq of the innermost open span
  std::uint32_t open_depth = 0;
};

SpanProfiler::SpanProfiler(std::size_t per_thread_capacity)
    : id_(next_profiler_id()),
      capacity_(per_thread_capacity),
      t0_ns_(steady_now_ns()) {
  if (per_thread_capacity == 0) {
    throw std::invalid_argument(
        "SpanProfiler: per_thread_capacity must be positive");
  }
}

SpanProfiler::~SpanProfiler() = default;

SpanProfiler::ThreadBuffer* SpanProfiler::local_buffer() {
  // Keyed by the process-unique profiler id, not the pointer, so a
  // destroyed profiler's cache entry can never alias a new profiler
  // allocated at the same address. Entries for dead profilers are never
  // matched again (ids are not reused) and are bounded by the number of
  // profilers this thread ever recorded into.
  thread_local std::map<std::uint64_t, ThreadBuffer*> tl_buffers;
  const auto it = tl_buffers.find(id_);
  if (it != tl_buffers.end()) return it->second;

  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->records.resize(capacity_);
  buffer->tid = thread_ordinal();
  buffer->epoch_ns = t0_ns_;
  ThreadBuffer* raw = buffer.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  tl_buffers.emplace(id_, raw);
  return raw;
}

ProfileSnapshot SpanProfiler::snapshot() const {
  ProfileSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    const std::size_t n = buffer->size.load(std::memory_order_acquire);
    snap.spans.insert(snap.spans.end(), buffer->records.begin(),
                      buffer->records.begin() + static_cast<long>(n));
    snap.dropped += buffer->dropped.load(std::memory_order_relaxed);
  }
  std::sort(snap.spans.begin(), snap.spans.end(),
            [](const ProfileSpan& a, const ProfileSpan& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
              return a.seq < b.seq;
            });
  return snap;
}

ScopedSpan::ScopedSpan(SpanProfiler* profiler, const char* label) {
  if (profiler == nullptr) return;
  buf_ = profiler->local_buffer();
  label_ = label;
  seq_ = buf_->next_seq++;
  parent_ = buf_->open_seq;
  depth_ = buf_->open_depth;
  buf_->open_seq = seq_;
  ++buf_->open_depth;
  t0_ns_ = steady_now_ns() - buf_->epoch_ns;
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) return;
  buf_->open_seq = parent_;
  --buf_->open_depth;
  const std::uint64_t t1_ns = steady_now_ns() - buf_->epoch_ns;
  const std::size_t slot = buf_->size.load(std::memory_order_relaxed);
  if (slot < buf_->records.size()) {
    buf_->records[slot] =
        ProfileSpan{label_, buf_->tid, depth_, seq_, parent_, t0_ns_, t1_ns};
    buf_->size.store(slot + 1, std::memory_order_release);
  } else {
    buf_->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t ProfileSnapshot::wall_ns() const {
  if (spans.empty()) return 0;
  std::uint64_t t0 = spans.front().t0_ns;
  std::uint64_t t1 = spans.front().t1_ns;
  for (const ProfileSpan& s : spans) {
    t0 = std::min(t0, s.t0_ns);
    t1 = std::max(t1, s.t1_ns);
  }
  return t1 - t0;
}

std::vector<ProfileRollupRow> ProfileSnapshot::rollup() const {
  // Self time: each span starts with its own duration and loses every
  // direct child's duration; (tid, seq) -> index resolves the parents.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(std::make_pair(spans[i].tid, spans[i].seq), i);
  }
  std::vector<double> self_ms(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ms[i] = spans[i].duration_ms();
  }
  for (const ProfileSpan& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(std::make_pair(s.tid, s.parent));
    if (it != index.end()) self_ms[it->second] -= s.duration_ms();
  }

  std::map<std::string, ProfileRollupRow> by_label;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const ProfileSpan& s = spans[i];
    auto [it, inserted] = by_label.try_emplace(s.label);
    ProfileRollupRow& row = it->second;
    if (inserted) {
      row.label = s.label;
      row.min_depth = s.depth;
    }
    row.min_depth = std::min(row.min_depth, s.depth);
    ++row.count;
    row.total_ms += s.duration_ms();
    row.self_ms += self_ms[i];
  }

  const double wall_ms = static_cast<double>(wall_ns()) * 1e-6;
  std::vector<ProfileRollupRow> rows;
  rows.reserve(by_label.size());
  for (auto& [label, row] : by_label) {
    row.pct_of_wall = wall_ms > 0.0 ? 100.0 * row.total_ms / wall_ms : 0.0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const ProfileRollupRow& a, const ProfileRollupRow& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.label < b.label;
            });
  return rows;
}

std::string ProfileSnapshot::rollup_table() const {
  const std::vector<ProfileRollupRow> rows = rollup();
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-36s %10s %12s %12s %7s\n", "span",
                "count", "total ms", "self ms", "% wall");
  out += line;
  out.append(80, '-');
  out += '\n';
  for (const ProfileRollupRow& row : rows) {
    std::string label(2 * static_cast<std::size_t>(row.min_depth), ' ');
    label += row.label;
    std::snprintf(line, sizeof line, "%-36s %10llu %12.3f %12.3f %6.1f%%\n",
                  label.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms,
                  row.self_ms, row.pct_of_wall);
    out += line;
  }
  if (dropped > 0) {
    std::snprintf(line, sizeof line,
                  "(%llu span(s) dropped: thread buffer full — self times "
                  "above are inflated)\n",
                  static_cast<unsigned long long>(dropped));
    out += line;
  }
  return out;
}

std::map<std::string, std::uint64_t> ProfileSnapshot::label_counts() const {
  std::map<std::string, std::uint64_t> counts;
  for (const ProfileSpan& s : spans) ++counts[s.label];
  return counts;
}

std::map<std::pair<std::string, std::string>, std::uint64_t>
ProfileSnapshot::edge_counts() const {
  std::map<std::pair<std::uint32_t, std::uint64_t>, const char*> labels;
  for (const ProfileSpan& s : spans) {
    labels.emplace(std::make_pair(s.tid, s.seq), s.label);
  }
  std::map<std::pair<std::string, std::string>, std::uint64_t> counts;
  for (const ProfileSpan& s : spans) {
    const char* parent = "";
    if (s.parent != 0) {
      const auto it = labels.find(std::make_pair(s.tid, s.parent));
      if (it != labels.end()) parent = it->second;
    }
    ++counts[std::make_pair(std::string(parent), std::string(s.label))];
  }
  return counts;
}

void set_default_profiler(SpanProfiler* profiler) {
  g_default_profiler.store(profiler, std::memory_order_release);
}

SpanProfiler* default_profiler() {
  return g_default_profiler.load(std::memory_order_acquire);
}

}  // namespace subscale::obs
