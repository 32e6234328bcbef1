#include "cache/lease.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

namespace subscale::cache {

namespace fs = std::filesystem;

namespace {

constexpr const char* kTempMarker = ".tmp-";

/// Unique-per-call temp name next to the target (same filesystem):
/// `<path>.tmp-<pid>-<seq>`.
std::string temp_name_for(const std::string& path) {
  static std::atomic<std::uint64_t> seq{0};
  return path + kTempMarker + std::to_string(static_cast<long>(::getpid())) +
         "-" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

bool atomic_write_file(const std::string& path, const void* data,
                       std::size_t size, bool sync) {
  std::error_code ec;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) {
    fs::create_directories(parent, ec);
    if (ec) return false;
  }

  const std::string temp = temp_name_for(path);
  std::FILE* f = std::fopen(temp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = size == 0 || std::fwrite(data, 1, size, f) == size;
  if (ok && sync) {
    ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  }
  ok = (std::fclose(f) == 0) && ok;
  if (ok) {
    fs::rename(temp, path, ec);
    ok = !ec;
  }
  if (!ok) fs::remove(temp, ec);
  return ok;
}

bool atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes, bool sync) {
  return atomic_write_file(path, bytes.data(), bytes.size(), sync);
}

std::size_t sweep_stale_temps(const std::string& dir,
                              double min_age_seconds) {
  std::error_code ec;
  std::size_t removed = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code file_ec;
    if (!it->is_regular_file(file_ec) || file_ec) continue;
    // Only the names temp_name_for makes; no caller's target carries
    // the marker.
    if (it->path().filename().string().find(kTempMarker) ==
        std::string::npos) {
      continue;
    }
    const fs::file_time_type mtime = fs::last_write_time(it->path(), file_ec);
    if (file_ec) continue;
    const double age = std::chrono::duration<double>(
                           fs::file_time_type::clock::now() - mtime)
                           .count();
    if (age < min_age_seconds) continue;  // possibly a live writer
    if (fs::remove(it->path(), file_ec) && !file_ec) ++removed;
  }
  return removed;
}

bool read_file_bytes(const std::string& path,
                     std::vector<std::uint8_t>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

// ---- leases -----------------------------------------------------------------

namespace {

std::vector<std::uint8_t> lease_body(const std::string& owner,
                                     std::uint64_t beats) {
  const std::string text = owner + "\n" + std::to_string(beats) + "\n";
  return {text.begin(), text.end()};
}

}  // namespace

bool lease_try_acquire(const std::string& path, const std::string& owner) {
  std::error_code ec;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) {
    fs::create_directories(parent, ec);
    if (ec) return false;
  }
  // O_EXCL is the whole point: exactly one of N racing creators wins.
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  const std::vector<std::uint8_t> body = lease_body(owner, 0);
  const bool ok =
      ::write(fd, body.data(), body.size()) ==
      static_cast<ssize_t>(body.size());
  ::close(fd);
  if (!ok) ::unlink(path.c_str());
  return ok;
}

bool lease_heartbeat(const std::string& path, const std::string& owner,
                     std::uint64_t beats) {
  // No fsync: a heartbeat lost in the page cache only ages the lease
  // early, which is safe (the unit gets reassigned, results dedupe).
  return atomic_write_file(path, lease_body(owner, beats),
                           /*sync=*/false);
}

LeaseInfo lease_inspect(const std::string& path) {
  LeaseInfo info;
  std::vector<std::uint8_t> bytes;
  if (!read_file_bytes(path, bytes)) return info;
  info.exists = true;
  const std::string text(bytes.begin(), bytes.end());
  const std::size_t nl = text.find('\n');
  if (nl != std::string::npos) {
    info.owner = text.substr(0, nl);
    info.beats = std::strtoull(text.c_str() + nl + 1, nullptr, 10);
  }
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (!ec) {
    const auto age = fs::file_time_type::clock::now() - mtime;
    info.age_seconds =
        std::chrono::duration<double>(age).count();
    if (info.age_seconds < 0.0) info.age_seconds = 0.0;
  }
  return info;
}

void lease_release(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace subscale::cache
