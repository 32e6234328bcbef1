#include "perfdb/store.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "cache/lease.h"

namespace subscale::perfdb {

namespace {

constexpr const char* kSuffix = ".jsonl";

std::string sanitize(std::string_view bench) {
  std::string out;
  out.reserve(bench.size());
  for (const char c : bench) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

PerfDb::PerfDb(std::string dir) : dir_(std::move(dir)) {}

std::string PerfDb::path_for(std::string_view bench) const {
  return dir_ + "/" + sanitize(bench) + kSuffix;
}

bool PerfDb::append(const PerfRecord& record) {
  if (record.bench.empty()) return false;
  const std::string path = path_for(record.bench);
  std::vector<std::uint8_t> bytes;
  cache::read_file_bytes(path, bytes);  // absent file = empty history
  std::string content(bytes.begin(), bytes.end());
  if (!content.empty() && content.back() != '\n') {
    content += '\n';  // heal a truncated tail so the new line stays whole
  }
  content += record_to_line(record);
  content += '\n';
  return cache::atomic_write_file(path, content.data(), content.size());
}

std::vector<PerfRecord> PerfDb::load(std::string_view bench,
                                     LoadStats* stats) const {
  std::vector<PerfRecord> out;
  LoadStats local;
  std::vector<std::uint8_t> bytes;
  if (cache::read_file_bytes(path_for(bench), bytes)) {
    const std::string_view content(
        reinterpret_cast<const char*>(bytes.data()), bytes.size());
    std::size_t pos = 0;
    while (pos < content.size()) {
      std::size_t eol = content.find('\n', pos);
      if (eol == std::string_view::npos) eol = content.size();
      const std::string_view line = content.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      ++local.total_lines;
      PerfRecord record;
      if (!parse_record_line(line, record)) {
        ++local.corrupt;
        continue;
      }
      if (record.interrupted) {
        ++local.interrupted;
        continue;
      }
      ++local.loaded;
      out.push_back(std::move(record));
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<std::string> PerfDb::benches() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const std::size_t n = std::string(kSuffix).size();
    if (name.size() > n && name.compare(name.size() - n, n, kSuffix) == 0) {
      out.push_back(name.substr(0, name.size() - n));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace subscale::perfdb
