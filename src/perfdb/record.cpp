#include "perfdb/record.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "cache/hash.h"
#include "io/json_parse.h"
#include "io/writer.h"

namespace subscale::perfdb {

namespace {

/// FNV-1a-64 of a line body. The stream starts from 1469598103934665603
/// (0x14650fb0739d0383), the standard offset basis with its last decimal
/// digit dropped; it is kept so every line already in a store verifies.
std::uint64_t line_checksum(std::string_view body) {
  return cache::fnv1a64(body.data(), body.size(), 0x14650fb0739d0383ull);
}

/// Compact a JsonWriter document to one line: every newline in the
/// pretty output is formatting (JsonWriter escapes control characters
/// inside strings), so dropping each newline plus its following indent
/// is exactly de-pretty-printing.
std::string compact(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] == '\n') {
      while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
      continue;
    }
    out += pretty[i];
  }
  return out;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void write_sorted_pairs(
    io::JsonWriter& w,
    const std::vector<std::pair<std::string, double>>& pairs) {
  std::vector<std::pair<std::string, double>> sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  w.begin_object();
  for (const auto& [key, value] : sorted) {
    w.key(key);
    w.value(value);
  }
  w.end_object();
}

bool fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

/// The marker the checksum splits the line at. The "obs"/"metrics"
/// sub-objects hold only number values, so this byte sequence cannot
/// occur earlier in a well-formed line.
constexpr const char* kChecksumMarker = ",\"checksum\": \"";

std::vector<std::pair<std::string, double>> number_fields(
    const io::JsonPtr& obj) {
  std::vector<std::pair<std::string, double>> out;
  if (obj == nullptr) return out;
  for (const auto& [key, value] : obj->fields()) {
    out.emplace_back(key, value->as_number());
  }
  return out;  // JsonValue::fields() is a sorted map — canonical order
}

}  // namespace

bool PerfRecord::find(std::string_view key, double& out) const {
  if (key == "wall_ms") {
    out = wall_ms;
    return true;
  }
  for (const auto& [k, v] : obs) {
    if (k == key) {
      out = v;
      return true;
    }
  }
  for (const auto& [k, v] : metrics) {
    if (k == key) {
      out = v;
      return true;
    }
  }
  return false;
}

std::string record_to_line(const PerfRecord& record) {
  io::JsonWriter w;
  w.begin_object();
  w.key("perfdb");
  w.value(kPerfDbVersion);
  w.key("bench");
  w.value(record.bench);
  w.key("card");
  w.value(record.card);
  w.key("rev");
  w.value(record.rev);
  w.key("ts");
  w.value(record.ts);
  w.key("shape_ok");
  w.value(record.shape_ok);
  w.key("interrupted");  // always explicit so loaders never infer
  w.value(record.interrupted);
  w.key("wall_ms");
  w.value(record.wall_ms);
  w.key("threads");
  w.value(record.threads);
  w.key("metrics");
  write_sorted_pairs(w, record.metrics);
  w.key("obs");
  write_sorted_pairs(w, record.obs);
  w.end_object();

  std::string body = compact(w.str());
  body.pop_back();  // drop the closing '}' to splice the checksum in
  const std::string digest = hex16(line_checksum(body));
  return body + kChecksumMarker + digest + "\"}";
}

bool parse_record_line(std::string_view line, PerfRecord& out,
                       std::string* error) {
  const std::size_t marker = line.rfind(kChecksumMarker);
  if (marker == std::string_view::npos) {
    return fail(error, "no checksum member");
  }
  const std::string_view body = line.substr(0, marker);
  const std::size_t digest_at = marker + std::string_view(kChecksumMarker).size();
  if (line.size() < digest_at + 16) {
    return fail(error, "truncated checksum");
  }
  const std::string digest(line.substr(digest_at, 16));
  char* end = nullptr;
  const std::uint64_t claimed = std::strtoull(digest.c_str(), &end, 16);
  if (end != digest.c_str() + 16) {
    return fail(error, "malformed checksum digits");
  }
  if (claimed != line_checksum(body)) {
    return fail(error, "checksum mismatch (torn or corrupted line)");
  }

  std::string parse_error;
  const io::JsonPtr doc = io::json_parse(line, &parse_error);
  if (doc == nullptr) {
    return fail(error, "malformed record JSON: " + parse_error);
  }
  if (doc->string_at("perfdb") != kPerfDbVersion) {
    return fail(error, "unknown perfdb version '" +
                           doc->string_at("perfdb") + "'");
  }
  PerfRecord r;
  r.bench = doc->string_at("bench");
  if (r.bench.empty()) return fail(error, "record without a bench name");
  r.card = doc->string_at("card");
  r.rev = doc->string_at("rev");
  r.ts = static_cast<std::uint64_t>(doc->number_at("ts", 0.0));
  r.shape_ok = doc->bool_at("shape_ok", false);
  r.interrupted = doc->bool_at("interrupted", false);
  r.wall_ms = doc->number_at("wall_ms", 0.0);
  r.threads = static_cast<std::uint64_t>(doc->number_at("threads", 0.0));
  r.metrics = number_fields(doc->get("metrics"));
  r.obs = number_fields(doc->get("obs"));
  out = std::move(r);
  return true;
}

bool record_from_bench_json(std::string_view text, PerfRecord& out,
                            std::string* error) {
  std::string parse_error;
  const io::JsonPtr doc = io::json_parse(text, &parse_error);
  if (doc == nullptr) {
    return fail(error, "malformed BENCH JSON: " + parse_error);
  }
  PerfRecord r;
  r.bench = doc->string_at("bench");
  if (r.bench.empty()) {
    return fail(error, "BENCH document without a \"bench\" name");
  }
  r.card = doc->string_at("card");
  r.shape_ok = doc->bool_at("shape_ok", false);
  r.interrupted = doc->bool_at("interrupted", false);
  r.wall_ms = doc->number_at("wall_ms", 0.0);
  r.threads = static_cast<std::uint64_t>(doc->number_at("threads", 0.0));
  r.metrics = number_fields(doc->get("metrics"));
  r.obs = number_fields(doc->get("obs"));
  out = std::move(r);
  return true;
}

}  // namespace subscale::perfdb
