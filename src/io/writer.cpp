#include "io/writer.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace subscale::io {

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) {
    // JSON has no Infinity/NaN literals; null is the conventional stand-in.
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// ---- JsonWriter -----------------------------------------------------------

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;  // value follows "key": inline
  }
  if (needs_comma_) out_ += ',';
  if (!stack_.empty()) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
}

void JsonWriter::scalar(const std::string& text) {
  separate();
  out_ += text;
  needs_comma_ = true;
}

void JsonWriter::begin_object() {
  separate();
  out_ += '{';
  stack_ += 'o';
  needs_comma_ = false;
}

void JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != 'o') {
    throw std::logic_error("JsonWriter: end_object without begin_object");
  }
  stack_.pop_back();
  if (needs_comma_) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += '}';
  needs_comma_ = true;
}

void JsonWriter::begin_array() {
  separate();
  out_ += '[';
  stack_ += 'a';
  needs_comma_ = false;
}

void JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != 'a') {
    throw std::logic_error("JsonWriter: end_array without begin_array");
  }
  stack_.pop_back();
  if (needs_comma_) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += ']';
  needs_comma_ = true;
}

void JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != 'o') {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  separate();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\": ";
  needs_comma_ = false;
  after_key_ = true;
}

void JsonWriter::value(double v) { scalar(format_double(v)); }

void JsonWriter::value(std::uint64_t v) { scalar(std::to_string(v)); }

void JsonWriter::value(bool v) { scalar(v ? "true" : "false"); }

void JsonWriter::value(std::string_view v) {
  std::string quoted;
  const std::string escaped = json_escape(v);
  quoted.reserve(escaped.size() + 2);
  quoted += '"';
  quoted += escaped;
  quoted += '"';
  scalar(quoted);
}

std::string JsonWriter::str() const {
  if (!stack_.empty()) {
    throw std::logic_error("JsonWriter: document has unclosed containers");
  }
  return out_ + "\n";
}

// ---- document emitters ----------------------------------------------------

void write_metrics_snapshot(JsonWriter& w,
                            const obs::MetricsSnapshot& snap) {
  w.begin_object();
  for (const auto& [name, value] : snap.counters) {
    w.key(name);
    w.value(static_cast<std::uint64_t>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    w.key(name);
    w.value(value);
  }
  for (const auto& h : snap.histograms) {
    w.key(h.name + ".count");
    w.value(static_cast<std::uint64_t>(h.count));
    w.key(h.name + ".sum");
    w.value(h.sum);
  }
  w.end_object();
}

}  // namespace subscale::io
