// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own code, around each call
// it makes into a library layer, and stay in memory until the run ends;
// write_chrome_trace then emits Chrome trace-event JSON ("X" complete
// events plus thread-name metadata), which chrome://tracing and Perfetto
// open offline.  Every span carries its own id and its parent's id in
// `args`, so the causal tree survives even where lanes are synthetic.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace qvliw::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

[[nodiscard]] inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

class TraceRecorder {
 public:
  struct Span {
    std::string name;
    std::string category;
    double start_us = 0.0;  // since the recorder's origin
    double duration_us = 0.0;
    int lane = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::string args;          // extra JSON members, without braces
  };

  explicit TraceRecorder(Clock::time_point origin) : origin_(origin) {}

  /// Reserves an id, so a parent can be named before its span is added.
  [[nodiscard]] std::uint64_t next_id() { return next_id_++; }

  [[nodiscard]] double offset_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  void add(std::uint64_t id, std::string name, std::string category, double start_us,
           double duration_us, int lane, std::uint64_t parent, std::string args = {}) {
    spans_.push_back({std::move(name), std::move(category), start_us, duration_us, lane, id,
                      parent, std::move(args)});
  }

  std::uint64_t add(std::string name, std::string category, Clock::time_point start,
                    Clock::time_point end, int lane, std::uint64_t parent, std::string args = {}) {
    const std::uint64_t id = next_id();
    add(id, std::move(name), std::move(category), offset_us(start),
        std::chrono::duration<double, std::micro>(end - start).count(), lane, parent,
        std::move(args));
    return id;
  }

  void name_lane(int lane, std::string name) { lane_names_[lane] = std::move(name); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"traceEvents": [...], "otherData": {<metadata_json>}}.
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path,
                                        const std::string& metadata_json) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"otherData\": {%s},\n\"traceEvents\": [",
                 metadata_json.c_str());
    bool first = true;
    for (const auto& [lane, name] : lane_names_) {
      std::fprintf(out,
                   "%s\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"name\": \"%s\"}}",
                   first ? "" : ",", lane, json_escape(name).c_str());
      first = false;
    }
    for (const Span& span : spans_) {
      std::fprintf(out,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"id\": %llu, "
                   "\"parent\": %llu%s%s}}",
                   first ? "" : ",", json_escape(span.name).c_str(),
                   json_escape(span.category).c_str(), span.start_us, span.duration_us, span.lane,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent), span.args.empty() ? "" : ", ",
                   span.args.c_str());
      first = false;
    }
    std::fprintf(out, "\n]}\n");
    const bool written = std::ferror(out) == 0;
    return std::fclose(out) == 0 && written;
  }

 private:
  Clock::time_point origin_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::map<int, std::string> lane_names_;
};

}  // namespace qvliw::perfbench
