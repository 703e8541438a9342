// In-memory span log of the traced run, written as Chrome trace-event
// JSON when the run ends (chrome://tracing, Perfetto). Spans of one
// session share `session`; `parent` names the span that caused it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wallbench {

struct Span {
  const char* name = "";
  const char* category = "";  // layer: net, protocol, crypto, ...
  const char* parent = "";    // causing span's name ("" = root)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t session = -1;  // -1: not tied to one session
  int thread = 0;
};

class SpanLog {
 public:
  void add(const Span& span) { spans_.push_back(span); }

  /// Write every span, timestamps relative to the earliest one.
  /// Returns false if the file could not be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace wallbench
