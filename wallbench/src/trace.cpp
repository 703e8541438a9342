#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace wallbench {

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"session\":"
                 "%lld,\"parent\":\"%s\"}}",
                 first ? "" : ",\n", s.name, s.category, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.session), s.parent);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace wallbench
