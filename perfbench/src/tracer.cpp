#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>

#include "util.h"

namespace perfbench {

namespace {

struct OpenSpan {
  std::uint64_t id;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t request;
  std::uint64_t parent;
};

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

thread_local std::vector<OpenSpan> t_open;

// Spans recorded through record() are asynchronous (they overlap other
// spans of their thread); the self-time table keeps them apart.
constexpr std::uint32_t kAsyncThread = 0;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t request) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
  }
  const std::uint64_t parent = t_open.empty() ? 0 : t_open.back().id;
  if (request == 0 && !t_open.empty()) request = t_open.back().request;
  t_open.push_back({id, name, now_ns(), request, parent});
  return id;
}

void Tracer::end(std::uint64_t id) {
  const std::uint64_t end_ns = now_ns();
  if (t_open.empty() || t_open.back().id != id) return;  // unbalanced
  const OpenSpan open = t_open.back();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back({open.name, open.start_ns, end_ns, open.id, open.parent,
                    open.request, thread_index()});
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(
      {name, start_ns, end_ns, next_id_++, 0, request, kAsyncThread});
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<SpanRecord> spans = this->spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = ~0ull;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const SpanRecord& s : spans) {
    // Asynchronous request spans go on one track per request so that
    // overlapping requests do not break the viewer's nesting.
    const std::uint64_t tid =
        s.thread == kAsyncThread ? 1000000 + s.request % 64 : s.thread;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                 first ? "" : ",\n", s.name,
                 static_cast<unsigned long long>(tid),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fputs("\n], \"displayTimeUnit\": \"ms\"}\n", f);
  return std::fclose(f) == 0;
}

std::string Tracer::self_time_table(std::uint64_t wall_ns,
                                    double* unattributed_pct) const {
  const std::vector<SpanRecord> spans = this->spans();
  const std::uint32_t me = thread_index();
  // Children of each synchronous span on this thread are sequential and
  // nested inside it, so their union is the sum of their durations.
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.thread != me || s.parent == 0) continue;
    child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Row {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  std::map<std::string, Row> async_rows;
  std::uint64_t root_ns = 0;
  for (const SpanRecord& s : spans) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    if (s.thread == kAsyncThread) {
      Row& row = async_rows[s.name];
      ++row.count;
      row.total_ns += dur;
      continue;
    }
    if (s.thread != me) continue;
    Row& row = rows[s.name];
    ++row.count;
    row.total_ns += dur;
    const auto it = child_ns.find(s.id);
    const std::uint64_t children = it == child_ns.end() ? 0 : it->second;
    row.self_ns += dur > children ? dur - children : 0;
    if (s.parent == 0) root_ns += dur;
  }
  const double wall = static_cast<double>(std::max<std::uint64_t>(wall_ns, 1));
  const std::uint64_t rest = wall_ns > root_ns ? wall_ns - root_ns : 0;
  if (unattributed_pct != nullptr) {
    *unattributed_pct = 100.0 * static_cast<double>(rest) / wall;
  }
  std::ostringstream os;
  char buf[200];
  std::snprintf(buf, sizeof(buf), "  %-34s %9s %12s %12s %7s\n", "span",
                "count", "total_ms", "self_ms", "self%");
  os << buf;
  for (const auto& [name, row] : rows) {
    std::snprintf(buf, sizeof(buf), "  %-34s %9llu %12.3f %12.3f %6.2f%%\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  static_cast<double>(row.total_ns) / 1e6,
                  static_cast<double>(row.self_ns) / 1e6,
                  100.0 * static_cast<double>(row.self_ns) / wall);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-34s %9s %12s %12.3f %6.2f%%\n",
                "(unattributed)", "", "",
                static_cast<double>(rest) / 1e6,
                100.0 * static_cast<double>(rest) / wall);
  os << buf;
  for (const auto& [name, row] : async_rows) {
    std::snprintf(buf, sizeof(buf),
                  "  %-34s %9llu %12.3f  (async, mean %.1f us)\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  static_cast<double>(row.total_ns) / 1e6,
                  static_cast<double>(row.total_ns) / 1e3 /
                      static_cast<double>(row.count));
    os << buf;
  }
  return os.str();
}

}  // namespace perfbench
