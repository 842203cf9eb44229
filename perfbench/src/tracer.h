// The benchmark's own spans, recorded around each call into a layer.
//
// A span has a name ("<layer>.<call>"), start, end, the span that caused
// it, and the id of the request it belongs to (0 = none). Spans stay in
// memory while the run measures; at the end they are written as Chrome
// trace-event JSON and folded into a per-layer self-time table. Nothing is
// recorded unless the tracer is switched on (the traced run), so untraced
// runs pay one branch per span site.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< spans of one request share this id
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Opens a span on the calling thread; it becomes the parent of spans
  /// opened on this thread until end() closes it.
  std::uint64_t begin(const char* name, std::uint64_t request = 0);
  void end(std::uint64_t id);

  /// Records a finished span whose interval the caller measured (an
  /// asynchronous request, started and ended at known times).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t request);

  std::vector<SpanRecord> spans() const;
  std::size_t dropped() const { return dropped_; }

  /// Writes the spans as Chrome trace-event JSON ("X" events, µs).
  bool write_chrome(const std::string& path) const;

  /// Self time per span name — duration minus the union of its children
  /// — over the spans recorded on the calling (load) thread, plus the
  /// remainder of `wall_ns` that no root span covers. Returns the table
  /// text; `unattributed_pct` receives that remainder's share of wall.
  std::string self_time_table(std::uint64_t wall_ns,
                              double* unattributed_pct) const;

 private:
  static constexpr std::size_t kMaxSpans = 400000;

  bool on_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;      // guarded by mutex_
  std::size_t dropped_ = 0;        // guarded by mutex_
};

/// RAII span around one layer call; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : id_(Tracer::instance().on() ? Tracer::instance().begin(name, request)
                                    : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::instance().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

}  // namespace perfbench
