// Spans recorded by the benchmark around each call it makes into a layer.
//
// A span is (name, start, end, parent, request id). Each generator thread
// appends to its own pre-reserved buffer, so recording takes no lock on the
// request path; the buffers are merged and written out when the run ends.
// Self time of a span is its duration minus the union of the intervals its
// child spans cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // string literal: spans never own their names
  uint64_t start_ns = 0, end_ns = 0;
  int64_t id = -1;      // index in the merged span list (assigned on merge)
  int64_t parent = -1;  // id of the enclosing span, -1 for a root
  uint64_t request = 0;
};

class Tracer;

/// One thread's span buffer. open()/close() nest: a span opened while
/// another is open becomes its child.
class SpanBuffer {
 public:
  /// Returns the span's local index, or -1 when tracing is off.
  int64_t open(const char* name, uint64_t request);
  void close(int64_t local);
  /// A span whose times were taken elsewhere (open-loop completions, which
  /// finish on another thread than the one that sent them).
  void record(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t request);
  bool enabled() const { return enabled_ && active_; }
  /// Pause/resume recording (traced and untraced slices of one run).
  void set_active(bool active) { active_ = active; }

 private:
  friend class Tracer;
  bool enabled_ = false;
  bool active_ = true;
  std::vector<Span> spans_;  // parent holds a LOCAL index until merge
  std::vector<int64_t> stack_;
};

/// RAII span over one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buf, const char* name, uint64_t request)
      : buf_(buf), local_(buf.open(name, request)) {}
  ~ScopedSpan() { buf_.close(local_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer& buf_;
  int64_t local_;
};

struct SelfTime {
  size_t count = 0;
  double total_us = 0;  // summed duration
  double self_us = 0;   // summed self time
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A new per-thread buffer (owned by the tracer, stable address).
  SpanBuffer& buffer(size_t reserve = 1 << 16);

  /// Merge every buffer into one list with global ids.
  std::vector<Span> merged() const;

  /// Self time per span name, derived from the merged spans.
  static std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);

  /// Write spans as JSON lines; returns false on I/O failure.
  static bool write_jsonl(const std::vector<Span>& spans, const std::string& path);

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench
