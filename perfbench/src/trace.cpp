#include "trace.hpp"

#include <algorithm>
#include <cstdio>

#include "stats.hpp"

namespace perfbench {

int64_t SpanBuffer::open(const char* name, uint64_t request) {
  if (!enabled()) return -1;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto local = static_cast<int64_t>(spans_.size() - 1);
  stack_.push_back(local);
  return local;
}

void SpanBuffer::close(int64_t local) {
  if (local < 0) return;
  spans_[static_cast<size_t>(local)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == local) stack_.pop_back();
}

void SpanBuffer::record(const char* name, uint64_t start_ns, uint64_t end_ns,
                        uint64_t request) {
  if (!enabled()) return;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
}

SpanBuffer& Tracer::buffer(size_t reserve) {
  std::lock_guard<std::mutex> lk(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>());
  buffers_.back()->enabled_ = enabled_;
  if (enabled_) buffers_.back()->spans_.reserve(reserve);
  return *buffers_.back();
}

std::vector<Span> Tracer::merged() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    const auto base = static_cast<int64_t>(out.size());
    for (Span s : b->spans_) {
      s.id = static_cast<int64_t>(out.size());
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

std::map<std::string, SelfTime> Tracer::self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0) children[static_cast<size_t>(spans[i].parent)].push_back(i);
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;  // never closed
    // Union of the child intervals, clipped to the parent.
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t c : children[i])
      iv.emplace_back(std::max(spans[c].start_ns, s.start_ns),
                      std::min(std::max(spans[c].end_ns, spans[c].start_ns), s.end_ns));
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      if (b <= a) continue;
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
      } else {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      }
    }
    if (open) covered += cur_b - cur_a;
    const uint64_t dur = s.end_ns - s.start_ns;
    SelfTime& st = out[s.name];
    st.count += 1;
    st.total_us += static_cast<double>(dur) / 1e3;
    st.self_us += static_cast<double>(dur - std::min(dur, covered)) / 1e3;
  }
  return out;
}

bool Tracer::write_jsonl(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"request\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
