// Small numeric helpers shared by the workloads and the self-tests: a seeded
// generator, a monotonic clock, percentile selection with sample counts, and
// the open-loop accounting (due times, backlog detection) behind wire_mixed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// splitmix64: every input the benchmark generates derives from --seed.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull) {}
  uint64_t next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  void fill(uint8_t* p, size_t len) {
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      const uint64_t v = next();
      std::copy_n(reinterpret_cast<const uint8_t*>(&v), 8, p + i);
    }
    if (i < len) {
      const uint64_t v = next();
      std::copy_n(reinterpret_cast<const uint8_t*>(&v), len - i, p + i);
    }
  }
};

/// A latency summary: the median and the p99, each with the number of
/// samples the estimate rests on. `tail_pct` is the highest of the standard
/// percentiles (99.9, 99, 95, 90, 50) that still has at least ten samples
/// beyond it — the tail this sample count can honestly support.
struct Summary {
  size_t n = 0;
  double p50 = 0, p99 = 0, max = 0;
  double tail_pct = 0;
  size_t beyond_p99 = 0;  // samples strictly above the p99 rank
};

/// Nearest-rank percentile of a SORTED sample: the smallest value with at
/// least q of the samples at or below it.
inline double percentile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double tail_percentile_for(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 0.50);
  s.p99 = percentile_sorted(v, 0.99);
  s.max = v.back();
  s.tail_pct = tail_percentile_for(v.size());
  const double rank = std::ceil(0.99 * static_cast<double>(v.size()));
  s.beyond_p99 = v.size() - std::min(v.size(), static_cast<size_t>(rank));
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Latency samples in fixed, pre-touched memory, so the benchmark's own
/// bookkeeping does not grow the resident set it reports. The first
/// `capacity` samples are kept as they come; past that, reservoir sampling
/// (seeded) keeps a uniform sample of everything offered. count() is the
/// number offered.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed) : buf_(capacity, 0.0), rng_(seed) {}
  void add(double x) {
    if (count_ < buf_.size()) {
      buf_[count_] = x;
    } else {
      const size_t j = static_cast<size_t>(rng_.next() % (count_ + 1));
      if (j < buf_.size()) buf_[j] = x;
    }
    ++count_;
  }
  size_t count() const { return count_; }
  std::vector<double> samples() const {
    return std::vector<double>(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(
                                                               std::min(count_, buf_.size())));
  }

 private:
  std::vector<double> buf_;
  Rng rng_;
  size_t count_ = 0;
};

// ---- open-loop accounting ---------------------------------------------------

/// Poisson arrivals at `rate` per second over `seconds`, conditioned on
/// their count: exactly round(rate * seconds) due times (ns offsets from the
/// phase start), independent and uniform over the interval, sorted. Given
/// its count, a Poisson process's arrival times are exactly this, so bursts
/// and gaps stay random while the offered work does not vary between seeds.
inline std::vector<uint64_t> poisson_arrivals(Rng& rng, double rate, double seconds) {
  std::vector<uint64_t> due(static_cast<size_t>(std::llround(rate * seconds)));
  for (auto& d : due) d = static_cast<uint64_t>(rng.unit() * seconds * 1e9);
  std::sort(due.begin(), due.end());
  return due;
}

/// Latency of an open-loop request: completion minus the time it was DUE,
/// not the time it was sent. A stall that delays sending therefore lands in
/// every request queued behind it, which a sent-time clock would hide.
/// Returns a negative value for a request that never completed.
inline double sojourn_us(uint64_t due_ns, uint64_t done_ns) {
  if (done_ns == 0) return -1;
  return done_ns >= due_ns ? static_cast<double>(done_ns - due_ns) / 1e3 : 0.0;
}

/// Growing-backlog test for one rung of the rate ladder. Requests are in
/// due order; `sojourn` parallel to it (negative = never completed). The
/// backlog grows when any request never completed, or when the median
/// sojourn of the last quarter of the rung exceeds both twice that of the
/// first quarter and `floor_us` (so microsecond jitter at light load never
/// reads as a trend).
inline bool backlog_growing(const std::vector<double>& sojourn, double floor_us) {
  if (sojourn.empty()) return false;
  for (double s : sojourn)
    if (s < 0) return true;
  const size_t q = sojourn.size() / 4;
  if (q < 4) return false;
  std::vector<double> first(sojourn.begin(), sojourn.begin() + static_cast<std::ptrdiff_t>(q));
  std::vector<double> last(sojourn.end() - static_cast<std::ptrdiff_t>(q), sojourn.end());
  const double a = median(first), b = median(last);
  return b > floor_us && b > 2.0 * a;
}

/// Share of attempted requests that met `limit_us`; a failed or missing
/// request (negative sojourn) counts as a miss.
inline double slo_attainment(const std::vector<double>& sojourn, double limit_us) {
  if (sojourn.empty()) return 0;
  size_t ok = 0;
  for (double s : sojourn) ok += s >= 0 && s <= limit_us;
  return static_cast<double>(ok) / static_cast<double>(sojourn.size());
}

}  // namespace perfbench
