// Shared types of the benchmark driver: options, inputs, the result record,
// and the per-layer ladder. Workload definitions live in workloads.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/xorec.hpp"
#include "oracle.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string server_bin;  // examples/net_server
  std::string workdir;     // private per-run directory (logs, traces)
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // exceptions, error frames, timeouts and wrong outputs
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::string> notes;  // human-readable lines printed before the JSON

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// 64-byte aligned, owned byte buffer.
class Buf {
 public:
  Buf() = default;
  explicit Buf(size_t len)
      : p_(static_cast<uint8_t*>(std::aligned_alloc(64, (len + 63) / 64 * 64)), &std::free),
        len_(len) {
    if (!p_) throw std::bad_alloc();
  }
  uint8_t* data() const { return p_.get(); }
  size_t size() const { return len_; }

 private:
  std::unique_ptr<uint8_t, decltype(&std::free)> p_{nullptr, &std::free};
  size_t len_ = 0;
};

/// An erasure pattern: the fragments to rebuild and the survivors passed.
struct Pattern {
  std::vector<uint32_t> erased, available;
};

/// One spec's generated inputs at one fragment size: stripes whose first k
/// fragments are random data and last m the ORACLE's parity.
struct SpecInputs {
  std::string spec;
  size_t k = 0, m = 0, n = 0, frag_len = 0;
  std::shared_ptr<StripOracle> oracle;
  std::vector<Buf> stripes;  // n * frag_len bytes each

  const uint8_t* frag(size_t stripe, size_t f) const {
    return stripes[stripe].data() + f * frag_len;
  }
  std::vector<const uint8_t*> data_ptrs(size_t stripe) const;
  std::vector<const uint8_t*> ptrs(size_t stripe, const std::vector<uint32_t>& ids) const;
  size_t data_bytes() const { return k * frag_len; }
};

/// Probe `spec` through a private-cache codec (so the process-shared plan
/// cache stays cold for set-up) and generate `count` stripes.
SpecInputs make_inputs(const std::string& spec, size_t frag_len, size_t count, Rng& rng,
                       std::shared_ptr<StripOracle> oracle = nullptr);

/// A seeded recoverable pattern with `erasures` lost fragments, at least one
/// of them data (a degraded read wants data back).
Pattern draw_pattern(const SpecInputs& in, size_t erasures, Rng& rng);

/// Times each bench-side plan_reconstruct call, classified as a miss when
/// the (spec, pattern) was never requested before in this process.
class PlanTimer {
 public:
  explicit PlanTimer(uint64_t seed) : hit_us_(300000, seed) {}
  /// Returns true for a first-seen key (the call is a cache miss).
  bool first_seen(const std::string& spec, const std::vector<uint32_t>& erased);
  void record(bool miss, double us);
  void keep_plan(const std::string& spec, const std::vector<uint32_t>& erased,
                 std::shared_ptr<const xorec::ReconstructPlan> plan);
  std::vector<double> hit_us() const;
  std::vector<double> miss_us() const;
  /// Σ PlanStats over the distinct plans kept.
  xorec::PlanStats plan_stats() const;

 private:
  mutable std::mutex mu_;
  std::set<std::pair<std::string, std::vector<uint32_t>>> seen_;
  std::map<std::pair<std::string, std::vector<uint32_t>>,
           std::shared_ptr<const xorec::ReconstructPlan>>
      plans_;
  Reservoir hit_us_;  // one per read: fixed memory
  std::vector<double> miss_us_;  // one per distinct pattern
};

/// Static cost of a codec's encode program (the paper's #⊕, #M, CCap).
xorec::PlanStats encode_stats(const xorec::Codec& codec);

// ---- per-layer ladder -------------------------------------------------------

/// One request shape timed at every rung, from the XOR kernel out to the
/// wire: kernel call, direct Codec::encode / ReconstructPlan::execute,
/// BatchCoder, ServiceHandle, net::Client.
struct LadderShape {
  const SpecInputs* in = nullptr;
  xorec::ServiceHandle* handle = nullptr;
  bool read = false;
  std::string label;
};

struct LadderRow {
  std::string label;
  size_t samples = 0;
  size_t data_bytes = 0;
  // per-rung latency samples (µs), paired by sample index
  std::map<std::string, std::vector<double>> rung_us;
};

struct LadderOutput {
  std::vector<LadderRow> rows;
  std::vector<double> scrape_ms;
};

/// Runs every shape for about `budget_s` in total, recording spans through
/// `sb`. Outputs are verified; mismatches and failures land in `res`.
LadderOutput run_ladder(std::vector<LadderShape>& shapes, uint16_t tcp_port,
                        uint16_t monitor_port, double budget_s, SpanBuffer& sb,
                        PlanTimer& plans, Result& res);

/// Adds the ladder-derived per-layer metrics (primary shapes: rows[0] is an
/// encode, the first read row is the read) and the ladder table as notes.
void report_ladder(const LadderOutput& out, Result& res);

// ---- workloads ----------------------------------------------------------------

Result run_workload(const Options& opt);

/// Host facts recorded with every run.
size_t llc_bytes();
double rss_mb(const char* field);  // "VmRSS" / "VmHWM" of this process, MB

}  // namespace perfbench
