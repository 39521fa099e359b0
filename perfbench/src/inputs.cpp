// Input generation, plan timing and host facts shared by the workloads,
// the ladder and the self-tests.
#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "slp/metrics.hpp"
#include "slp/pipeline.hpp"

namespace perfbench {

// ---- inputs -------------------------------------------------------------------

std::vector<const uint8_t*> SpecInputs::data_ptrs(size_t stripe) const {
  std::vector<const uint8_t*> p;
  for (size_t f = 0; f < k; ++f) p.push_back(frag(stripe, f));
  return p;
}

std::vector<const uint8_t*> SpecInputs::ptrs(size_t stripe,
                                             const std::vector<uint32_t>& ids) const {
  std::vector<const uint8_t*> p;
  for (uint32_t f : ids) p.push_back(frag(stripe, f));
  return p;
}

SpecInputs make_inputs(const std::string& spec, size_t frag_len, size_t count, Rng& rng,
                       std::shared_ptr<StripOracle> oracle) {
  SpecInputs in;
  in.spec = spec;
  in.frag_len = frag_len;
  if (!oracle) {
    // A private plan cache: probing must not warm the shared cache the
    // service compiles through, or set-up would be measured warm.
    auto probe = xorec::make_codec(spec + "@cache=private");
    oracle = std::make_shared<StripOracle>(*probe);
  }
  in.oracle = oracle;
  in.k = oracle->k();
  in.n = oracle->n();
  in.m = in.n - in.k;
  if (frag_len % oracle->strips())
    throw std::runtime_error(spec + ": fragment length not a multiple of its strip count");
  for (size_t s = 0; s < count; ++s) {
    in.stripes.emplace_back(in.n * frag_len);
    Buf& b = in.stripes.back();
    rng.fill(b.data(), in.k * frag_len);
    std::vector<uint8_t*> parity;
    for (size_t f = in.k; f < in.n; ++f) parity.push_back(b.data() + f * frag_len);
    oracle->encode(in.data_ptrs(s).data(), parity.data(), frag_len);
  }
  return in;
}

Pattern draw_pattern(const SpecInputs& in, size_t erasures, Rng& rng) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    std::vector<uint32_t> ids(in.n);
    for (uint32_t i = 0; i < in.n; ++i) ids[i] = i;
    for (size_t i = 0; i < erasures; ++i) std::swap(ids[i], ids[i + rng.below(in.n - i)]);
    Pattern p;
    p.erased.assign(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(erasures));
    std::sort(p.erased.begin(), p.erased.end());
    if (p.erased[0] >= in.k) continue;  // no data lost: not a degraded read
    for (uint32_t i = 0; i < in.n; ++i)
      if (!std::binary_search(p.erased.begin(), p.erased.end(), i)) p.available.push_back(i);
    if (in.oracle->recoverable(p.available, p.erased)) return p;
  }
  throw std::runtime_error(in.spec + ": no recoverable pattern with " + std::to_string(erasures) +
                           " erasures");
}

// ---- plan timing ------------------------------------------------------------------

bool PlanTimer::first_seen(const std::string& spec, const std::vector<uint32_t>& erased) {
  std::lock_guard<std::mutex> lk(mu_);
  return seen_.emplace(spec, erased).second;
}

void PlanTimer::record(bool miss, double us) {
  std::lock_guard<std::mutex> lk(mu_);
  if (miss) miss_us_.push_back(us);
  else hit_us_.add(us);
}

void PlanTimer::keep_plan(const std::string& spec, const std::vector<uint32_t>& erased,
                          std::shared_ptr<const xorec::ReconstructPlan> plan) {
  std::lock_guard<std::mutex> lk(mu_);
  plans_.emplace(std::make_pair(spec, erased), std::move(plan));
}

std::vector<double> PlanTimer::hit_us() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hit_us_.samples();
}

std::vector<double> PlanTimer::miss_us() const {
  std::lock_guard<std::mutex> lk(mu_);
  return miss_us_;
}

xorec::PlanStats PlanTimer::plan_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  xorec::PlanStats sum;
  for (const auto& [key, plan] : plans_) {
    const xorec::PlanStats& s = plan->schedule_stats();
    sum.xor_ops += s.xor_ops;
    sum.mem_accesses += s.mem_accesses;
    sum.ccap += s.ccap;
    sum.steps += s.steps;
  }
  return sum;
}

xorec::PlanStats encode_stats(const xorec::Codec& codec) {
  xorec::PlanStats s;
  const auto* p = codec.encode_pipeline();
  if (!p) return s;
  const auto m = xorec::slp::measure(p->final_program(), p->final_form());
  s.xor_ops = m.xor_ops;
  s.mem_accesses = m.mem_accesses;
  s.ccap = m.ccap;
  s.steps = 1;
  return s;
}

// ---- host record ------------------------------------------------------------------

size_t llc_bytes() {
  size_t best_level = 0, best = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    std::ifstream lv(dir + "/level"), sz(dir + "/size");
    size_t level = 0;
    std::string size;
    if (!(lv >> level) || !(sz >> size) || size.empty()) continue;
    size_t v = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') v <<= 10;
    if (size.back() == 'M') v <<= 20;
    if (level >= best_level) {
      best_level = level;
      best = v;
    }
  }
  return best;
}

double rss_mb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(f, line))
    if (line.rfind(key, 0) == 0) return std::strtod(line.c_str() + key.size(), nullptr) * 1024 / 1e6;
  return 0;
}

}  // namespace perfbench
