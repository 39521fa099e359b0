// The per-layer ladder: the same request timed at each rung, interleaved
// sample by sample so host drift lands on every rung alike. A layer's self
// time is one rung minus the rung below it, paired per sample.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "kernel/xor_kernel.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

constexpr size_t kMaxSamples = 4000;

const char* const kRungs[] = {"rung.kernel", "rung.memcpy", "rung.crc32", "rung.direct",
                              "rung.batch",  "rung.service", "rung.client"};

double us_since(uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e3; }

std::vector<double> paired_diff(const std::vector<double>& hi, const std::vector<double>& lo) {
  std::vector<double> d;
  for (size_t i = 0; i < std::min(hi.size(), lo.size()); ++i) d.push_back(hi[i] - lo[i]);
  return d;
}

double gbps(size_t bytes, double us) { return us > 0 ? static_cast<double>(bytes) / (us * 1e3) : 0; }

}  // namespace

LadderOutput run_ladder(std::vector<LadderShape>& shapes, uint16_t tcp_port,
                        uint16_t monitor_port, double budget_s, SpanBuffer& sb,
                        PlanTimer& plans, Result& res) {
  LadderOutput out;
  std::unique_ptr<xorec::net::Client> client;
  if (tcp_port) client = std::make_unique<xorec::net::Client>("127.0.0.1", tcp_port, 30000);
  const double per_shape = budget_s / static_cast<double>(std::max<size_t>(1, shapes.size()));
  uint64_t request = 1ull << 60;

  for (auto& sh : shapes) {
    const SpecInputs& in = *sh.in;
    const xorec::ServiceHandle& h = *sh.handle;
    auto codec = h.codec_ptr();
    xorec::BatchCoder batch(codec, 1);
    const auto xor_k = xorec::kernel::resolve(xorec::kernel::Isa::Auto);
    const size_t len = in.frag_len;

    Pattern pat;
    std::shared_ptr<const xorec::ReconstructPlan> plan;
    if (sh.read) {
      pat.erased = {0};
      for (uint32_t f = 1; f < in.n; ++f) pat.available.push_back(f);
      const bool miss = plans.first_seen(h.spec(), pat.erased);
      const uint64_t t0 = now_ns();
      plan = h.plan_reconstruct(pat.available, pat.erased);
      plans.record(miss, us_since(t0));
      plans.keep_plan(h.spec(), pat.erased, plan);
    }
    const size_t outs = sh.read ? pat.erased.size() : in.m;
    std::vector<Buf> out_bufs;
    for (size_t i = 0; i < outs; ++i) out_bufs.emplace_back(len);
    std::vector<uint8_t*> out_ptrs;
    for (auto& b : out_bufs) out_ptrs.push_back(b.data());
    Buf scratch(in.data_bytes());

    LadderRow row;
    row.label = sh.label;
    row.data_bytes = in.data_bytes();
    auto verify = [&](size_t stripe) {
      for (size_t i = 0; i < outs; ++i) {
        const uint8_t* want = sh.read ? in.frag(stripe, pat.erased[i]) : in.frag(stripe, in.k + i);
        if (!StripOracle::same(out_ptrs[i], want, len)) {
          ++res.failed;
          res.correct = false;
        }
      }
    };

    const uint64_t deadline = now_ns() + static_cast<uint64_t>(per_shape * 1e9);
    const size_t nrungs = sizeof(kRungs) / sizeof(kRungs[0]);
    for (size_t i = 0; i < kMaxSamples && (i < 3 || now_ns() < deadline); ++i, ++request) {
      for (size_t r = 0; r < nrungs; ++r) {
        const std::string rung = kRungs[r];
        if (rung == "rung.client" && !client) continue;
        // A different stripe per rung: on a ring larger than the LLC every
        // rung streams from DRAM, as the workload does.
        const size_t stripe = (i * nrungs + r) % in.stripes.size();
        std::vector<const uint8_t*> src =
            sh.read ? in.ptrs(stripe, pat.available) : in.data_ptrs(stripe);
        for (auto& b : out_bufs) std::memset(b.data(), 0, len);
        const uint64_t t0 = now_ns();
        bool check = true;
        try {
          if (rung == "rung.kernel") {
            xor_k(out_ptrs[0], src.data(), in.k, len);
            check = false;
          } else if (rung == "rung.memcpy") {
            std::memcpy(scratch.data(), in.frag(stripe, 0), in.data_bytes());
            check = false;
          } else if (rung == "rung.crc32") {
            volatile uint32_t c = xorec::net::crc32(in.frag(stripe, 0), in.data_bytes());
            (void)c;
            check = false;
          } else if (rung == "rung.direct") {
            if (sh.read) plan->execute(src.data(), out_ptrs.data(), len);
            else codec->encode(src.data(), out_ptrs.data(), len);
          } else if (rung == "rung.batch") {
            if (sh.read) batch.submit_reconstruct(plan, src.data(), out_ptrs.data(), len).get();
            else batch.submit_encode(src.data(), out_ptrs.data(), len).get();
          } else if (rung == "rung.service") {
            if (sh.read) {
              const uint64_t p0 = now_ns();
              auto p = h.plan_reconstruct(pat.available, pat.erased);
              plans.record(false, us_since(p0));
              h.reconstruct(std::move(p), src.data(), out_ptrs.data(), len).get();
            } else {
              h.encode(src.data(), out_ptrs.data(), len).get();
            }
          } else {  // rung.client
            if (sh.read)
              client->reconstruct(h.spec(), pat.available, src.data(), pat.erased,
                                  out_ptrs.data(), len);
            else
              client->encode(h.spec(), src.data(), static_cast<uint32_t>(in.k), out_ptrs.data(),
                             static_cast<uint32_t>(in.m), len);
          }
        } catch (const std::exception& e) {
          ++res.failed;
          res.note(std::string("ladder failure: ") + e.what());
          continue;
        }
        const uint64_t t1 = now_ns();
        sb.record(kRungs[r], t0, t1, request);
        row.rung_us[rung].push_back(static_cast<double>(t1 - t0) / 1e3);
        ++res.attempted;
        if (check) verify(stripe);
      }
      ++row.samples;
    }
    if (monitor_port) {
      const Scrape s = scrape_metrics(monitor_port);
      if (s.ok) out.scrape_ms.push_back(s.ms);
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

void report_ladder(const LadderOutput& out, Result& res) {
  if (out.rows.empty()) return;
  const LadderRow* enc = &out.rows[0];
  const LadderRow* rd = nullptr;
  for (const auto& r : out.rows)
    if (r.label.find("read") != std::string::npos) {
      rd = &r;
      break;
    }
  auto rung = [](const LadderRow& r, const char* name) -> const std::vector<double>& {
    static const std::vector<double> empty;
    auto it = r.rung_us.find(name);
    return it == r.rung_us.end() ? empty : it->second;
  };
  auto p50 = [&](const LadderRow& r, const char* name) { return summarize(rung(r, name)).p50; };

  res.put("kernel.xor_gbps", gbps(enc->data_bytes, p50(*enc, "rung.kernel")), "GB/s");
  res.put("kernel.memcpy_gbps", gbps(enc->data_bytes, p50(*enc, "rung.memcpy")), "GB/s");
  const double enc_gbps = gbps(enc->data_bytes, p50(*enc, "rung.direct"));
  res.put("runtime.encode_gbps", enc_gbps, "GB/s");
  res.put("runtime.read_gbps", rd ? gbps(rd->data_bytes, p50(*rd, "rung.direct")) : 0, "GB/s");
  const double xor_gbps = gbps(enc->data_bytes, p50(*enc, "rung.kernel"));
  res.put("runtime.roofline_frac", xor_gbps > 0 ? enc_gbps / xor_gbps : 0, "ratio");
  res.put("runtime.self_us_p50",
          summarize(paired_diff(rung(*enc, "rung.direct"), rung(*enc, "rung.kernel"))).p50, "us");
  res.put("api.batch_overhead_us_p50",
          summarize(paired_diff(rung(*enc, "rung.batch"), rung(*enc, "rung.direct"))).p50, "us");
  const Summary svc = summarize(paired_diff(rung(*enc, "rung.service"), rung(*enc, "rung.direct")));
  res.put("api.service_overhead_us_p50", svc.p50, "us");
  res.put("api.service_overhead_us_p99", svc.p99, "us");
  const Summary net =
      summarize(paired_diff(rung(*enc, "rung.client"), rung(*enc, "rung.service")));
  res.put("net.wire_overhead_us_p50", net.p50, "us");
  res.put("net.wire_overhead_us_p99", net.p99, "us");
  res.put("net.crc32_gbps", gbps(enc->data_bytes, p50(*enc, "rung.crc32")), "GB/s");

  char line[256];
  for (const auto& r : out.rows) {
    std::snprintf(line, sizeof(line), "ladder %-28s samples %zu  data %zu B", r.label.c_str(),
                  r.samples, r.data_bytes);
    res.note(line);
    for (const char* name : kRungs) {
      const Summary s = summarize(rung(r, name));
      if (!s.n) continue;
      std::snprintf(line, sizeof(line), "  %-13s p50 %10.2f us  p99 %10.2f us  (n=%zu)", name,
                    s.p50, s.p99, s.n);
      res.note(line);
    }
    const char* layers[][3] = {{"runtime", "rung.direct", "rung.kernel"},
                               {"api.batch", "rung.batch", "rung.direct"},
                               {"api.service", "rung.service", "rung.direct"},
                               {"net", "rung.client", "rung.service"}};
    for (auto& l : layers) {
      const Summary s = summarize(paired_diff(rung(r, l[1]), rung(r, l[2])));
      if (!s.n) continue;
      std::snprintf(line, sizeof(line), "  self %-9s p50 %10.2f us  p99 %10.2f us  (n=%zu)", l[0],
                    s.p50, s.p99, s.n);
      res.note(line);
    }
  }
}

}  // namespace perfbench
