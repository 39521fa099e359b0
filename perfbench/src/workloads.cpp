// The three workloads. Each builds its inputs from --seed, sets the system up
// (timed as setup_s), drives it for --seconds, checks every output against
// the oracle outside the timed interval, and reports its metrics.
//
//   bulk_encode    in-process CodecService, closed loop, 2 generator threads,
//                  rs(10,4) + lrc(6,2,2) at 1 MiB fragments over a stripe
//                  ring larger than the LLC; 80% encodes, 20% single-erasure
//                  degraded reads.
//   degraded_read  cold in-process CodecService, closed loop, 2 threads,
//                  4 KiB fragments, 80% degraded reads / 20% encodes over
//                  rs(10,4), lrc(6,2,2), piggyback(6,4,2).
//   wire_mixed     examples/net_server as its own process, Poisson open loop
//                  over 2 pipelined connections, 80% 1 KiB / 20% 64 KiB,
//                  70% encode / 30% reconstruct, then a rate ladder.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "net/frame.hpp"
#include "slp/metrics.hpp"
#include "slp/pipeline.hpp"
#include "loadgen.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

// End-to-end figures are medians over kWindows equal windows of the
// measured interval: a burst of host noise that spoils one window moves
// the median little. Within a window the latency median is taken per spec
// and averaged over the specs, so the share of requests a faster spec
// happens to complete cannot move it between the specs' far-apart modes.
constexpr size_t kWindows = 30;

class Windows {
 public:
  Windows() : w_(kWindows) {}
  void add(size_t w, size_t group, double us) {
    if (w_[w].size() <= group) w_[w].resize(group + 1);
    w_[w][group].push_back(us);
    ++n_;
  }
  void add(size_t w, size_t group, const Reservoir& r) {
    if (w_[w].size() <= group) w_[w].resize(group + 1);
    const auto v = r.samples();
    w_[w][group].insert(w_[w][group].end(), v.begin(), v.end());
    n_ += r.count();
  }
  /// Per window: the mean over groups of each group's median.
  std::vector<double> p50s() const {
    std::vector<double> out;
    for (const auto& groups : w_) {
      double sum = 0;
      size_t live = 0;
      for (const auto& g : groups)
        if (!g.empty()) {
          sum += summarize(g).p50;
          ++live;
        }
      if (live) out.push_back(sum / static_cast<double>(live));
    }
    return out;
  }
  /// p50: the median of the window p50s. p99 (printed, not gated): the p99
  /// of every sample kept, pooled. n is every sample offered.
  Summary summary() const {
    std::vector<double> all;
    for (const auto& groups : w_)
      for (const auto& g : groups) all.insert(all.end(), g.begin(), g.end());
    Summary s = summarize(all);
    s.p50 = median(p50s());
    s.n = n_;
    s.tail_pct = tail_percentile_for(n_);
    s.beyond_p99 = n_ - std::min(n_, static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n_))));
    return s;
  }

 private:
  std::vector<std::vector<std::vector<double>>> w_;  // window -> group -> samples
  size_t n_ = 0;
};

void note_windows(const char* name, const std::vector<double>& v, Result& res) {
  std::string line = std::string("windows ") + name + ":";
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), " %.4g", x);
    line += buf;
  }
  res.note(line);
}

void note_host(Result& res) {
  char line[256];
  std::snprintf(line, sizeof(line), "host: nproc %u  llc_bytes %zu  compiler %s",
                std::thread::hardware_concurrency(), llc_bytes(), XBENCH_CXX_ID);
  res.note(line);
}

void note_pools(const xorec::ServiceStats& st, Result& res) {
  for (const auto& p : st.pools)
    res.note("config: pool " + p.spec + " shard " + std::to_string(p.shard) + " exec " +
             p.exec_backend + " isa " + p.exec_isa);
}

void note_latency(const char* name, const Summary& s, Result& res) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-14s p50 %.2f us  p99 %.2f us  (%zu windows; n=%zu, %zu beyond p99; "
                "supports p%g)",
                name, s.p50, s.p99, kWindows, s.n, s.beyond_p99, s.tail_pct);
  res.note(line);
}

// Latency limits behind slo_attain, one per workload, applied to every
// request. Each is about three times the p99 of the workload's slowest
// request class in quiet runs of the seed on the 4-vCPU reference host
// (bulk_encode 2.8 ms, degraded_read 90 us, wire_mixed 13 ms), so
// attainment sits near 1 on the seed and falls when a change fattens the
// tail.
double latency_limit_us(const std::string& workload) {
  if (workload == "bulk_encode") return 10000;
  if (workload == "degraded_read") return 300;
  return 40000;
}

struct E2E {
  double goodput_gbps = 0;
  Summary enc, read;
  size_t slo_ok = 0, slo_total = 0;  // within the limit / attempted
  double peak_rss_mb = 0;
};

void put_e2e(const std::string& workload, const E2E& e, double setup_s, Result& res) {
  const Summary &enc = e.enc, &rd = e.read;
  const double limit = latency_limit_us(workload);
  res.put("setup_s", setup_s, "s");
  // Goodput and the p99s are printed (with sample counts) but are not
  // metrics of the JSON result: on a shared 4-vCPU VM, minutes-long spells
  // of host contention move them 20-100% between runs, beyond any bound a
  // regression gate can use, while the medians move 5-9%.
  res.put("encode_p50_us", enc.p50, "us");
  res.put("read_p50_us", rd.p50, "us");
  res.put("slo_attain",
          e.slo_total ? static_cast<double>(e.slo_ok) / static_cast<double>(e.slo_total) : 0,
          "ratio");
  res.put("peak_rss_mb", e.peak_rss_mb, "MB");
  note_latency("encode", enc, res);
  note_latency("read", rd, res);
  char gp[96];
  std::snprintf(gp, sizeof(gp), "goodput_gbps %.4f GB/s (median over %zu windows)",
                e.goodput_gbps, kWindows);
  res.note(gp);

  char line[160];
  std::snprintf(line, sizeof(line), "slo_attain limit %.0f us over %zu attempted requests", limit,
                e.slo_total);
  res.note(line);
}

// Every per-layer metric, in report order; each workload's traced run fills
// all of them.
const char* const kPerLayer[] = {
    "kernel.xor_gbps",         "kernel.memcpy_gbps",        "runtime.encode_gbps",
    "runtime.read_gbps",       "runtime.roofline_frac",     "runtime.self_us_p50",
    "slp.xor_ops",             "slp.mem_accesses",          "slp.ccap",
    "ec.plan_hit_ratio",       "ec.plan_compiles",          "ec.plan_hit_us_p50",
    "ec.plan_miss_ms_p50",     "ec.plan_miss_ms_max",       "ec.compile_s_total",
    "api.batch_overhead_us_p50", "api.service_overhead_us_p50", "api.service_overhead_us_p99",
    "api.queue_depth_mean",    "api.shard_spread",          "net.crc32_gbps",
    "net.wire_overhead_us_p50", "net.wire_overhead_us_p99", "net.backpressure_stalls",
    "net.errors",              "net.bytes_per_request",     "obs.scrape_ms_p50",
    "bench.gen_lag_p99_us",    "bench.trace_overhead_frac"};

/// End of a traced run: span self times as notes, spans to the run
/// directory, per-layer metrics in report order (every one present).
void finish_trace(const Tracer& tracer, const Options& opt, Result& res) {
  const std::vector<Span> spans = tracer.merged();
  for (const auto& [name, st] : Tracer::self_times(spans)) {
    char line[200];
    std::snprintf(line, sizeof(line), "span %-20s n %8zu  total %12.0f us  self %12.0f us",
                  name.c_str(), st.count, st.total_us, st.self_us);
    res.note(line);
  }
  Tracer::write_jsonl(spans, opt.workdir + "/spans.jsonl");
  std::vector<std::pair<std::string, Metric>> out;
  for (const char* name : kPerLayer) {
    auto it = std::find_if(res.metrics.begin(), res.metrics.end(),
                           [&](const auto& m) { return m.first == name; });
    if (it == res.metrics.end()) throw std::logic_error(std::string("per-layer metric missing: ") + name);
    out.push_back(*it);
  }
  res.metrics = std::move(out);
}

void put_plan_metrics(const PlanTimer& plans, double hits, double misses, double compile_s,
                      Result& res) {
  res.put("ec.plan_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  res.put("ec.plan_compiles", misses, "count");
  const Summary hit = summarize(plans.hit_us()), miss = summarize(plans.miss_us());
  res.put("ec.plan_hit_us_p50", hit.p50, "us");
  res.put("ec.plan_miss_ms_p50", miss.p50 / 1e3, "ms");
  res.put("ec.plan_miss_ms_max", miss.max / 1e3, "ms");
  res.put("ec.compile_s_total", compile_s, "s");
  char line[160];
  std::snprintf(line, sizeof(line), "plan lookups: %zu hits, %zu first-touch misses (bench-timed)",
                hit.n, miss.n);
  res.note(line);
}

void put_slp(const xorec::PlanStats& s, Result& res) {
  res.put("slp.xor_ops", static_cast<double>(s.xor_ops), "count");
  res.put("slp.mem_accesses", static_cast<double>(s.mem_accesses), "count");
  res.put("slp.ccap", static_cast<double>(s.ccap), "count");
}

void add_stats(xorec::PlanStats& a, const xorec::PlanStats& b) {
  a.xor_ops += b.xor_ops;
  a.mem_accesses += b.mem_accesses;
  a.ccap += b.ccap;
  a.steps += b.steps;
}

void put_net_server(const Scrape& s, Result& res) {
  const double reqs = s.get("xorec_net_requests_total");
  res.put("net.backpressure_stalls", s.get("xorec_net_backpressure_stalls_total"), "count");
  res.put("net.errors", s.get("xorec_net_errors_total"), "count");
  res.put("net.bytes_per_request",
          reqs > 0 ? (s.get("xorec_net_tcp_bytes_in_total") + s.get("xorec_net_tcp_bytes_out_total")) / reqs
                   : 0,
          "B");
}

double shard_spread(const std::vector<double>& jobs) {
  double lo = 0, hi = 0;
  bool any = false;
  for (double j : jobs) {
    if (j <= 0) continue;
    lo = any ? std::min(lo, j) : j;
    hi = any ? std::max(hi, j) : j;
    any = true;
  }
  return any ? hi / lo : 0;
}

std::string server_dir(const Options& opt, const char* tag) {
  const std::string d = opt.workdir + "/" + tag;
  ::mkdir(d.c_str(), 0700);
  return d;
}

// ---- in-process closed loop ---------------------------------------------------------

struct InProcSpec {
  SpecInputs in;
  xorec::ServiceHandle* handle = nullptr;
  // Degraded-read pattern universe and cumulative draw weights.
  std::vector<Pattern> patterns;
  std::vector<double> cum_weight;
  std::atomic<size_t> ring{0};
};

struct LoopConfig {
  double read_share = 0;
  bool ring = false;  // rotate stripes in order (DRAM streaming) vs draw at random
  // Generator thread t drives spec t only, so the two streams never queue
  // behind each other on one shard; otherwise every request draws a spec.
  bool spec_per_thread = false;
};

// Latency samples kept per thread, class, window and spec before reservoir
// sampling starts (pre-touched, so they sit in the RSS baseline).
constexpr size_t kKeep = 8000;

/// One generator thread's storage: output buffers and latency reservoirs,
/// all allocated and touched before the RSS baseline is taken, so
/// peak_rss_mb measures the library's memory and not the benchmark's.
struct ThreadOut {
  ThreadOut(uint64_t seed, size_t specs, size_t outs, size_t out_len)
      : gen_lag_us(kKeep, seed), bytes_w(kWindows, 0) {
    for (size_t i = 0; i < kWindows * specs; ++i) {
      enc_us.emplace_back(kKeep, seed + 2 * i + 1);
      read_us.emplace_back(kKeep, seed + 2 * i + 2);
    }
    for (size_t i = 0; i < outs; ++i) {
      out_bufs.emplace_back(out_len);
      std::memset(out_bufs.back().data(), 0, out_len);
      out_ptrs.push_back(out_bufs.back().data());
    }
  }
  std::vector<Buf> out_bufs;
  std::vector<uint8_t*> out_ptrs;
  std::vector<Reservoir> enc_us, read_us;  // [window * specs + spec]
  Reservoir gen_lag_us;
  std::vector<uint64_t> bytes_w;  // verified data bytes per window
  uint64_t bytes_traced = 0, bytes_untraced = 0;
  uint64_t attempted = 0, failed = 0, wrong = 0, slo_ok = 0;
  double limit_us = 0;
};

constexpr size_t kSlices = 7;  // slice 0 warms up; odd slices traced, even untraced

void closed_loop_thread(std::vector<std::unique_ptr<InProcSpec>>& specs, const LoopConfig& cfg,
                        uint64_t seed, size_t tid, uint64_t start, double seconds, bool trace,
                        SpanBuffer& sb, PlanTimer& plans, ThreadOut& out) {
  Rng rng(seed * 7919 + tid + 1);
  std::vector<uint8_t*>& outp = out.out_ptrs;

  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  const double slice_ns = seconds * 1e9 / kSlices;
  const double window_ns = seconds * 1e9 / kWindows;
  uint64_t prev_done = 0, seq = 0;
  for (;;) {
    const uint64_t t0 = now_ns();
    if (t0 >= end) break;
    const size_t slice = static_cast<size_t>(static_cast<double>(t0 - start) / slice_ns);
    const bool traced = trace && slice % 2 == 1;
    const size_t win = std::min(kWindows - 1, static_cast<size_t>(static_cast<double>(t0 - start) / window_ns));
    sb.set_active(traced);
    const size_t si = cfg.spec_per_thread ? tid % specs.size() : rng.below(specs.size());
    InProcSpec& sp = *specs[si];
    const SpecInputs& in = sp.in;
    const size_t stripe = cfg.ring ? sp.ring.fetch_add(1) % in.stripes.size()
                                   : rng.below(in.stripes.size());
    const bool read = rng.unit() < cfg.read_share;
    const Pattern* pat = nullptr;
    if (read) {
      const double u = rng.unit();
      size_t i = 0;
      while (i + 1 < sp.cum_weight.size() && u >= sp.cum_weight[i]) ++i;
      pat = &sp.patterns[i];
    }
    const uint64_t rid = (static_cast<uint64_t>(tid) << 48) | seq++;
    if (prev_done) out.gen_lag_us.add(static_cast<double>(t0 - prev_done) / 1e3);
    ++out.attempted;

    const uint64_t s0 = now_ns();
    bool ok = true;
    {
      ScopedSpan root(sb, "request", rid);
      try {
        if (!read) {
          ScopedSpan span(sb, "api.encode", rid);
          sp.handle->encode(in.data_ptrs(stripe).data(), outp.data(), in.frag_len).get();
        } else {
          const std::vector<const uint8_t*> avail = in.ptrs(stripe, pat->available);
          const bool miss = plans.first_seen(in.spec, pat->erased);
          const uint64_t p0 = now_ns();
          std::shared_ptr<const xorec::ReconstructPlan> plan;
          {
            ScopedSpan span(sb, "ec.plan_reconstruct", rid);
            plan = sp.handle->plan_reconstruct(pat->available, pat->erased);
          }
          plans.record(miss, static_cast<double>(now_ns() - p0) / 1e3);
          if (miss) plans.keep_plan(in.spec, pat->erased, plan);
          ScopedSpan span(sb, "api.reconstruct", rid);
          sp.handle->reconstruct(std::move(plan), avail.data(), outp.data(), in.frag_len).get();
        }
      } catch (const std::exception&) {
        ok = false;
      }
    }
    const uint64_t s1 = now_ns();
    const double us = static_cast<double>(s1 - s0) / 1e3;

    if (ok) {  // verification: outside the timed interval
      ScopedSpan span(sb, "bench.verify", rid);
      const size_t outs = read ? pat->erased.size() : in.m;
      for (size_t i = 0; i < outs; ++i) {
        const uint8_t* want = read ? in.frag(stripe, pat->erased[i]) : in.frag(stripe, in.k + i);
        if (!StripOracle::same(outp[i], want, in.frag_len)) ok = false;
      }
      if (!ok) ++out.wrong;
    } else {
      ++out.failed;
    }
    if (ok) {
      (read ? out.read_us : out.enc_us)[win * specs.size() + si].add(us);
      out.slo_ok += us <= out.limit_us;
      out.bytes_w[win] += in.data_bytes();
      if (slice > 0) (traced ? out.bytes_traced : out.bytes_untraced) += in.data_bytes();
    }
    prev_done = s1;  // gen lag: verification and request selection
  }
  sb.set_active(true);
}

struct InProcRun {
  std::unique_ptr<xorec::CodecService> svc;
  std::vector<xorec::ServiceHandle> handles;
  double setup_s = 0;
};

InProcRun inproc_setup(const std::vector<std::string>& specs) {
  InProcRun r;
  const uint64_t t0 = now_ns();
  r.svc = std::make_unique<xorec::CodecService>();
  for (const auto& s : specs) r.handles.push_back(r.svc->acquire(s));
  r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return r;
}

Result run_inproc(const Options& opt, const std::vector<std::string>& spec_names,
                  size_t frag_len, const LoopConfig& cfg,
                  const std::function<void(std::vector<std::unique_ptr<InProcSpec>>&, Rng&)>& make) {
  Result res;
  note_host(res);
  if (opt.setup_only) {
    res.put("setup_s", inproc_setup(spec_names).setup_s, "s");
    return res;
  }
  Rng rng(opt.seed);
  std::vector<std::unique_ptr<InProcSpec>> specs;
  for (const auto& s : spec_names) {
    specs.push_back(std::make_unique<InProcSpec>());
    specs.back()->in.spec = s;
    specs.back()->in.frag_len = frag_len;
  }
  make(specs, rng);  // inputs + pattern universes (not part of set-up)
  constexpr size_t kThreads = 2;
  PlanTimer plans(opt.seed);
  size_t max_len = 0, max_out = 0;
  for (auto& s : specs) {
    max_len = std::max(max_len, s->in.frag_len);
    max_out = std::max(max_out, s->in.m);
  }
  std::vector<ThreadOut> outs;
  for (size_t t = 0; t < kThreads; ++t) {
    outs.emplace_back(opt.seed * 31 + t, specs.size(), max_out, max_len);
    outs.back().limit_us = latency_limit_us(opt.workload);
  }

  const double rss_before = rss_mb("VmRSS");
  InProcRun run = inproc_setup(spec_names);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i]->handle = &run.handles[i];
    specs[i]->in.spec = run.handles[i].spec();
  }
  note_pools(run.svc->stats(), res);

  const bool trace = opt.trace;
  const double loop_s = trace ? opt.seconds * 0.6 : opt.seconds;
  Tracer tracer(trace);
  const xorec::CacheStats c0 = run.svc->stats().cache;

  std::vector<SpanBuffer*> bufs;
  for (size_t t = 0; t < kThreads; ++t) bufs.push_back(&tracer.buffer());
  std::atomic<bool> polling{trace};
  std::vector<double> depth;
  std::thread poller;
  if (trace)
    poller = std::thread([&] {
      while (polling.load()) {
        double d = 0;
        for (const auto& sh : run.svc->stats().shards) d += static_cast<double>(sh.queue_depth);
        depth.push_back(d);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  const uint64_t start = now_ns();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back(closed_loop_thread, std::ref(specs), std::cref(cfg), opt.seed, t, start,
                         loop_s, trace, std::ref(*bufs[t]), std::ref(plans), std::ref(outs[t]));
  for (auto& th : threads) th.join();
  // Before any post-processing: merging the samples below allocates too.
  const double hwm_after = rss_mb("VmHWM");
  polling = false;
  if (poller.joinable()) poller.join();

  E2E e;
  struct {
    uint64_t bytes_traced = 0, bytes_untraced = 0;
  } all;
  Windows enc, rd;
  std::vector<double> lag, goodput_w(kWindows, 0);
  for (auto& o : outs) {
    for (size_t w = 0; w < kWindows; ++w) {
      for (size_t i = 0; i < specs.size(); ++i) {
        enc.add(w, i, o.enc_us[w * specs.size() + i]);
        rd.add(w, i, o.read_us[w * specs.size() + i]);
      }
      goodput_w[w] += static_cast<double>(o.bytes_w[w]) / (loop_s / kWindows) / 1e9;
    }
    const auto v = o.gen_lag_us.samples();
    lag.insert(lag.end(), v.begin(), v.end());
    e.slo_ok += o.slo_ok;
    e.slo_total += o.attempted;
    all.bytes_traced += o.bytes_traced;
    all.bytes_untraced += o.bytes_untraced;
    res.attempted += o.attempted;
    res.failed += o.failed + o.wrong;
    if (o.wrong) res.correct = false;
  }
  e.goodput_gbps = median(goodput_w);
  e.enc = enc.summary();
  e.read = rd.summary();
  note_windows("goodput_gbps", goodput_w, res);
  note_windows("encode_p50_us", enc.p50s(), res);
  note_windows("read_p50_us", rd.p50s(), res);

  if (!trace) {
    e.peak_rss_mb = hwm_after - rss_before;
    put_e2e(opt.workload, e, run.setup_s, res);
    return res;
  }

  // Traced run: the ladder, against a net_server child for the wire rung.
  const xorec::ServiceStats s1 = run.svc->stats();
  ServerProcess server(opt.server_bin, server_dir(opt, "ladder_server"));
  SpanBuffer& lsb = tracer.buffer();
  std::vector<LadderShape> shapes;
  for (size_t i = 0; i < specs.size(); ++i)
    for (bool read : {false, true})
      shapes.push_back({&specs[i]->in, specs[i]->handle, read,
                        specs[i]->in.spec + "@" + std::to_string(frag_len / 1024) + "KiB " +
                            (read ? "read" : "encode")});
  const LadderOutput lad =
      run_ladder(shapes, server.tcp_port(), server.monitor_port(), opt.seconds * 0.4, lsb, plans, res);
  const Scrape net = scrape_metrics(server.monitor_port());

  report_ladder(lad, res);
  xorec::PlanStats slp = plans.plan_stats();
  for (auto& sp : specs) add_stats(slp, encode_stats(sp->handle->codec()));
  put_slp(slp, res);
  const xorec::CacheStats c1 = s1.cache;
  put_plan_metrics(plans, static_cast<double>(c1.hits - c0.hits),
                   static_cast<double>(c1.misses - c0.misses),
                   static_cast<double>(c1.compile_ns - c0.compile_ns) / 1e9, res);
  double dsum = 0;
  for (double d : depth) dsum += d;
  res.put("api.queue_depth_mean", depth.empty() ? 0 : dsum / static_cast<double>(depth.size()), "jobs");
  std::vector<double> jobs;
  for (const auto& sh : s1.shards) jobs.push_back(static_cast<double>(sh.submitted));
  res.put("api.shard_spread", shard_spread(jobs), "ratio");
  put_net_server(net, res);
  res.put("obs.scrape_ms_p50", summarize(lad.scrape_ms).p50, "ms");
  res.put("bench.gen_lag_p99_us", summarize(lag).p99, "us");
  res.put("bench.trace_overhead_frac",
          all.bytes_untraced ? 1.0 - static_cast<double>(all.bytes_traced) /
                                         static_cast<double>(all.bytes_untraced)
                             : 0,
          "ratio");
  server.stop();
  finish_trace(tracer, opt, res);
  return res;
}

// ---- bulk_encode / degraded_read ----------------------------------------------------

Result bulk_encode(const Options& opt) {
  constexpr size_t kFrag = 1u << 20;
  LoopConfig cfg;
  cfg.read_share = 0.2;
  cfg.ring = true;
  cfg.spec_per_thread = true;
  return run_inproc(opt, {"rs(10,4)", "lrc(6,2,2)"}, kFrag, cfg,
                    [&](std::vector<std::unique_ptr<InProcSpec>>& specs, Rng& rng) {
    // Ring of stripes whose data alone exceeds the LLC by a quarter, so
    // every request streams from DRAM (capped to bound memory use).
    const size_t llc = std::max<size_t>(llc_bytes(), 32u << 20);
    const size_t target = std::min<size_t>(llc + llc / 4, 512u << 20);
    size_t per_round = 0;
    std::vector<std::shared_ptr<StripOracle>> oracles;
    for (auto& s : specs) {
      auto probe = xorec::make_codec(s->in.spec + "@cache=private");
      oracles.push_back(std::make_shared<StripOracle>(*probe));
      per_round += oracles.back()->k() * kFrag;
    }
    const size_t count = std::max<size_t>(2, (target + per_round - 1) / per_round);
    for (size_t i = 0; i < specs.size(); ++i) {
      auto& s = *specs[i];
      s.in = make_inputs(s.in.spec, kFrag, count, rng, oracles[i]);
      // Reads: one lost data fragment, each equally likely.
      for (uint32_t f = 0; f < s.in.k; ++f) {
        Pattern p;
        p.erased = {f};
        for (uint32_t a = 0; a < s.in.n; ++a)
          if (a != f) p.available.push_back(a);
        s.patterns.push_back(p);
        s.cum_weight.push_back(static_cast<double>(f + 1) / static_cast<double>(s.in.k));
      }
    }
  });
}

Result degraded_read(const Options& opt) {
  constexpr size_t kFrag = 4096;
  constexpr size_t kStripes = 256;
  LoopConfig cfg;
  cfg.read_share = 0.8;
  return run_inproc(opt, {"rs(10,4)", "lrc(6,2,2)", "piggyback(6,4,2)"}, kFrag, cfg,
                    [&](std::vector<std::unique_ptr<InProcSpec>>& specs, Rng& rng) {
    // The pattern universe is part of the workload, the same for every
    // --seed: which plans get compiled sets the peak memory, and universes
    // drawn per seed put peak_rss_mb anywhere in 9.2-10.5 MB. The seed
    // still picks the data and which pattern each read draws.
    Rng universe(0x5eedu);
    for (auto& sp : specs) {
      auto& s = *sp;
      s.in = make_inputs(s.in.spec, kFrag, kStripes, rng);
      // A bounded pattern universe: every single data loss, four double
      // losses and, on rs, two triples. Bounding the universe bounds the
      // first-touch compiles a run pays. Draw weights follow the
      // missing-blocks-per-stripe shares measured on the Facebook warehouse
      // cluster (Rashmi et al., HotStorage 2013): 98.08% one, 1.87% two,
      // 0.05% three or more. Specs without triples fold that share into
      // the doubles.
      constexpr double kSingle = 0.9808, kTriple = 0.0005;
      const bool rs = s.in.spec.rfind("rs(", 0) == 0;
      const double doubles = 1.0 - kSingle - (rs ? kTriple : 0.0);
      std::vector<std::pair<Pattern, double>> u;
      for (uint32_t f = 0; f < s.in.k; ++f) {
        Pattern p;
        p.erased = {f};
        for (uint32_t a = 0; a < s.in.n; ++a)
          if (a != f) p.available.push_back(a);
        u.emplace_back(p, kSingle / static_cast<double>(s.in.k));
      }
      for (int i = 0; i < 4; ++i) u.emplace_back(draw_pattern(s.in, 2, universe), doubles / 4);
      if (rs)
        for (int i = 0; i < 2; ++i) u.emplace_back(draw_pattern(s.in, 3, universe), kTriple / 2);
      double cum = 0;
      for (auto& [p, w] : u) {
        cum += w;
        s.patterns.push_back(p);
        s.cum_weight.push_back(cum);
      }
    }
  });
}

// ---- wire_mixed -------------------------------------------------------------------------

struct WireSetup {
  std::unique_ptr<ServerProcess> server;
  std::vector<int> fds;
  double setup_s = 0;
  bool ok = true;
};

/// Server start through its first answered request on every spec: one
/// all-zero 1 KiB encode each, whose parity must come back all zero.
WireSetup wire_setup(const Options& opt, const std::vector<std::string>& specs,
                     const std::vector<size_t>& ks) {
  WireSetup w;
  const uint64_t t0 = now_ns();
  w.server = std::make_unique<ServerProcess>(opt.server_bin, server_dir(opt, "server"));
  for (int c = 0; c < 2; ++c) {
    const int fd = connect_loopback(w.server->tcp_port());
    if (fd < 0) throw std::runtime_error("wire: cannot connect to net_server");
    w.fds.push_back(fd);
  }
  std::vector<uint8_t> zeros(1024, 0), body;
  for (size_t i = 0; i < specs.size(); ++i) {
    xorec::net::FrameHeader h;
    h.type = xorec::net::FrameType::EncodeRequest;
    h.request_id = 1;
    h.k = static_cast<uint32_t>(ks[i]);
    h.frag_len = 1024;
    h.present_bitmap = (uint64_t{1} << ks[i]) - 1;
    h.payload_count = static_cast<uint16_t>(ks[i]);
    std::vector<const uint8_t*> data(ks[i], zeros.data());
    const auto frame = xorec::net::build_frame(h, specs[i], data.data());
    uint8_t hdr[xorec::net::wire::kFrameHeaderSize];
    xorec::net::FrameHeader rh;
    xorec::net::FrameView view;
    bool ok = write_all(w.fds[0], frame.data(), frame.size(), nullptr, 0) &&
              read_exact(w.fds[0], hdr, sizeof(hdr), 60000) &&
              xorec::net::decode_frame_header(hdr, sizeof(hdr), rh) == xorec::net::FrameError::Ok;
    if (ok) {
      body.resize(rh.body_size());
      ok = read_exact(w.fds[0], body.data(), body.size(), 60000) &&
           xorec::net::bind_frame_body(rh, body.data(), body.size(), view) ==
               xorec::net::FrameError::Ok &&
           rh.type == xorec::net::FrameType::Response;
      for (const auto& p : view.payloads)
        ok = ok && std::all_of(p.begin(), p.end(), [](uint8_t b) { return b == 0; });
    }
    if (!ok) throw std::runtime_error("wire: set-up request for " + specs[i] + " failed");
  }
  w.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return w;
}

// Offered load of the fixed-rate phase, and the ladder's multiples of it.
// The rate sits near half of what the seed server sustains on this mix, so
// queues form in bursts but drain.
constexpr double kWireRate = 200;
constexpr double kLadder[] = {1.5, 2.0, 3.0, 4.0};

std::vector<WireReq> wire_schedule(Rng& rng, double rate, double seconds, uint64_t start,
                                   const std::vector<WireClass>& classes) {
  // The mix in exact proportion (specs 1:1, 20% 64 KiB, 30% reconstruct),
  // shuffled by the seed, so runs differ in order and timing, not in work.
  std::vector<uint64_t> due = poisson_arrivals(rng, rate, seconds);
  std::vector<WireReq> reqs(due.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    WireReq& r = reqs[i];
    const size_t spec = i % 2;
    const bool large = (i / 2) % 5 == 0;
    r.cls = static_cast<uint32_t>(spec * 2 + (large ? 1 : 0));
    r.read = (i / 10) % 10 < 3;
  }
  for (size_t i = reqs.size(); i > 1; --i) std::swap(reqs[i - 1], reqs[rng.below(i)]);
  for (size_t i = 0; i < reqs.size(); ++i) {
    WireReq& r = reqs[i];
    r.stripe = static_cast<uint32_t>(rng.below(classes[r.cls].in.stripes.size()));
    r.conn = static_cast<uint8_t>(rng.below(2));
    r.due_ns = start + due[i];
  }
  return reqs;
}

Result wire_mixed(const Options& opt) {
  Result res;
  note_host(res);
  const std::vector<std::string> spec_names = {"rs(10,4)", "lrc(6,2,2)"};
  Rng rng(opt.seed);
  std::vector<size_t> ks;
  std::vector<std::shared_ptr<StripOracle>> oracles;
  for (const auto& s : spec_names) {
    auto probe = xorec::make_codec(s + "@cache=private");
    oracles.push_back(std::make_shared<StripOracle>(*probe));
    ks.push_back(oracles.back()->k());
  }
  if (opt.setup_only) {
    WireSetup w = wire_setup(opt, spec_names, ks);
    for (int fd : w.fds) ::close(fd);
    if (w.server->stop() < 0) throw std::runtime_error("wire: net_server did not exit cleanly");
    res.put("setup_s", w.setup_s, "s");
    return res;
  }

  // Inputs: per spec, 64 stripes at 1 KiB and 16 at 64 KiB, each with a
  // prebuilt encode frame and a reconstruct frame (frame CRCs are computed
  // here, once, like a client that checksums at write time).
  std::vector<WireClass> classes(4);
  for (size_t s = 0; s < 2; ++s)
    for (size_t large = 0; large < 2; ++large) {
      WireClass& c = classes[s * 2 + large];
      c.in = make_inputs(spec_names[s], large ? 65536 : 1024, large ? 16 : 64, rng, oracles[s]);
      build_wire_frames(c, rng);
    }

  WireSetup w = wire_setup(opt, spec_names, ks);
  const uint16_t mon = w.server->monitor_port();
  Tracer tracer(opt.trace);
  SpanBuffer& send_sb = tracer.buffer();
  SpanBuffer& recv_sb = tracer.buffer();
  WireGen gen(classes, w.fds, send_sb, recv_sb);

  // Scrape /metrics once a second for the whole measurement.
  std::atomic<bool> scraping{true};
  std::vector<Scrape> scrapes;
  std::mutex scrape_mu;
  std::thread scraper([&] {
    uint64_t next = now_ns();
    while (scraping.load()) {
      if (now_ns() >= next) {
        Scrape s = scrape_metrics(mon);
        std::lock_guard<std::mutex> lk(scrape_mu);
        scrapes.push_back(std::move(s));
        next += 1000000000ull;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  const double main_s = opt.seconds * (opt.trace ? 0.3 : 0.7);
  const double rung_s = opt.seconds * (opt.trace ? 0.1 : 0.3) / std::size(kLadder);
  const Scrape before = scrape_metrics(mon);
  uint64_t start = now_ns() + 1000000;
  std::vector<WireReq> main_reqs = wire_schedule(rng, kWireRate, main_s, start, classes);
  // Traced runs record spans in alternate slices of the fixed-rate phase
  // (slice 0 warms up), so traced and untraced requests share the phase.
  const double slice_ns = main_s * 1e9 / kSlices;
  auto slice_of = [&](const WireReq& r) {
    return static_cast<size_t>(static_cast<double>(r.due_ns - start) / slice_ns);
  };
  for (auto& r : main_reqs) r.traced = opt.trace && slice_of(r) % 2 == 1;
  gen.run(main_reqs, 0);
  const Scrape after = scrape_metrics(mon);

  E2E e;
  std::vector<double> sojourn, lag;
  uint64_t bytes = 0, last = start;
  Windows enc_w, rd_w;
  const double window_ns = main_s * 1e9 / kWindows;
  for (const auto& r : main_reqs) {
    const size_t win = std::min(kWindows - 1, static_cast<size_t>(static_cast<double>(r.due_ns - start) / window_ns));
    const double us = r.ok ? sojourn_us(r.due_ns, r.done_ns) : -1;
    sojourn.push_back(us);
    ++e.slo_total;
    e.slo_ok += us >= 0 && us <= latency_limit_us("wire_mixed");
    if (r.send_ns) lag.push_back(static_cast<double>(r.send_ns - std::min(r.send_ns, r.due_ns)) / 1e3);
    ++res.attempted;
    if (!r.ok) {
      ++res.failed;
      if (r.done_ns) res.correct = false;  // answered, but wrong
      continue;
    }
    (r.read ? rd_w : enc_w).add(win, 0, us);
    bytes += classes[r.cls].in.data_bytes();
    last = std::max(last, r.done_ns);
  }
  // Below saturation an open loop completes what it is offered: goodput is
  // the offered work over the phase, and drops only with failures or a
  // backlog that outlasts the phase.
  e.goodput_gbps = static_cast<double>(bytes) / (static_cast<double>(last - start) / 1e9) / 1e9;
  e.enc = enc_w.summary();
  e.read = rd_w.summary();
  note_windows("encode_p50_us", enc_w.p50s(), res);
  const double limit = latency_limit_us("wire_mixed");

  // Rate ladder: the highest offered rate whose p99 meets the limit with no
  // growing backlog. The fixed-rate phase is the ladder's first rung.
  double max_rate = 0;
  if (summarize(sojourn).p99 <= limit && !backlog_growing(sojourn, limit / 4))
    max_rate = kWireRate;
  uint64_t id_base = main_reqs.size();
  char line[200];
  for (double mult : kLadder) {
    if (max_rate == 0) break;  // the fixed rate already fails
    start = now_ns() + 1000000;
    std::vector<WireReq> reqs = wire_schedule(rng, kWireRate * mult, rung_s, start, classes);
    gen.run(reqs, id_base);
    id_base += reqs.size();
    std::vector<double> sj;
    for (const auto& r : reqs) {
      sj.push_back(r.ok ? sojourn_us(r.due_ns, r.done_ns) : -1);
      ++res.attempted;
      if (!r.ok) {
        ++res.failed;
        if (r.done_ns) res.correct = false;
      }
    }
    const Summary s = summarize(sj);
    const bool growing = backlog_growing(sj, limit / 4);
    const bool pass = s.p99 <= limit && !growing && slo_attainment(sj, limit) >= 0.99;
    std::snprintf(line, sizeof(line),
                  "rate ladder %6.0f rps: p99 %.0f us (n=%zu)  backlog %s  -> %s", kWireRate * mult,
                  s.p99, s.n, growing ? "growing" : "steady", pass ? "pass" : "fail");
    res.note(line);
    if (!pass) break;
    max_rate = kWireRate * mult;
  }
  std::snprintf(line, sizeof(line), "max_rate_rps %.0f 1/s (limit p99 <= %.0f us)", max_rate, limit);
  res.note(line);

  scraping = false;
  scraper.join();
  std::vector<double> scrape_ms, depth_means;
  for (const auto& s : scrapes)
    if (s.ok) {
      scrape_ms.push_back(s.ms);
      depth_means.push_back(s.get("xorec_shard_queue_depth"));
    }
  for (const auto& [key, v] : after.series)
    if (key.rfind("xorec_pool_info{", 0) == 0) res.note("config: " + key);
  std::snprintf(line, sizeof(line), "obs: %zu scrapes, p50 %.3f ms", scrape_ms.size(),
                summarize(scrape_ms).p50);
  res.note(line);

  if (!opt.trace) {
    for (int fd : w.fds) ::close(fd);
    e.peak_rss_mb = w.server->stop();
    if (e.peak_rss_mb < 0) throw std::runtime_error("wire: net_server did not exit cleanly");
    put_e2e(opt.workload, e, w.setup_s, res);
    res.note(std::string("wire_mixed offered rate ") + std::to_string(static_cast<int>(kWireRate)) +
             " 1/s");
    return res;
  }

  // Traced run: the in-process ladder rungs need their own service.
  InProcRun ip = inproc_setup(spec_names);
  std::vector<LadderShape> shapes;
  for (size_t i : {0u, 1u, 2u, 3u}) {
    const size_t spec = i / 2;
    for (bool read : {false, true})
      if (i == 0 || i == 1 || !read)
        shapes.push_back({&classes[i].in, &ip.handles[spec], read,
                          classes[i].in.spec + "@" + std::to_string(classes[i].in.frag_len / 1024) +
                              "KiB " + (read ? "read" : "encode")});
  }
  PlanTimer plans(opt.seed);
  SpanBuffer& lsb = tracer.buffer();
  const LadderOutput lad =
      run_ladder(shapes, w.server->tcp_port(), mon, opt.seconds * 0.6, lsb, plans, res);
  report_ladder(lad, res);

  // slp: the encode programs plus every distinct repair plan the mix sent.
  xorec::PlanStats slp;
  for (auto& h : ip.handles) add_stats(slp, encode_stats(h.codec()));
  for (size_t c = 0; c < classes.size(); ++c)
    for (const auto& p : classes[c].rec_pattern)
      if (plans.first_seen(classes[c].in.spec, p.erased))
        plans.keep_plan(classes[c].in.spec, p.erased,
                        ip.handles[c / 2].plan_reconstruct(p.available, p.erased));
  add_stats(slp, plans.plan_stats());
  put_slp(slp, res);
  // ec: the server's plan cache over the fixed-rate phase.
  put_plan_metrics(plans, after.get("xorec_plan_cache_hits_total") - before.get("xorec_plan_cache_hits_total"),
                   after.get("xorec_plan_cache_misses_total") - before.get("xorec_plan_cache_misses_total"),
                   after.get("xorec_plan_cache_compile_seconds_total") -
                       before.get("xorec_plan_cache_compile_seconds_total"),
                   res);
  double dsum = 0;
  for (double d : depth_means) dsum += d;
  res.put("api.queue_depth_mean", depth_means.empty() ? 0 : dsum / static_cast<double>(depth_means.size()), "jobs");
  const Scrape fin = scrape_metrics(mon);
  std::vector<double> jobs;
  for (const auto& [key, v] : fin.series)
    if (key.rfind("xorec_shard_jobs_total{", 0) == 0) jobs.push_back(v);
  res.put("api.shard_spread", shard_spread(jobs), "ratio");
  put_net_server(fin, res);
  std::vector<double> all_scrapes = scrape_ms;
  all_scrapes.insert(all_scrapes.end(), lad.scrape_ms.begin(), lad.scrape_ms.end());
  res.put("obs.scrape_ms_p50", summarize(all_scrapes).p50, "ms");
  res.put("bench.gen_lag_p99_us", summarize(lag).p99, "us");
  // Tracing overhead in an open loop shows as latency: median sojourn of the
  // traced slices over that of the untraced ones.
  std::vector<double> traced_us, untraced_us;
  for (const auto& r : main_reqs)
    if (r.ok && slice_of(r) > 0)
      (r.traced ? traced_us : untraced_us).push_back(sojourn_us(r.due_ns, r.done_ns));
  const double base = median(untraced_us);
  res.put("bench.trace_overhead_frac", base > 0 ? median(traced_us) / base - 1.0 : 0, "ratio");
  for (int fd : w.fds) ::close(fd);
  w.server->stop();
  finish_trace(tracer, opt, res);
  return res;
}

}  // namespace

Result run_workload(const Options& opt) {
  if (opt.workload == "bulk_encode") return bulk_encode(opt);
  if (opt.workload == "degraded_read") return degraded_read(opt);
  if (opt.workload == "wire_mixed") return wire_mixed(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
