// Tests of the benchmark's own logic: percentile selection with sample
// counts, due-time accounting under an injected server stall, the oracle
// against a flipped byte, backlog detection behind max_rate_rps, and span
// self-time derivation. Plain checks, no test framework; exit code 1 on any
// failure.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "wire.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted input
  const Summary s = summarize(v);
  CHECK(s.n == 1000);
  CHECK(s.p50 == 500);
  CHECK(s.p99 == 990);
  CHECK(s.beyond_p99 == 10);
  CHECK(s.tail_pct == 99.0);
  CHECK(s.max == 1000);
  // The tail a sample supports: at least ten samples beyond it.
  CHECK(tail_percentile_for(10000) == 99.9);
  CHECK(tail_percentile_for(9999) == 99.0);
  CHECK(tail_percentile_for(999) == 95.0);
  CHECK(tail_percentile_for(100) == 90.0);
  CHECK(tail_percentile_for(99) == 50.0);
  CHECK(summarize({}).n == 0);
  CHECK(summarize({7}).p99 == 7);
  CHECK(median({1, 2, 3, 4}) == 2.5);
}

void test_backlog_and_slo() {
  std::vector<double> steady, growing, tiny_growth;
  for (int i = 0; i < 400; ++i) {
    steady.push_back(100 + (i * 37) % 50);
    growing.push_back(100 + 250.0 * i);  // queue building at a constant rate
    tiny_growth.push_back(1 + 0.01 * i);  // trend, but far below the floor
  }
  CHECK(!backlog_growing(steady, 1000));
  CHECK(backlog_growing(growing, 1000));
  CHECK(!backlog_growing(tiny_growth, 1000));
  std::vector<double> lost = steady;
  lost[200] = -1;  // never answered
  CHECK(backlog_growing(lost, 1000));
  // A burst in the middle that drains is not a growing backlog.
  std::vector<double> burst = steady;
  for (int i = 180; i < 220; ++i) burst[i] = 50000;
  CHECK(!backlog_growing(burst, 1000));

  CHECK(slo_attainment({10, 20, 30, -1}, 25) == 0.5);  // a failure is a miss
  CHECK(slo_attainment({}, 25) == 0);
}

void test_oracle() {
  for (const char* spec : {"rs(10,4)", "lrc(6,2,2)", "piggyback(6,4,2)"}) {
    Rng rng(42);
    SpecInputs in = make_inputs(spec, 256, 3, rng);
    auto codec = xorec::make_codec(std::string(spec) + "@cache=private");
    std::vector<Buf> parity;
    std::vector<uint8_t*> pp;
    for (size_t i = 0; i < in.m; ++i) {
      parity.emplace_back(in.frag_len);
      pp.push_back(parity.back().data());
    }
    for (size_t s = 0; s < in.stripes.size(); ++s) {
      codec->encode(in.data_ptrs(s).data(), pp.data(), in.frag_len);
      for (size_t i = 0; i < in.m; ++i)
        CHECK(StripOracle::same(pp[i], in.frag(s, in.k + i), in.frag_len));
    }
    // One flipped byte anywhere in the output is caught.
    pp[in.m - 1][in.frag_len / 2] ^= 0x10;
    CHECK(!StripOracle::same(pp[in.m - 1], in.frag(2, in.n - 1), in.frag_len));

    // Recoverability: every single loss; never more losses than parities.
    for (uint32_t f = 0; f < in.n; ++f) {
      std::vector<uint32_t> avail;
      for (uint32_t a = 0; a < in.n; ++a)
        if (a != f) avail.push_back(a);
      CHECK(in.oracle->recoverable(avail, {f}));
    }
    std::vector<uint32_t> erased, avail;
    for (uint32_t f = 0; f < in.n; ++f) (f <= in.m ? erased : avail).push_back(f);
    CHECK(!in.oracle->recoverable(avail, erased));
    const Pattern p = draw_pattern(in, 2, rng);
    CHECK(p.erased.size() == 2 && p.erased[0] < in.k);
  }
}

void test_self_times() {
  Tracer t(true);
  SpanBuffer& b = t.buffer();
  b.record("req", 0, 100000, 1);  // completed span: not a parent of the next
  {
    const int64_t root = b.open("root", 2);
    b.record("child", 0, 0, 2);  // zero-length child
    b.close(root);
  }
  const auto spans = t.merged();
  CHECK(spans.size() == 3);
  CHECK(spans[2].parent == 1);
  // Synthetic tree: parent [0,100] with overlapping children [10,30] and
  // [20,50] plus one sticking out [90,120]: covered 40 + 10 -> self 50.
  std::vector<Span> s(4);
  s[0] = {"p", 0, 100000, 0, -1, 1};
  s[1] = {"c", 10000, 30000, 1, 0, 1};
  s[2] = {"c", 20000, 50000, 2, 0, 1};
  s[3] = {"c", 90000, 120000, 3, 0, 1};
  const auto st = Tracer::self_times(s);
  CHECK(st.at("p").count == 1);
  CHECK(std::abs(st.at("p").self_us - 50) < 1e-9);
  CHECK(std::abs(st.at("c").self_us - 80) < 1e-9);
}

// A fake server on loopback that answers encode frames correctly (parity
// from the oracle) but stalls `stall_ms` before answering request
// `stall_at`. The generator must charge the stall to every request due
// during it, not only to the one the server held.
void test_due_time_under_stall() {
  Rng rng(7);
  std::vector<WireClass> classes(1);
  classes[0].in = make_inputs("rs(10,4)", 1024, 4, rng);
  build_wire_frames(classes[0], rng);
  const SpecInputs& in = classes[0].in;

  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  CHECK(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0);
  CHECK(::listen(lfd, 1) == 0);
  socklen_t sl = sizeof(sa);
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&sa), &sl);

  constexpr size_t kReqs = 40, kStallAt = 10;
  constexpr int kStallMs = 80;
  std::thread server([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    std::vector<uint8_t> body;
    for (size_t n = 0; n < kReqs; ++n) {
      uint8_t hdr[xorec::net::wire::kFrameHeaderSize];
      xorec::net::FrameHeader h;
      if (!read_exact(fd, hdr, sizeof(hdr), 5000) ||
          xorec::net::decode_frame_header(hdr, sizeof(hdr), h) != xorec::net::FrameError::Ok)
        break;
      body.resize(h.body_size());
      xorec::net::FrameView v;
      if (!read_exact(fd, body.data(), body.size(), 5000) ||
          xorec::net::bind_frame_body(h, body.data(), body.size(), v) != xorec::net::FrameError::Ok)
        break;
      if (n == kStallAt) std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
      std::vector<const uint8_t*> data;
      for (const auto& p : v.payloads) data.push_back(p.data());
      std::vector<Buf> par;
      std::vector<uint8_t*> pp;
      for (size_t i = 0; i < in.m; ++i) {
        par.emplace_back(h.frag_len);
        pp.push_back(par.back().data());
      }
      in.oracle->encode(data.data(), pp.data(), h.frag_len);
      xorec::net::FrameHeader r;
      r.type = xorec::net::FrameType::Response;
      r.request_id = h.request_id;
      r.k = static_cast<uint32_t>(in.k);
      r.m = static_cast<uint32_t>(in.m);
      r.frag_len = h.frag_len;
      for (size_t i = in.k; i < in.n; ++i) r.present_bitmap |= uint64_t{1} << i;
      r.payload_count = static_cast<uint16_t>(in.m);
      std::vector<const uint8_t*> cp(pp.begin(), pp.end());
      const auto frame = xorec::net::build_frame(r, "", cp.data());
      if (!write_all(fd, frame.data(), frame.size(), nullptr, 0)) break;
    }
    ::close(fd);
  });

  std::vector<int> fds = {connect_loopback(ntohs(sa.sin_port))};
  CHECK(fds[0] >= 0);
  Tracer tracer(false);
  WireGen gen(classes, fds, tracer.buffer(), tracer.buffer());
  std::vector<WireReq> reqs(kReqs);
  const uint64_t start = now_ns() + 2000000;
  for (size_t i = 0; i < kReqs; ++i) {
    reqs[i].stripe = static_cast<uint32_t>(i % in.stripes.size());
    reqs[i].due_ns = start + i * 1000000;  // one every millisecond
  }
  gen.run(reqs, 0);
  server.join();
  ::close(fds[0]);
  ::close(lfd);

  for (const auto& r : reqs) CHECK(r.ok);
  // Request kStallAt + j was due j ms into the stall and cannot finish
  // before the stall ends, so its latency from DUE time is at least
  // (kStallMs - j) ms, even if it was sent on time.
  const uint64_t stall_end_min = reqs[kStallAt].due_ns + kStallMs * 1000000ull;
  for (size_t j = 1; j < 20; ++j) {
    const WireReq& r = reqs[kStallAt + j];
    CHECK(r.done_ns >= stall_end_min - 1000000);  // allow for when the stall began
    const double want_us = (static_cast<double>(kStallMs) - static_cast<double>(j)) * 1000.0 - 1000.0;
    CHECK(sojourn_us(r.due_ns, r.done_ns) >= want_us);
  }
  // Requests before the stall were not charged for it.
  CHECK(sojourn_us(reqs[0].due_ns, reqs[0].done_ns) < kStallMs * 1000.0 / 2);
  CHECK(sojourn_us(1, 0) < 0);  // never completed
}

}  // namespace

int main() {
  std::signal(SIGPIPE, SIG_IGN);
  test_percentiles();
  test_backlog_and_slo();
  test_oracle();
  test_self_times();
  test_due_time_under_stall();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
