#include "loadgen.hpp"

#include <stdexcept>
#include <thread>

#include "wire.hpp"

namespace perfbench {

namespace {

WireFrame make_frame(xorec::net::FrameHeader h, const std::string& spec,
                     const std::vector<const uint8_t*>& payloads) {
  WireFrame f;
  f.image = xorec::net::build_frame(h, spec, payloads.data());
  if (xorec::net::decode_frame_header(f.image.data(), f.image.size(), f.header) !=
      xorec::net::FrameError::Ok)
    throw std::runtime_error("wire: built frame does not decode");
  return f;
}

}  // namespace

void build_wire_frames(WireClass& c, Rng& rng) {
  using xorec::net::FrameHeader;
  using xorec::net::FrameType;
  const SpecInputs& in = c.in;
  for (size_t s = 0; s < in.stripes.size(); ++s) {
    FrameHeader h;
    h.type = FrameType::EncodeRequest;
    h.k = static_cast<uint32_t>(in.k);
    h.frag_len = static_cast<uint32_t>(in.frag_len);
    h.present_bitmap = (uint64_t{1} << in.k) - 1;
    h.payload_count = static_cast<uint16_t>(in.k);
    c.enc.push_back(make_frame(h, in.spec, in.data_ptrs(s)));

    // One lost data fragment per reconstruct request, seeded.
    Pattern p;
    const auto lost = static_cast<uint32_t>(rng.below(in.k));
    p.erased = {lost};
    FrameHeader r;
    r.type = FrameType::ReconstructRequest;
    r.frag_len = static_cast<uint32_t>(in.frag_len);
    r.erased_bitmap = uint64_t{1} << lost;
    for (uint32_t a = 0; a < in.n; ++a)
      if (a != lost) {
        p.available.push_back(a);
        r.present_bitmap |= uint64_t{1} << a;
      }
    r.payload_count = static_cast<uint16_t>(p.available.size());
    c.rec.push_back(make_frame(r, in.spec, in.ptrs(s, p.available)));
    c.rec_pattern.push_back(p);
  }
}

void WireGen::run(std::vector<WireReq>& reqs, uint64_t id_base) {
  std::vector<std::thread> th;
  for (size_t c = 0; c < fds_.size(); ++c) {
    std::vector<size_t> mine;
    for (size_t i = 0; i < reqs.size(); ++i)
      if (reqs[i].conn == c) mine.push_back(i);
    th.emplace_back([this, &reqs, mine, c, id_base] { send_loop(reqs, mine, c, id_base); });
    th.emplace_back([this, &reqs, mine, c, id_base] { recv_loop(reqs, mine.size(), c, id_base); });
  }
  for (auto& t : th) t.join();
}

void WireGen::send_loop(std::vector<WireReq>& reqs, const std::vector<size_t>& mine, size_t c,
                      uint64_t id_base) {
  for (size_t i : mine) {
    WireReq& r = reqs[i];
    // Sleep to just short of the due time, then spin: a timer wake-up can
    // overshoot by tens of microseconds, which would read as latency.
    constexpr uint64_t kSpinNs = 200000;
    const uint64_t now = now_ns();
    if (r.due_ns > now + kSpinNs)
      std::this_thread::sleep_for(std::chrono::nanoseconds(r.due_ns - now - kSpinNs));
    while (now_ns() < r.due_ns) {
    }
    const WireClass& cls = classes_[r.cls];
    const WireFrame& f = r.read ? cls.rec[r.stripe] : cls.enc[r.stripe];
    xorec::net::FrameHeader h = f.header;
    h.request_id = id_base + i + 1;
    uint8_t hdr[xorec::net::wire::kFrameHeaderSize];
    r.send_ns = now_ns();
    xorec::net::encode_frame_header(h, hdr);
    const bool sent = write_all(fds_[c], hdr, sizeof(hdr),
                                f.image.data() + sizeof(hdr), f.image.size() - sizeof(hdr));
    if (r.traced) {
      std::lock_guard<std::mutex> lk(sb_mu_);
      send_sb_.record("net.send", r.send_ns, now_ns(), h.request_id);
    }
    if (!sent) return;  // connection lost: the rest stay unanswered
  }
}

void WireGen::recv_loop(std::vector<WireReq>& reqs, size_t expected, size_t c,
                      uint64_t id_base) {
  std::vector<uint8_t> body;
  uint8_t hdr[xorec::net::wire::kFrameHeaderSize];
  for (size_t got = 0; got < expected; ++got) {
    if (!read_exact(fds_[c], hdr, sizeof(hdr), 30000)) return;
    xorec::net::FrameHeader h;
    if (xorec::net::decode_frame_header(hdr, sizeof(hdr), h) != xorec::net::FrameError::Ok)
      return;
    body.resize(h.body_size());
    if (!read_exact(fds_[c], body.data(), body.size(), 30000)) return;
    const uint64_t d0 = now_ns();
    xorec::net::FrameView view;
    const bool parsed =
        xorec::net::bind_frame_body(h, body.data(), body.size(), view) == xorec::net::FrameError::Ok;
    const uint64_t done = now_ns();
    if (h.request_id <= id_base || h.request_id > id_base + reqs.size()) return;
    WireReq& r = reqs[h.request_id - id_base - 1];
    r.done_ns = done;
    r.ok = parsed && h.type == xorec::net::FrameType::Response && check(r, view);
    if (!r.traced) continue;
    std::lock_guard<std::mutex> lk(sb_mu_);
    recv_sb_.record("net.decode", d0, done, h.request_id);
    recv_sb_.record("wire.request", r.due_ns, done, h.request_id);
  }
}

bool WireGen::check(const WireReq& r, const xorec::net::FrameView& v) const {
  const SpecInputs& in = classes_[r.cls].in;
  if (r.read) {
    const Pattern& p = classes_[r.cls].rec_pattern[r.stripe];
    if (v.payloads.size() != p.erased.size()) return false;
    for (size_t i = 0; i < p.erased.size(); ++i)
      if (v.payloads[i].size() != in.frag_len ||
          !StripOracle::same(v.payloads[i].data(), in.frag(r.stripe, p.erased[i]), in.frag_len))
        return false;
    return true;
  }
  if (v.payloads.size() != in.m) return false;
  for (size_t i = 0; i < in.m; ++i)
    if (v.payloads[i].size() != in.frag_len ||
        !StripOracle::same(v.payloads[i].data(), in.frag(r.stripe, in.k + i), in.frag_len))
      return false;
  return true;
}

}  // namespace perfbench
