// The wire workload's open-loop generator: prebuilt request frames per
// input class, and per connection one sender thread that sends each request
// at its due time (blocking when the server pushes back) plus one receiver
// thread that parses responses with the frame API and checks them against
// the oracle's expected bytes. Latency is taken from the due time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/frame.hpp"

namespace perfbench {

struct WireFrame {
  xorec::net::FrameHeader header;
  std::vector<uint8_t> image;  // header + body as built (request id 0)
};

/// One (spec, fragment size) input class with a prebuilt encode frame and a
/// single-data-loss reconstruct frame per stripe.
struct WireClass {
  SpecInputs in;
  std::vector<WireFrame> enc, rec;  // one per stripe
  std::vector<Pattern> rec_pattern;
};

struct WireReq {
  uint32_t cls = 0, stripe = 0;
  bool read = false;
  uint8_t conn = 0;
  uint64_t due_ns = 0, send_ns = 0, done_ns = 0;
  bool ok = false;
  bool traced = false;  // spans recorded for this request
};

/// Frame CRCs are computed here, once, like a client that checksums at
/// write time.
void build_wire_frames(WireClass& c, Rng& rng);

class WireGen {
 public:
  WireGen(std::vector<WireClass>& classes, std::vector<int>& fds, SpanBuffer& send_sb,
          SpanBuffer& recv_sb)
      : classes_(classes), fds_(fds), send_sb_(send_sb), recv_sb_(recv_sb) {}

  /// Runs `reqs` (due order; due_ns absolute; request ids id_base + index
  /// + 1) to completion. Requests unanswered when a connection fails or
  /// times out stay !ok with done_ns == 0.
  void run(std::vector<WireReq>& reqs, uint64_t id_base);

 private:
  std::vector<WireClass>& classes_;
  std::vector<int>& fds_;
  SpanBuffer& send_sb_;
  SpanBuffer& recv_sb_;
  std::mutex sb_mu_;  // the two span buffers are shared by the connections

  void send_loop(std::vector<WireReq>& reqs, const std::vector<size_t>& mine, size_t c,
                 uint64_t id_base);
  void recv_loop(std::vector<WireReq>& reqs, size_t expected, size_t c, uint64_t id_base);
  bool check(const WireReq& r, const xorec::net::FrameView& v) const;
};

}  // namespace perfbench
