// The benchmark's output oracle, independent of the code under test.
//
// Every codec the workloads use is an XOR code over strips: each parity
// strip is the XOR of a fixed set of data strips. The oracle learns that
// linear map ONCE at set-up by encoding unit probes (one data strip set to
// byte 1, all else 0), then computes reference parity with plain strip XOR
// loops. No slp/, runtime/ or kernel/ code runs in the reference path, so a
// wrong compiled program or kernel cannot agree with it by construction.
//
// Rebuilt fragments are compared with the original stripe bytes directly;
// recoverable() is an F2 rank test over the learned map, used to draw only
// erasure patterns the code can repair (no workload operation may fail).
#pragma once

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/codec.hpp"

namespace perfbench {

class StripOracle {
 public:
  /// Probes `codec` (systematic, strip-XOR). Throws std::runtime_error when
  /// the probe shows a non-XOR byte map.
  explicit StripOracle(const xorec::Codec& codec);

  size_t k() const { return k_; }
  size_t n() const { return n_; }
  size_t strips() const { return w_; }

  /// Reference parity: parity[p] = XOR of the data strips the map selects.
  void encode(const uint8_t* const* data, uint8_t* const* parity, size_t frag_len) const;

  /// True when every fragment in `erased` is determined by `available`.
  bool recoverable(const std::vector<uint32_t>& available,
                   const std::vector<uint32_t>& erased) const;

  /// Byte comparison helper: true when equal.
  static bool same(const uint8_t* a, const uint8_t* b, size_t len);

 private:
  static constexpr size_t kMaxSymbols = 256;  // k * strips
  using Row = std::bitset<kMaxSymbols>;
  size_t k_, n_, w_;
  std::vector<Row> rows_;  // rows_[f * w_ + s]: data symbols output symbol s of f XORs
};

}  // namespace perfbench
