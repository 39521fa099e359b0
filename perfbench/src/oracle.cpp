#include "oracle.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace perfbench {

StripOracle::StripOracle(const xorec::Codec& codec)
    : k_(codec.data_fragments()), n_(codec.total_fragments()), w_(codec.fragment_multiple()) {
  if (k_ * w_ > kMaxSymbols)
    throw std::runtime_error("oracle: " + codec.name() + " has too many data strips");
  rows_.assign(n_ * w_, Row());
  for (size_t s = 0; s < k_ * w_; ++s) rows_[s].set(s);  // systematic
  const size_t m = n_ - k_;
  std::vector<std::vector<uint8_t>> frags(n_, std::vector<uint8_t>(w_, 0));
  std::vector<const uint8_t*> data;
  std::vector<uint8_t*> parity;
  for (size_t f = 0; f < k_; ++f) data.push_back(frags[f].data());
  for (size_t f = k_; f < n_; ++f) parity.push_back(frags[f].data());
  for (size_t in = 0; in < k_ * w_; ++in) {
    for (auto& f : frags) std::memset(f.data(), 0, w_);
    frags[in / w_][in % w_] = 1;
    codec.encode(data.data(), parity.data(), w_);  // one byte per strip
    for (size_t p = 0; p < m; ++p)
      for (size_t t = 0; t < w_; ++t) {
        const uint8_t v = frags[k_ + p][t];
        if (v > 1) throw std::runtime_error("oracle: " + codec.name() + " is not a strip-XOR code");
        if (v) rows_[(k_ + p) * w_ + t].set(in);
      }
  }
}

void StripOracle::encode(const uint8_t* const* data, uint8_t* const* parity,
                         size_t frag_len) const {
  const size_t strip = frag_len / w_;
  for (size_t p = k_; p < n_; ++p)
    for (size_t t = 0; t < w_; ++t) {
      uint8_t* dst = parity[p - k_] + t * strip;
      std::memset(dst, 0, strip);
      const Row& r = rows_[p * w_ + t];
      for (size_t in = 0; in < k_ * w_; ++in) {
        if (!r.test(in)) continue;
        const uint8_t* src = data[in / w_] + (in % w_) * strip;
        for (size_t b = 0; b < strip; ++b) dst[b] ^= src[b];
      }
    }
}

bool StripOracle::recoverable(const std::vector<uint32_t>& available,
                              const std::vector<uint32_t>& erased) const {
  // Reduce the available rows to an echelon basis, then check every erased
  // row reduces to zero against it (it lies in their span).
  std::vector<Row> basis;
  std::vector<size_t> pivot;
  auto reduce = [&](Row r) {
    for (size_t i = 0; i < basis.size(); ++i)
      if (r.test(pivot[i])) r ^= basis[i];
    return r;
  };
  for (uint32_t f : available)
    for (size_t t = 0; t < w_; ++t) {
      Row r = reduce(rows_[f * w_ + t]);
      if (r.none()) continue;
      size_t p = 0;
      while (!r.test(p)) ++p;
      for (auto& b : basis)
        if (b.test(p)) b ^= r;
      basis.push_back(r);
      pivot.push_back(p);
    }
  for (uint32_t f : erased)
    for (size_t t = 0; t < w_; ++t)
      if (reduce(rows_[f * w_ + t]).any()) return false;
  return true;
}

bool StripOracle::same(const uint8_t* a, const uint8_t* b, size_t len) {
  return std::memcmp(a, b, len) == 0;
}

}  // namespace perfbench
