// Fixed-width simulation lane: W consecutive 64-bit pattern words.
//
// The classic parallel-pattern fault simulator packs 64 patterns into one
// machine word.  A Lane<W> widens that to 64*W patterns per pass: all
// bitwise gate evaluations become short fixed-trip loops over W words,
// which the compiler unrolls and vectorizes (SSE2 by default, AVX2 in the
// runtime-dispatched kernel TU — see block_engine.hpp).  W is a compile
// time constant so every loop bound is known and no lane ever touches the
// heap.
#pragma once

#include <bit>
#include <cstdint>

// Lane methods are force-inlined: the scalar and AVX2 kernel translation
// units are compiled with different ISA flags, and an out-of-line copy of
// an inline function is a COMDAT the linker may merge across TUs —
// potentially keeping the AVX2-compiled body and running it on a CPU
// that never advertised AVX2.  Inlined bodies have no symbol to merge.
#if defined(__GNUC__) || defined(__clang__)
#define SOCET_LANE_INLINE __attribute__((always_inline)) inline
#else
#define SOCET_LANE_INLINE inline
#endif

namespace socet::faultsim {

template <unsigned W>
struct Lane {
  static_assert(W >= 1, "a lane needs at least one word");
  std::uint64_t w[W];

  static constexpr unsigned kWords = W;
  static constexpr unsigned kPatterns = 64 * W;

  static constexpr Lane zero() {
    Lane l{};
    return l;
  }

  static constexpr Lane ones() {
    Lane l{};
    for (unsigned i = 0; i < W; ++i) l.w[i] = ~0ULL;
    return l;
  }

  /// Broadcast a single stuck value across every pattern slot.
  static constexpr Lane fill(bool bit) { return bit ? ones() : zero(); }

  /// True when any masked bit is set — the "this fault is active / this
  /// observation point differs" test.
  [[nodiscard]] SOCET_LANE_INLINE bool any(const Lane& mask) const {
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < W; ++i) acc |= w[i] & mask.w[i];
    return acc != 0;
  }

  [[nodiscard]] SOCET_LANE_INLINE bool any() const {
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < W; ++i) acc |= w[i];
    return acc != 0;
  }

  /// Lowest set pattern slot; the lane must not be zero.
  [[nodiscard]] SOCET_LANE_INLINE unsigned lowest_bit() const {
    unsigned i = 0;
    while (w[i] == 0) ++i;
    return 64 * i + static_cast<unsigned>(std::countr_zero(w[i]));
  }

  /// Pattern slot `k` (bit k of the packed lane), used when single
  /// responses are read back out of a lane kernel.
  [[nodiscard]] SOCET_LANE_INLINE bool bit(unsigned k) const {
    return (w[k / 64] >> (k % 64)) & 1;
  }

  SOCET_LANE_INLINE void set_bit(unsigned k) { w[k / 64] |= 1ULL << (k % 64); }

  friend SOCET_LANE_INLINE Lane operator&(const Lane& a, const Lane& b) {
    Lane r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = a.w[i] & b.w[i];
    return r;
  }
  friend SOCET_LANE_INLINE Lane operator|(const Lane& a, const Lane& b) {
    Lane r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = a.w[i] | b.w[i];
    return r;
  }
  friend SOCET_LANE_INLINE Lane operator^(const Lane& a, const Lane& b) {
    Lane r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = a.w[i] ^ b.w[i];
    return r;
  }
  friend SOCET_LANE_INLINE Lane operator~(const Lane& a) {
    Lane r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = ~a.w[i];
    return r;
  }
  SOCET_LANE_INLINE Lane& operator&=(const Lane& b) {
    for (unsigned i = 0; i < W; ++i) w[i] &= b.w[i];
    return *this;
  }
  SOCET_LANE_INLINE Lane& operator|=(const Lane& b) {
    for (unsigned i = 0; i < W; ++i) w[i] |= b.w[i];
    return *this;
  }
  SOCET_LANE_INLINE Lane& operator^=(const Lane& b) {
    for (unsigned i = 0; i < W; ++i) w[i] ^= b.w[i];
    return *this;
  }
  friend SOCET_LANE_INLINE bool operator==(const Lane& a, const Lane& b) {
    std::uint64_t diff = 0;
    for (unsigned i = 0; i < W; ++i) diff |= a.w[i] ^ b.w[i];
    return diff == 0;
  }
  friend SOCET_LANE_INLINE bool operator!=(const Lane& a, const Lane& b) { return !(a == b); }
};

}  // namespace socet::faultsim
