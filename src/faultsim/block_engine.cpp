// Scalar kernel family + runtime CPU dispatch entry points.
#include "block_engine_impl.hpp"

namespace socet::faultsim {

std::unique_ptr<BlockEngineBase> make_scalar_engine(
    unsigned lane_words, const ConeCache& cones, const EngineOptions& options) {
  return detail::make_engine<detail::ScalarTag>(lane_words, cones, options);
}

bool cpu_has_avx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#if !defined(SOCET_HAVE_AVX2_TU)
// This build has no -mavx2 translation unit (non-x86 target or the
// compiler rejected the flag); callers fall back to the scalar family.
std::unique_ptr<BlockEngineBase> make_avx2_engine(unsigned /*lane_words*/,
                                                  const ConeCache& /*cones*/,
                                                  const EngineOptions&) {
  return nullptr;
}
#endif

}  // namespace socet::faultsim
