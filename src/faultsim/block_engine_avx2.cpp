// AVX2 kernel family.  This is the only translation unit compiled with
// -mavx2 (see src/faultsim/CMakeLists.txt); the Avx2Tag keeps every
// symbol here distinct from the scalar family's, and make_avx2_engine
// refuses to hand out an engine unless the CPU actually reports AVX2 —
// so no AVX2 instruction can run on a machine without it.
#include "block_engine_impl.hpp"

namespace socet::faultsim {

std::unique_ptr<BlockEngineBase> make_avx2_engine(
    unsigned lane_words, const ConeCache& cones, const EngineOptions& options) {
  if (!cpu_has_avx2()) return nullptr;
  if (lane_words < 4) return nullptr;  // one word has nothing to vectorize
  return detail::make_engine<detail::Avx2Tag>(lane_words, cones, options);
}

}  // namespace socet::faultsim
