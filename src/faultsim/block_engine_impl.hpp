// Template body of the lane-generic block kernels (see block_engine.hpp
// for the contract).  This header is private to the two kernel
// translation units:
//
//   block_engine.cpp       instantiates BlockEngine<W, ScalarTag>
//   block_engine_avx2.cpp  instantiates BlockEngine<W, Avx2Tag> (-mavx2)
//
// The Tag parameter exists purely to keep the two families' symbols
// distinct: if both TUs instantiated the *same* template, the linker
// would merge the COMDAT copies and either lose the vectorized kernels
// or, worse, run AVX2 instructions on a CPU that never advertised them.
#pragma once

#include <algorithm>
#include <cstddef>

#include "socet/faultsim/block_engine.hpp"
#include "socet/faultsim/lane.hpp"
#include "socet/util/error.hpp"

namespace socet::faultsim {
namespace detail {

struct ScalarTag {
  static constexpr const char* kName = "scalar";
};
struct Avx2Tag {
  static constexpr const char* kName = "avx2";
};

template <unsigned W, typename Tag>
class BlockEngine final : public BlockEngineBase {
 public:
  using L = Lane<W>;

  BlockEngine(const ConeCache& cones, const EngineOptions& options)
      : netlist_(cones.netlist()),
        cones_(cones),
        options_(options),
        current_stamp_(options.initial_stamp),
        good_(netlist_.gate_count(), L::zero()),
        scratch_(netlist_.gate_count(), L::zero()),
        stamp_(netlist_.gate_count(), 0),
        touched_(netlist_.gate_count(), 0),
        region_diff_(netlist_.gate_count(), L::zero()),
        region_block_(netlist_.gate_count(), 0) {}

  [[nodiscard]] unsigned lane_words() const override { return W; }
  [[nodiscard]] const char* kernel_name() const override { return Tag::kName; }

  void run(const std::vector<Fault>& faults, std::size_t first,
           std::size_t last, const std::vector<ScanPattern>& patterns,
           std::vector<FaultStatus>& statuses, EngineStats* stats,
           std::vector<std::size_t>* first_detect) override {
    EngineStats local;
    const auto& fanouts = netlist_.fanouts();
    for (std::size_t block = 0; block < patterns.size();
         block += L::kPatterns) {
      const unsigned count = static_cast<unsigned>(std::min<std::size_t>(
          L::kPatterns, patterns.size() - block));
      const L mask = block_mask(count);
      load_block(patterns, block, count, &local);
      ++local.blocks;

      for (std::size_t fi = first; fi < last; ++fi) {
        if (statuses[fi] != FaultStatus::kUndetected) continue;
        const Fault& f = faults[fi];
        ++current_stamp_;

        const L site = faulty_word(f.gate, f);
        L diff = (site ^ good_[f.gate.index()]) & mask;
        if (!diff.any()) continue;  // inactive
        scratch_[f.gate.index()] = site;
        stamp_[f.gate.index()] = current_stamp_;

        if (options_.replay_suppression) {
          // Inside a fanout-free region the effect has one path: walk it
          // gate by gate to the root (only the previous chain gate is
          // stamped, so each step reads good values elsewhere), and stop
          // where the difference dies.  The lanes still differing at the
          // root are detected exactly where the root's own flip is.
          ++local.region_walks;
          const gate::GateId root = cones_.region_root(f.gate);
          for (gate::GateId at = f.gate; at != root && diff.any();) {
            at = fanouts[at.index()][0];
            const L v = cone_word(netlist_.gate(at));
            diff = (v ^ good_[at.index()]) & mask;
            scratch_[at.index()] = v;
            stamp_[at.index()] = current_stamp_;
          }
          if (diff.any()) diff &= root_difference(root, mask, local);
        } else {
          // Seed-shaped replay: evaluate the whole cone, then scan every
          // observation point (the A/B baseline in bench_scaling).
          ++local.cone_replays;
          replay_whole_cone(f.gate);
          L seen = L::zero();
          for (gate::GateId obs : cones_.observe_points()) {
            seen |= lookup(obs) ^ good_[obs.index()];
            if (seen.any(mask) && first_detect == nullptr) break;
          }
          diff = seen & mask;
        }
        if (diff.any()) {
          statuses[fi] = FaultStatus::kDetected;
          ++local.faults_dropped;
          if (first_detect != nullptr) {
            (*first_detect)[fi] = block + diff.lowest_bit();
          }
        }
      }
    }
    if (stats != nullptr) *stats += local;
  }

  util::BitVector good_response(const ScanPattern& pattern) override {
    single_ = pattern;  // reuse the block loader on a one-pattern span
    load_block({&single_, 1}, &stats_sink_);
    const auto& outputs = netlist_.outputs();
    const auto& dffs = netlist_.dffs();
    util::BitVector response(outputs.size() + dffs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      response.set(i, good_[outputs[i].index()].bit(0));
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      const gate::GateId d = netlist_.gate(dffs[i]).fanin[0];
      response.set(outputs.size() + i, good_[d.index()].bit(0));
    }
    return response;
  }

  util::BitVector faulty_response(const Fault& fault,
                                  const ScanPattern& pattern) override {
    single_ = pattern;
    load_block({&single_, 1}, &stats_sink_);
    ++current_stamp_;
    scratch_[fault.gate.index()] = faulty_word(fault.gate, fault);
    stamp_[fault.gate.index()] = current_stamp_;
    replay_whole_cone(fault.gate);

    const auto& outputs = netlist_.outputs();
    const auto& dffs = netlist_.dffs();
    util::BitVector response(outputs.size() + dffs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      response.set(i, lookup(outputs[i]).bit(0));
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      const gate::GateId d = netlist_.gate(dffs[i]).fanin[0];
      response.set(outputs.size() + i, lookup(d).bit(0));
    }
    return response;
  }

 private:
  /// Mask with one bit per live pattern in a partial final block.
  static L block_mask(unsigned count) {
    if (count == L::kPatterns) return L::ones();
    L mask = L::zero();
    for (unsigned i = 0; i < W; ++i) {
      if (count >= 64 * (i + 1)) {
        mask.w[i] = ~0ULL;
      } else if (count > 64 * i) {
        mask.w[i] = (1ULL << (count - 64 * i)) - 1;
      }
    }
    return mask;
  }

  /// Lanes in which flipping `root` reaches an observation point, for
  /// the current block.  Computed on first use per block by replaying the
  /// root complemented through its fanout cone: only gates downstream of
  /// a divergence are evaluated, a gate that settles back to its good
  /// value stops the wave, and every diverging observation point adds
  /// its lanes until all live lanes are seen.
  const L& root_difference(gate::GateId root, const L& mask,
                           EngineStats& stats) {
    const std::size_t r = root.index();
    L& seen = region_diff_[r];
    if (region_block_[r] == block_epoch_) return seen;
    region_block_[r] = block_epoch_;
    if (cones_.observed(root)) {
      seen = mask;
      return seen;
    }
    seen = L::zero();
    ++stats.cone_replays;
    ++current_stamp_;
    scratch_[r] = ~good_[r];
    stamp_[r] = current_stamp_;
    cones_.for_each_in_cone(root, [&](gate::GateId id) {
      const gate::Gate& g = netlist_.gate(id);
      bool touched = false;
      for (gate::GateId fin : g.fanin) {
        if (stamp_[fin.index()] == current_stamp_) {
          touched = true;
          break;
        }
      }
      if (!touched) return true;
      const L v = cone_word(g);
      const L d = (v ^ good_[id.index()]) & mask;
      if (!d.any()) return true;
      scratch_[id.index()] = v;
      stamp_[id.index()] = current_stamp_;
      if (!cones_.observed(id)) return true;
      seen |= d;
      return seen != mask;
    });
    return seen;
  }

  /// Seed-shaped replay: every gate of `site`'s fanout cone evaluated.
  void replay_whole_cone(gate::GateId site) {
    cones_.for_each_in_cone(site, [&](gate::GateId id) {
      scratch_[id.index()] = cone_word(netlist_.gate(id));
      stamp_[id.index()] = current_stamp_;
      return true;
    });
  }

  L lookup(gate::GateId id) const {
    return stamp_[id.index()] == current_stamp_ ? scratch_[id.index()]
                                                : good_[id.index()];
  }

  /// Good-machine value of `g` from the current good_ array.
  L eval_gate(const gate::Gate& g) const {
    L v = L::zero();
    switch (g.kind) {
      case gate::GateKind::kConst0:
        return L::zero();
      case gate::GateKind::kConst1:
        return L::ones();
      case gate::GateKind::kBuf:
        return good_[g.fanin[0].index()];
      case gate::GateKind::kNot:
        return ~good_[g.fanin[0].index()];
      case gate::GateKind::kAnd:
      case gate::GateKind::kNand:
        v = L::ones();
        for (gate::GateId f : g.fanin) v &= good_[f.index()];
        return g.kind == gate::GateKind::kNand ? ~v : v;
      case gate::GateKind::kOr:
      case gate::GateKind::kNor:
        v = L::zero();
        for (gate::GateId f : g.fanin) v |= good_[f.index()];
        return g.kind == gate::GateKind::kNor ? ~v : v;
      case gate::GateKind::kXor:
        return good_[g.fanin[0].index()] ^ good_[g.fanin[1].index()];
      case gate::GateKind::kXnor:
        return ~(good_[g.fanin[0].index()] ^ good_[g.fanin[1].index()]);
      case gate::GateKind::kInput:
      case gate::GateKind::kDff:
        break;  // value sources are loaded, never evaluated
    }
    util::raise("block engine: cannot evaluate a value source");
  }

  /// Faulty-machine lane of the fault site itself (the only gate where
  /// a stem or pin value can be forced).
  L faulty_word(gate::GateId id, const Fault& f) {
    const gate::Gate& g = netlist_.gate(id);
    if (id == f.gate && f.pin < 0) return L::fill(f.stuck_at);
    auto in = [&](std::size_t pin) -> L {
      if (id == f.gate && static_cast<std::int32_t>(pin) == f.pin) {
        return L::fill(f.stuck_at);
      }
      return lookup(g.fanin[pin]);
    };
    L v = L::zero();
    switch (g.kind) {
      case gate::GateKind::kInput:
      case gate::GateKind::kDff:
        return lookup(id);  // value sources: unchanged within a pattern
      case gate::GateKind::kConst0:
        return L::zero();
      case gate::GateKind::kConst1:
        return L::ones();
      case gate::GateKind::kBuf:
        return in(0);
      case gate::GateKind::kNot:
        return ~in(0);
      case gate::GateKind::kAnd:
      case gate::GateKind::kNand:
        v = L::ones();
        for (std::size_t p = 0; p < g.fanin.size(); ++p) v &= in(p);
        return g.kind == gate::GateKind::kNand ? ~v : v;
      case gate::GateKind::kOr:
      case gate::GateKind::kNor:
        v = L::zero();
        for (std::size_t p = 0; p < g.fanin.size(); ++p) v |= in(p);
        return g.kind == gate::GateKind::kNor ? ~v : v;
      case gate::GateKind::kXor:
        return in(0) ^ in(1);
      case gate::GateKind::kXnor:
        return ~(in(0) ^ in(1));
    }
    util::raise("faulty_word: unknown gate kind");
  }

  /// Faulty-machine lane of a downstream cone gate: no fault can be
  /// forced here (only the site carries the stem/pin), so the per-fanin
  /// fault checks disappear from the replay's innermost loop.
  L cone_word(const gate::Gate& g) {
    L v = L::zero();
    switch (g.kind) {
      case gate::GateKind::kConst0:
        return L::zero();
      case gate::GateKind::kConst1:
        return L::ones();
      case gate::GateKind::kBuf:
        return lookup(g.fanin[0]);
      case gate::GateKind::kNot:
        return ~lookup(g.fanin[0]);
      case gate::GateKind::kAnd:
      case gate::GateKind::kNand:
        v = L::ones();
        for (gate::GateId f : g.fanin) v &= lookup(f);
        return g.kind == gate::GateKind::kNand ? ~v : v;
      case gate::GateKind::kOr:
      case gate::GateKind::kNor:
        v = L::zero();
        for (gate::GateId f : g.fanin) v |= lookup(f);
        return g.kind == gate::GateKind::kNor ? ~v : v;
      case gate::GateKind::kXor:
        return lookup(g.fanin[0]) ^ lookup(g.fanin[1]);
      case gate::GateKind::kXnor:
        return ~(lookup(g.fanin[0]) ^ lookup(g.fanin[1]));
      case gate::GateKind::kInput:
      case gate::GateKind::kDff:
        break;  // cones exclude sources (see ConeCache)
    }
    util::raise("cone_word: value source inside a fanout cone");
  }

  struct PatternSpan {
    const ScanPattern* data;
    std::size_t size;
  };

  void load_block(const std::vector<ScanPattern>& patterns, std::size_t first,
                  unsigned count, EngineStats* stats) {
    load_sources(&patterns[first], count);
    settle(stats);
  }

  void load_block(PatternSpan span, EngineStats* stats) {
    load_sources(span.data, static_cast<unsigned>(span.size));
    settle(stats);
  }

  /// Pack `count` patterns into the PI/PPI lanes; mark the fanouts of
  /// every source whose lane actually changed (the event seed set).
  void load_sources(const ScanPattern* patterns, unsigned count) {
    const auto& inputs = netlist_.inputs();
    const auto& dffs = netlist_.dffs();
    const auto& fanouts = netlist_.fanouts();
    auto drive = [&](gate::GateId source, const L& lane) {
      const std::size_t i = source.index();
      if (good_valid_ && lane == good_[i]) return;
      good_[i] = lane;
      for (gate::GateId out : fanouts[i]) touched_[out.index()] = 1;
    };
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      L lane = L::zero();
      for (unsigned k = 0; k < count; ++k) {
        if (patterns[k].pi.get(i)) lane.set_bit(k);
      }
      drive(inputs[i], lane);
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      L lane = L::zero();
      for (unsigned k = 0; k < count; ++k) {
        if (patterns[k].ppi.get(i)) lane.set_bit(k);
      }
      drive(dffs[i], lane);
    }
  }

  /// Settle the good machine.  First block (or event-driven disabled):
  /// full topological sweep.  Otherwise only gates downstream of a
  /// changed net are re-evaluated, and a gate that settles to its old
  /// value stops the wave (value-change suppression).
  void settle(EngineStats* stats) {
    ++block_epoch_;  // new good values: every cached root difference is stale
    const auto& gates = netlist_.gates();
    const auto& fanouts = netlist_.fanouts();
    if (!good_valid_ || !options_.event_driven) {
      for (gate::GateId id : netlist_.topo_order()) {
        const gate::Gate& g = gates[id.index()];
        touched_[id.index()] = 0;
        if (g.kind == gate::GateKind::kInput ||
            g.kind == gate::GateKind::kDff) {
          continue;
        }
        good_[id.index()] = eval_gate(g);
        if (stats != nullptr) ++stats->gates_evaluated;
      }
      good_valid_ = true;
      return;
    }
    for (gate::GateId id : netlist_.topo_order()) {
      if (!touched_[id.index()]) continue;
      touched_[id.index()] = 0;
      const gate::Gate& g = gates[id.index()];
      // A DFF can sit in its D driver's fanout list; it is a value
      // source here (loaded, never evaluated), as is any input.
      if (g.kind == gate::GateKind::kInput || g.kind == gate::GateKind::kDff) {
        continue;
      }
      const L v = eval_gate(g);
      if (stats != nullptr) ++stats->gates_evaluated;
      if (v == good_[id.index()]) continue;  // wave dies here
      good_[id.index()] = v;
      for (gate::GateId out : fanouts[id.index()]) touched_[out.index()] = 1;
    }
  }

  const gate::GateNetlist& netlist_;
  const ConeCache& cones_;
  EngineOptions options_;
  std::uint64_t current_stamp_;
  std::vector<L> good_;
  std::vector<L> scratch_;
  std::vector<std::uint64_t> stamp_;
  std::vector<unsigned char> touched_;
  /// root_difference() per region root, valid while region_block_[root]
  /// equals block_epoch_ (bumped whenever good_ is re-settled).
  std::vector<L> region_diff_;
  std::vector<std::uint64_t> region_block_;
  std::uint64_t block_epoch_ = 0;
  /// good_ holds the settled values of the previous block (event-driven
  /// incremental evaluation is valid once true).
  bool good_valid_ = false;
  ScanPattern single_;       ///< staging slot for the response entry points
  EngineStats stats_sink_;   ///< response calls fold their stats here
};

template <typename Tag>
std::unique_ptr<BlockEngineBase> make_engine(unsigned lane_words,
                                             const ConeCache& cones,
                                             const EngineOptions& options) {
  switch (lane_words) {
    case 1:
      return std::make_unique<BlockEngine<1, Tag>>(cones, options);
    case 4:
      return std::make_unique<BlockEngine<4, Tag>>(cones, options);
    case 8:
      return std::make_unique<BlockEngine<8, Tag>>(cones, options);
    default:
      util::raise("block engine: lane width must be 1, 4 or 8 words");
  }
}

}  // namespace detail
}  // namespace socet::faultsim
