#include "socet/systems/synthetic.hpp"

#include "socet/util/rng.hpp"

namespace socet::systems {

namespace {

using rtl::FuKind;
using rtl::Netlist;
using rtl::PinRef;

}  // namespace

rtl::Netlist make_synthetic_core(const std::string& name, std::uint64_t seed,
                                 const SyntheticCoreOptions& options) {
  util::require(options.registers >= 1, "synthetic core: need registers");
  util::require(options.inputs >= 1 && options.outputs >= 1,
                "synthetic core: need ports");
  util::Rng rng(seed);
  Netlist n(name);

  std::vector<rtl::PortId> ins;
  std::vector<rtl::PortId> outs;
  for (unsigned i = 0; i < options.inputs; ++i) {
    ins.push_back(n.add_input("IN" + std::to_string(i), options.width));
  }
  for (unsigned i = 0; i < options.outputs; ++i) {
    outs.push_back(n.add_output("OUT" + std::to_string(i), options.width));
  }

  std::vector<rtl::RegisterId> regs;
  for (unsigned i = 0; i < options.registers; ++i) {
    regs.push_back(n.add_register("R" + std::to_string(i), options.width));
  }

  // Per register, gather alternative sources, then build one mux.
  std::vector<std::vector<std::pair<PinRef, unsigned>>> sources(
      options.registers);
  // Backbone: a chain IN0 -> R0 -> R1 -> ... keeps every register
  // reachable (so HSCAN reuses paths and transparency usually exists).
  sources[0].emplace_back(n.pin(ins[0]), 0);
  for (unsigned i = 1; i < options.registers; ++i) {
    sources[i].emplace_back(n.reg_q(regs[i - 1]), 0);
  }
  // Random extra mux paths.
  for (unsigned from = 0; from < options.registers; ++from) {
    for (unsigned to = 0; to < options.registers; ++to) {
      if (from == to) continue;
      if (rng.next_below(100) >= options.connectivity_pct) continue;
      sources[to].emplace_back(n.reg_q(regs[from]), 0);
    }
  }
  // Extra input fanin.
  for (unsigned i = 1; i < options.inputs; ++i) {
    const unsigned to = static_cast<unsigned>(rng.next_below(options.registers));
    sources[to].emplace_back(n.pin(ins[i]), 0);
  }

  unsigned mux_count = 0;
  for (unsigned r = 0; r < options.registers; ++r) {
    auto& alts = sources[r];
    const bool split = options.with_splits && options.width >= 4 &&
                       alts.size() >= 2 && rng.next_below(100) < 30;
    if (split) {
      // Two half-width muxes with different source sets: a C-split node.
      const unsigned half = options.width / 2;
      for (unsigned part = 0; part < 2; ++part) {
        auto m = n.add_mux("m" + std::to_string(mux_count++), half,
                           static_cast<unsigned>(alts.size()));
        for (std::size_t a = 0; a < alts.size(); ++a) {
          // Rotate sources between the halves so slices differ.
          const auto& [pin, lo] =
              alts[(a + part) % alts.size()];
          n.connect(pin, lo + (part == 0 ? 0 : 0), n.mux_in(m, static_cast<unsigned>(a)),
                    0, half);
        }
        n.connect(n.mux_out(m), 0, n.reg_d(regs[r]), part * half, half);
      }
    } else if (alts.size() == 1) {
      n.connect(alts[0].first, alts[0].second, n.reg_d(regs[r]), 0,
                options.width);
    } else {
      auto m = n.add_mux("m" + std::to_string(mux_count++), options.width,
                         static_cast<unsigned>(alts.size()));
      for (std::size_t a = 0; a < alts.size(); ++a) {
        n.connect(alts[a].first, alts[a].second,
                  n.mux_in(m, static_cast<unsigned>(a)), 0, options.width);
      }
      n.connect(n.mux_out(m), n.reg_d(regs[r]));
    }
  }

  // Outputs read the youngest registers.
  for (unsigned o = 0; o < options.outputs; ++o) {
    const unsigned r = options.registers - 1 - (o % options.registers);
    n.connect(n.reg_q(regs[r]), n.pin(outs[o]));
  }

  if (options.with_cloud) {
    auto cloud = n.add_random_logic("CTRL", options.width, 8,
                                    options.registers * 20, seed ^ 0xC10D);
    n.connect(n.reg_q(regs[0]), 0, n.fu_in(cloud, 0), 0, options.width);
    auto sink = n.add_output("CSTAT", 8, rtl::PortKind::kControl);
    n.connect(n.fu_out(cloud), n.pin(sink));
  }

  return n;
}

System make_synthetic_system(std::uint64_t seed,
                             const SyntheticSocOptions& options) {
  util::Rng rng(seed ^ 0x50C);
  System system;
  for (unsigned c = 0; c < options.cores; ++c) {
    auto netlist = make_synthetic_core("SYN" + std::to_string(c),
                                       seed * 1000 + c, options.core);
    system.cores.push_back(std::make_unique<core::Core>(
        core::Core::prepare(std::move(netlist))));
    system.cores.back()->set_scan_vectors(options.scan_vectors);
  }

  auto soc = std::make_unique<soc::Soc>("SYNTH");
  for (auto& core : system.cores) soc->add_core(core.get());

  // One guaranteed PI and PO so routing has anchors.
  unsigned pi_count = 0;
  unsigned po_count = 0;

  for (unsigned c = 0; c < options.cores; ++c) {
    const auto& netlist = system.cores[c]->netlist();
    for (rtl::PortId in : netlist.input_ports()) {
      const unsigned width = netlist.port(in).width;
      const bool to_pin = c == 0 || rng.next_below(100) <
                                        options.pin_adjacency_pct;
      if (to_pin) {
        auto pi = soc->add_pi("PI" + std::to_string(pi_count++), width);
        soc->connect(pi, c, netlist.port(in).name);
      } else {
        // Feed from a width-matched output of an earlier core (DAG).
        const unsigned upstream = static_cast<unsigned>(rng.next_below(c));
        bool connected = false;
        for (rtl::PortId out :
             system.cores[upstream]->netlist().output_ports()) {
          if (system.cores[upstream]->netlist().port(out).width != width) {
            continue;
          }
          soc->connect(upstream,
                       system.cores[upstream]->netlist().port(out).name, c,
                       netlist.port(in).name);
          connected = true;
          break;
        }
        if (!connected) {
          auto pi = soc->add_pi("PI" + std::to_string(pi_count++), width);
          soc->connect(pi, c, netlist.port(in).name);
        }
      }
    }
    for (rtl::PortId out : netlist.output_ports()) {
      const bool to_pin =
          c + 1 == options.cores ||
          rng.next_below(100) < options.pin_adjacency_pct;
      if (to_pin) {
        auto po = soc->add_po("PO" + std::to_string(po_count++),
                              netlist.port(out).width);
        soc->connect(c, netlist.port(out).name, po);
      }
      // Outputs not wired to a PO may still feed downstream cores (the
      // loop above pulls them in); otherwise they exercise system muxes.
    }
  }

  soc->validate();
  system.soc = std::move(soc);
  return system;
}

}  // namespace socet::systems
