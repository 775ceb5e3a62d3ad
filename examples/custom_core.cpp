// Bring your own core: build a multiply-accumulate-style datapath with the
// RTL API, run the provider-side SOCET flow on it, sanity-check its
// behaviour with the RTL interpreter, then integrate it with the GCD core
// from System 2 into a two-core SOC and plan the chip test.
//
// Build & run:   cmake --build build && ./build/examples/custom_core
#include <cstdio>

#include "socet/rtl/interpreter.hpp"
#include "socet/soc/schedule.hpp"
#include "socet/systems/systems.hpp"
#include "socet/transparency/rcg.hpp"

namespace {

using namespace socet;

/// An accumulating filter tap: ACC' = ACC + (COEF * ... simplified to
/// shifted adds), with a bypass path that the transparency search can
/// recruit.
rtl::Netlist make_mac_core() {
  rtl::Netlist n("MAC");
  auto x = n.add_input("X", 8);
  auto clear = n.add_input("Clear", 1, rtl::PortKind::kControl);
  auto y = n.add_output("Y", 8);

  auto xr = n.add_register("XR", 8);
  auto acc = n.add_register("ACC", 8);
  auto yr = n.add_register("YR", 8);

  auto shl = n.add_fu("SHL", rtl::FuKind::kShiftLeft, 8, 1);
  auto add = n.add_fu("ADD", rtl::FuKind::kAdd, 8, 2);
  auto zero = n.add_constant("ZERO", util::BitVector(8, 0));

  // XR <- X (sample register).
  n.connect(n.pin(x), n.reg_d(xr));
  // ACC <- 0 | ACC + (XR << 1)  (clear / accumulate).
  n.connect(n.reg_q(xr), n.fu_in(shl, 0));
  n.connect(n.reg_q(acc), n.fu_in(add, 0));
  n.connect(n.fu_out(shl), n.fu_in(add, 1));
  auto m_acc = n.add_mux("m_acc", 8, 2);
  n.connect(n.fu_out(add), n.mux_in(m_acc, 0));
  n.connect(n.const_out(zero), n.mux_in(m_acc, 1));
  n.connect(n.pin(clear), n.mux_select(m_acc));
  n.connect(n.mux_out(m_acc), n.reg_d(acc));
  // YR <- ACC | XR (output register with a pass-through path - this mux
  // edge is what makes the core cheaply transparent).
  auto m_y = n.add_mux("m_y", 8, 2);
  n.connect(n.reg_q(acc), n.mux_in(m_y, 0));
  n.connect(n.reg_q(xr), n.mux_in(m_y, 1));
  auto tsel = n.add_input("Tap", 1, rtl::PortKind::kControl);
  n.connect(n.pin(tsel), n.mux_select(m_y));
  n.connect(n.mux_out(m_y), n.reg_d(yr));
  n.connect(n.reg_q(yr), n.pin(y));
  n.validate();
  return n;
}

}  // namespace

int main() {
  // ---- 1. functional sanity check with the RTL interpreter ------------
  auto mac_rtl = make_mac_core();
  rtl::Interpreter sim(mac_rtl);
  sim.reset();
  sim.set_input("X", util::BitVector(8, 3));
  sim.set_input("Clear", util::BitVector(1, 0));
  sim.set_input("Tap", util::BitVector(1, 0));
  for (int i = 0; i < 4; ++i) sim.step();
  std::printf("MAC after 4 accumulate steps of x=3: Y = %llu\n",
              static_cast<unsigned long long>(sim.output("Y").to_u64()));

  // ---- 2. provider-side SOCET flow -------------------------------------
  std::size_t rcg_nodes = 0;
  std::size_t rcg_edges = 0;
  core::Core mac = core::Core::prepare(
      make_mac_core(), {}, [&](const transparency::Rcg& rcg) {
        rcg_nodes = rcg.nodes().size();
        rcg_edges = rcg.edges().size();
      });
  mac.set_scan_vectors(40);
  std::printf("\nMAC HSCAN: %u cells, depth %u\n", mac.hscan_overhead_cells(),
              mac.hscan().max_depth);
  std::printf("RCG: %zu nodes, %zu edges\n", rcg_nodes, rcg_edges);
  for (const auto& version : mac.versions()) {
    std::printf("  %s: %u cells,", version.name.c_str(), version.extra_cells);
    for (const auto& edge : version.edges) {
      std::printf(" %s->%s=%u",
                  mac.netlist().port(edge.input).name.c_str(),
                  mac.netlist().port(edge.output).name.c_str(), edge.latency);
    }
    std::printf("\n");
  }

  // ---- 3. integrate with the System 2 GCD core -------------------------
  core::Core gcd = core::Core::prepare(systems::make_gcd_rtl());
  gcd.set_scan_vectors(55);

  soc::Soc chip("MAC+GCD");
  auto c_mac = chip.add_core(&mac);
  auto c_gcd = chip.add_core(&gcd);
  auto pi_x = chip.add_pi("X", 8);
  auto pi_clear = chip.add_pi("Clear", 1);
  auto pi_tap = chip.add_pi("Tap", 1);
  auto pi_b = chip.add_pi("B", 8);
  auto pi_start = chip.add_pi("Start", 1);
  auto po_res = chip.add_po("Result", 8);
  auto po_rdy = chip.add_po("Ready", 1);
  chip.connect(pi_x, c_mac, "X");
  chip.connect(pi_clear, c_mac, "Clear");
  chip.connect(pi_tap, c_mac, "Tap");
  chip.connect(c_mac, "Y", c_gcd, "A");  // MAC output feeds the GCD
  chip.connect(pi_b, c_gcd, "B");
  chip.connect(pi_start, c_gcd, "Start");
  chip.connect(c_gcd, "Result", po_res);
  chip.connect(c_gcd, "Ready", po_rdy);
  chip.validate();

  std::printf("\nchip test plans by MAC version:\n");
  for (unsigned v = 0; v < mac.version_count(); ++v) {
    auto plan = soc::plan_chip_test(chip, {v, 0});
    std::printf("  MAC %s: total TAT %llu cycles, DFT %u cells "
                "(GCD's A input justified through the MAC)\n",
                mac.version(v).name.c_str(), plan.total_tat,
                plan.total_overhead_cells());
  }
  return 0;
}
