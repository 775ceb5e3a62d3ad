#include <string>

#include "socet/systems/systems.hpp"

namespace socet::systems {

namespace {

using rtl::FuKind;
using rtl::Netlist;
using rtl::PinRef;

rtl::MuxId mux2(Netlist& n, const std::string& name, unsigned width,
                PinRef a, unsigned a_lo, PinRef b, unsigned b_lo, PinRef dst,
                unsigned dst_lo, PinRef sel, unsigned sel_lo) {
  auto m = n.add_mux(name, width, 2);
  n.connect(a, a_lo, n.mux_in(m, 0), 0, width);
  n.connect(b, b_lo, n.mux_in(m, 1), 0, width);
  n.connect(n.mux_out(m), 0, dst, dst_lo, width);
  n.connect(sel, sel_lo, n.mux_select(m), 0, 1);
  return m;
}

}  // namespace

rtl::Netlist make_graphics_rtl() {
  Netlist n("GRAPHICS");

  // A line/circle-drawing datapath in the style of the power-managed
  // graphics processor of [9]: coordinate registers, Bresenham error
  // accumulator, and a command decoder cloud.
  auto cmd = n.add_input("CMD", 8);
  auto din = n.add_input("DIN", 8);
  auto go = n.add_input("GO", 1, rtl::PortKind::kControl);
  auto px = n.add_output("PX", 8);
  auto py = n.add_output("PY", 8);
  auto done = n.add_output("Done", 1, rtl::PortKind::kControl);

  auto cmdr = n.add_register("CMDR", 8);
  auto xr = n.add_register("XR", 8);
  auto yr = n.add_register("YR", 8);
  auto dxr = n.add_register("DXR", 8);
  auto dyr = n.add_register("DYR", 8);
  auto err = n.add_register("ERR", 8);
  auto xo = n.add_register("XO", 8);
  auto yo = n.add_register("YO", 8);
  auto gr = n.add_register("GR", 1);
  auto dr = n.add_register("DR", 1);

  auto addx = n.add_fu("ADDX", FuKind::kAdd, 8, 2);
  auto suby = n.add_fu("SUBY", FuKind::kSub, 8, 2);
  auto adde = n.add_fu("ADDE", FuKind::kAdd, 8, 2);
  auto cmp = n.add_fu("CMP", FuKind::kLess, 8, 2);

  auto ctl = n.add_random_logic("GCTRL", 18, 20, 1300, /*seed=*/0x61);
  n.connect(n.reg_q(cmdr), 0, n.fu_in(ctl, 0), 0, 8);
  n.connect(n.reg_q(err), 0, n.fu_in(ctl, 0), 8, 8);
  n.connect(n.reg_q(gr), 0, n.fu_in(ctl, 0), 16, 1);
  n.connect(n.fu_out(cmp), 0, n.fu_in(ctl, 0), 17, 1);
  const PinRef c = n.fu_out(ctl);

  // Command / coordinate loads (existing mux paths usable by HSCAN).
  mux2(n, "m_cmd", 8, n.pin(cmd), 0, n.reg_q(xr), 0, n.reg_d(cmdr), 0, c, 10);
  n.connect(c, 0, n.reg_load(cmdr), 0, 1);
  mux2(n, "m_x", 8, n.pin(din), 0, n.fu_out(addx), 0, n.reg_d(xr), 0, c, 11);
  n.connect(c, 1, n.reg_load(xr), 0, 1);
  mux2(n, "m_y", 8, n.reg_q(xr), 0, n.fu_out(suby), 0, n.reg_d(yr), 0, c, 12);
  n.connect(c, 2, n.reg_load(yr), 0, 1);
  mux2(n, "m_dx", 8, n.reg_q(cmdr), 0, n.fu_out(addx), 0, n.reg_d(dxr), 0,
       c, 13);
  n.connect(c, 3, n.reg_load(dxr), 0, 1);
  mux2(n, "m_dy", 8, n.reg_q(dxr), 0, n.fu_out(suby), 0, n.reg_d(dyr), 0,
       c, 14);
  n.connect(c, 4, n.reg_load(dyr), 0, 1);
  mux2(n, "m_err", 8, n.reg_q(dyr), 0, n.fu_out(adde), 0, n.reg_d(err), 0,
       c, 15);
  n.connect(c, 5, n.reg_load(err), 0, 1);

  // Output pipeline registers.
  mux2(n, "m_xo", 8, n.reg_q(xr), 0, n.reg_q(err), 0, n.reg_d(xo), 0, c, 16);
  n.connect(c, 6, n.reg_load(xo), 0, 1);
  mux2(n, "m_yo", 8, n.reg_q(yr), 0, n.reg_q(err), 0, n.reg_d(yo), 0, c, 17);
  n.connect(c, 7, n.reg_load(yo), 0, 1);

  // Control chain GO -> GR -> DR -> Done.
  mux2(n, "m_gr", 1, n.pin(go), 0, c, 8, n.reg_d(gr), 0, c, 18);
  mux2(n, "m_dr", 1, n.reg_q(gr), 0, c, 9, n.reg_d(dr), 0, c, 19);

  n.connect(n.reg_q(xr), n.fu_in(addx, 0));
  n.connect(n.reg_q(dxr), n.fu_in(addx, 1));
  n.connect(n.reg_q(yr), n.fu_in(suby, 0));
  n.connect(n.reg_q(dyr), n.fu_in(suby, 1));
  n.connect(n.reg_q(err), n.fu_in(adde, 0));
  n.connect(n.reg_q(dyr), n.fu_in(adde, 1));
  n.connect(n.reg_q(err), n.fu_in(cmp, 0));
  n.connect(n.reg_q(dxr), n.fu_in(cmp, 1));

  n.connect(n.reg_q(xo), n.pin(px));
  n.connect(n.reg_q(yo), n.pin(py));
  n.connect(n.reg_q(dr), n.pin(done));

  return n;
}

rtl::Netlist make_gcd_rtl() {
  Netlist n("GCD");

  // Euclid's algorithm from the HLS design repository [10].
  auto a = n.add_input("A", 8);
  auto b = n.add_input("B", 8);
  auto start = n.add_input("Start", 1, rtl::PortKind::kControl);
  auto res = n.add_output("Result", 8);
  auto ready = n.add_output("Ready", 1, rtl::PortKind::kControl);

  auto ra = n.add_register("RA", 8);
  auto rb = n.add_register("RB", 8);
  auto ro = n.add_register("RO", 8);
  auto st = n.add_register("ST", 1);

  auto sub = n.add_fu("SUB", FuKind::kSub, 8, 2);
  auto less = n.add_fu("LESS", FuKind::kLess, 8, 2);
  auto eq = n.add_fu("EQZ", FuKind::kEqual, 8, 2);
  auto zero = n.add_constant("ZERO", util::BitVector(8, 0));

  // The controller observes the datapath registers directly (state +
  // comparator flags + operand bits), like the FSMD the HLS benchmark
  // describes.
  auto ctl = n.add_random_logic("GCDCTRL", 19, 10, 260, /*seed=*/0x6D);
  n.connect(n.reg_q(st), 0, n.fu_in(ctl, 0), 0, 1);
  n.connect(n.fu_out(less), 0, n.fu_in(ctl, 0), 1, 1);
  n.connect(n.fu_out(eq), 0, n.fu_in(ctl, 0), 2, 1);
  n.connect(n.reg_q(ra), 0, n.fu_in(ctl, 0), 3, 8);
  n.connect(n.reg_q(rb), 0, n.fu_in(ctl, 0), 11, 8);
  const PinRef c = n.fu_out(ctl);

  mux2(n, "m_a", 8, n.pin(a), 0, n.fu_out(sub), 0, n.reg_d(ra), 0, c, 4);
  n.connect(c, 0, n.reg_load(ra), 0, 1);
  mux2(n, "m_b", 8, n.pin(b), 0, n.reg_q(ra), 0, n.reg_d(rb), 0, c, 5);
  n.connect(c, 1, n.reg_load(rb), 0, 1);
  mux2(n, "m_o", 8, n.reg_q(ra), 0, n.reg_q(rb), 0, n.reg_d(ro), 0, c, 6);
  n.connect(c, 2, n.reg_load(ro), 0, 1);
  mux2(n, "m_st", 1, n.pin(start), 0, c, 3, n.reg_d(st), 0, c, 7);

  n.connect(n.reg_q(ra), n.fu_in(sub, 0));
  n.connect(n.reg_q(rb), n.fu_in(sub, 1));
  n.connect(n.reg_q(ra), n.fu_in(less, 0));
  n.connect(n.reg_q(rb), n.fu_in(less, 1));
  n.connect(n.reg_q(rb), n.fu_in(eq, 0));
  n.connect(n.const_out(zero), n.fu_in(eq, 1));

  n.connect(n.reg_q(ro), n.pin(res));
  n.connect(n.reg_q(st), n.pin(ready));

  return n;
}

rtl::Netlist make_x25_rtl() {
  Netlist n("X25");

  // Frame-level X.25 protocol engine after [11]: receive/transmit
  // buffers, CRC accumulator, and a state-heavy control cloud.
  auto rx = n.add_input("RX", 8);
  auto ctl_in = n.add_input("CTL", 4, rtl::PortKind::kControl);
  auto tx = n.add_output("TX", 8);
  auto stat = n.add_output("STAT", 4, rtl::PortKind::kControl);

  auto rxr = n.add_register("RXR", 8);
  auto buf1 = n.add_register("BUF1", 8);
  auto buf2 = n.add_register("BUF2", 8);
  auto crc = n.add_register("CRC", 8);
  auto txr = n.add_register("TXR", 8);
  auto str = n.add_register("STR", 4);
  auto seq = n.add_register("SEQ", 4);

  auto xsum = n.add_fu("XSUM", FuKind::kXor, 8, 2);
  auto incs = n.add_fu("INCS", FuKind::kIncrement, 4, 1);

  auto ctl = n.add_random_logic("XCTRL", 16, 16, 1400, /*seed=*/0x25);
  n.connect(n.reg_q(str), 0, n.fu_in(ctl, 0), 0, 4);
  n.connect(n.reg_q(seq), 0, n.fu_in(ctl, 0), 4, 4);
  n.connect(n.reg_q(crc), 0, n.fu_in(ctl, 0), 8, 8);
  const PinRef c = n.fu_out(ctl);

  mux2(n, "m_rx", 8, n.pin(rx), 0, n.fu_out(xsum), 0, n.reg_d(rxr), 0, c, 8);
  n.connect(c, 0, n.reg_load(rxr), 0, 1);
  mux2(n, "m_b1", 8, n.reg_q(rxr), 0, n.fu_out(xsum), 0, n.reg_d(buf1), 0,
       c, 9);
  n.connect(c, 1, n.reg_load(buf1), 0, 1);
  mux2(n, "m_b2", 8, n.reg_q(buf1), 0, n.reg_q(crc), 0, n.reg_d(buf2), 0,
       c, 10);
  n.connect(c, 2, n.reg_load(buf2), 0, 1);
  mux2(n, "m_crc", 8, n.fu_out(xsum), 0, n.reg_q(buf2), 0, n.reg_d(crc), 0,
       c, 11);
  n.connect(c, 3, n.reg_load(crc), 0, 1);
  mux2(n, "m_tx", 8, n.reg_q(buf2), 0, n.reg_q(crc), 0, n.reg_d(txr), 0,
       c, 12);
  n.connect(c, 4, n.reg_load(txr), 0, 1);
  mux2(n, "m_st", 4, n.pin(ctl_in), 0, n.reg_q(seq), 0, n.reg_d(str), 0,
       c, 13);
  n.connect(c, 5, n.reg_load(str), 0, 1);
  mux2(n, "m_sq", 4, n.reg_q(str), 0, n.fu_out(incs), 0, n.reg_d(seq), 0,
       c, 14);
  n.connect(c, 6, n.reg_load(seq), 0, 1);

  n.connect(n.reg_q(rxr), n.fu_in(xsum, 0));
  n.connect(n.reg_q(crc), n.fu_in(xsum, 1));
  n.connect(n.reg_q(seq), n.fu_in(incs, 0));

  n.connect(n.reg_q(txr), n.pin(tx));
  n.connect(n.reg_q(str), n.pin(stat));

  return n;
}

System make_system2(const core::CoreCostModels& cost) {
  System system;
  system.cores.push_back(std::make_unique<core::Core>(
      core::Core::prepare(make_graphics_rtl(), cost)));
  system.cores.push_back(std::make_unique<core::Core>(
      core::Core::prepare(make_gcd_rtl(), cost)));
  system.cores.push_back(std::make_unique<core::Core>(
      core::Core::prepare(make_x25_rtl(), cost)));

  system.core_named("GRAPHICS").set_scan_vectors(130);
  system.core_named("GCD").set_scan_vectors(55);
  system.core_named("X25").set_scan_vectors(120);

  auto soc = std::make_unique<soc::Soc>("System2");
  const auto gfx = soc->add_core(system.cores[0].get());
  const auto gcd = soc->add_core(system.cores[1].get());
  const auto x25 = soc->add_core(system.cores[2].get());

  auto cmd = soc->add_pi("CMD", 8);
  auto din = soc->add_pi("DIN", 8);
  auto go = soc->add_pi("GO", 1);
  auto start = soc->add_pi("Start", 1);
  auto ctl = soc->add_pi("CTL", 4);
  auto tx = soc->add_po("TX", 8);
  auto stat = soc->add_po("STAT", 4);
  auto done = soc->add_po("DONE", 1);
  auto ready = soc->add_po("READY", 1);

  // Pipeline wiring: the graphics core rasterizes, the GCD core reduces
  // coordinate pairs, the X25 core frames the result for transmission.
  soc->connect(cmd, gfx, "CMD");
  soc->connect(din, gfx, "DIN");
  soc->connect(go, gfx, "GO");
  soc->connect(start, gcd, "Start");
  soc->connect(ctl, x25, "CTL");
  soc->connect(gfx, "PX", gcd, "A");
  soc->connect(gfx, "PY", gcd, "B");
  soc->connect(gcd, "Result", x25, "RX");
  soc->connect(x25, "TX", tx);
  soc->connect(x25, "STAT", stat);
  soc->connect(gfx, "Done", done);
  soc->connect(gcd, "Ready", ready);

  soc->validate();
  system.soc = std::move(soc);
  return system;
}

}  // namespace socet::systems
