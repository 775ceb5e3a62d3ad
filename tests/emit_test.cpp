#include <gtest/gtest.h>

#include "socet/emit/dot.hpp"
#include "socet/emit/verilog.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/systems/systems.hpp"

namespace socet::emit {
namespace {

rtl::Netlist make_small() {
  rtl::Netlist n("small");
  auto a = n.add_input("A", 8);
  auto sel = n.add_input("SEL", 1, rtl::PortKind::kControl);
  auto z = n.add_output("Z", 8);
  auto r = n.add_register("R", 8);
  auto inc = n.add_fu("INC", rtl::FuKind::kIncrement, 8, 1);
  auto m = n.add_mux("M", 8, 2);
  n.connect(n.pin(a), n.mux_in(m, 0));
  n.connect(n.fu_out(inc), n.mux_in(m, 1));
  n.connect(n.pin(sel), n.mux_select(m));
  n.connect(n.mux_out(m), n.reg_d(r));
  n.connect(n.reg_q(r), n.fu_in(inc, 0));
  n.connect(n.reg_q(r), n.pin(z));
  n.validate();
  return n;
}

// ---------------------------------------------------------------- verilog

TEST(VerilogRtl, ContainsModuleStructure) {
  const auto v = emit_verilog(make_small());
  EXPECT_NE(v.find("module small ("), std::string::npos);
  EXPECT_NE(v.find("input wire clk"), std::string::npos);
  EXPECT_NE(v.find("input wire [7:0] A"), std::string::npos);
  EXPECT_NE(v.find("output wire [7:0] Z"), std::string::npos);
  EXPECT_NE(v.find("reg [7:0] R;"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(VerilogRtl, MuxBecomesTernary) {
  const auto v = emit_verilog(make_small());
  EXPECT_NE(v.find("assign M_y = (SEL == 1'd0) ? A : INC_y;"),
            std::string::npos)
      << v;
}

TEST(VerilogRtl, IncrementBecomesAdd) {
  const auto v = emit_verilog(make_small());
  EXPECT_NE(v.find("assign INC_y = R + 1'b1;"), std::string::npos) << v;
}

TEST(VerilogRtl, LoadEnableGuardsAssign) {
  rtl::Netlist n("ld");
  auto d = n.add_input("D", 4);
  auto en = n.add_input("EN", 1, rtl::PortKind::kControl);
  auto q = n.add_output("Q", 4);
  auto r = n.add_register("R", 4);
  n.connect(n.pin(d), n.reg_d(r));
  n.connect(n.pin(en), n.reg_load(r));
  n.connect(n.reg_q(r), n.pin(q));
  const auto v = emit_verilog(n);
  EXPECT_NE(v.find("if (EN) begin"), std::string::npos) << v;
}

TEST(VerilogRtl, SlicedWritesPreserved) {
  rtl::Netlist n("slice");
  auto hi = n.add_input("HI", 4);
  auto lo = n.add_input("LO", 4);
  auto q = n.add_output("Q", 8);
  auto r = n.add_register("R", 8, false);
  n.connect(n.pin(hi), 0, n.reg_d(r), 4, 4);
  n.connect(n.pin(lo), 0, n.reg_d(r), 0, 4);
  n.connect(n.reg_q(r), n.pin(q));
  const auto v = emit_verilog(n);
  EXPECT_NE(v.find("R[7:4] <= HI;"), std::string::npos) << v;
  EXPECT_NE(v.find("R[3:0] <= LO;"), std::string::npos) << v;
}

TEST(VerilogRtl, RejectsRandomLogic) {
  rtl::Netlist n("cloud");
  auto a = n.add_input("A", 4);
  auto z = n.add_output("Z", 4);
  auto c = n.add_random_logic("C", 4, 4, 10, 1);
  n.connect(n.pin(a), n.fu_in(c, 0));
  n.connect(n.fu_out(c), n.pin(z));
  EXPECT_THROW(emit_verilog(n), util::Error);
}

TEST(VerilogRtl, SanitizesNames) {
  rtl::Netlist n("my-core.v2");
  auto a = n.add_input("in[0]", 1);
  auto z = n.add_output("out", 1);
  auto r = n.add_register("state reg", 1, false);
  n.connect(n.pin(a), n.reg_d(r));
  n.connect(n.reg_q(r), n.pin(z));
  const auto v = emit_verilog(n);
  EXPECT_NE(v.find("module my_core_v2"), std::string::npos);
  EXPECT_NE(v.find("state_reg"), std::string::npos);
  EXPECT_EQ(v.find("state reg"), std::string::npos);
}

TEST(VerilogRtl, WholeSyntheticCoreEmits) {
  // The named cores carry control clouds (gate-level only); a cloudless
  // synthetic core exercises the full RTL writer end to end.
  systems::SyntheticCoreOptions options;
  options.registers = 8;
  options.with_cloud = false;
  const auto v =
      emit_verilog(systems::make_synthetic_core("big", 42, options));
  EXPECT_NE(v.find("module big"), std::string::npos);
  EXPECT_GT(v.size(), 800u);
}

TEST(VerilogGates, StructuralEmission) {
  auto elab = synth::elaborate(make_small());
  const auto v = emit_verilog(elab.gates);
  EXPECT_NE(v.find("module small_gates"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("assign po_0"), std::string::npos);
  // Every DFF appears.
  EXPECT_GE(static_cast<int>(elab.gates.dffs().size()), 8);
}

TEST(VerilogGates, HandlesClouds) {
  rtl::Netlist n("cloud");
  auto a = n.add_input("A", 4);
  auto z = n.add_output("Z", 4);
  auto c = n.add_random_logic("C", 4, 4, 30, 1);
  n.connect(n.pin(a), n.fu_in(c, 0));
  n.connect(n.fu_out(c), n.pin(z));
  auto elab = synth::elaborate(n);
  EXPECT_NO_THROW(emit_verilog(elab.gates));
}

TEST(Verilog, Deterministic) {
  EXPECT_EQ(emit_verilog(make_small()), emit_verilog(make_small()));
}

// -------------------------------------------------------------------- dot

TEST(Dot, RcgShowsSplitsAndHscanEdges) {
  auto cpu = systems::make_cpu_rtl();
  const auto paths = rtl::enumerate_transfer_paths(cpu);
  auto hs = hscan::build_hscan(cpu, paths);
  transparency::Rcg rcg(cpu, paths, &hs);
  const auto dot = emit_dot(rcg);
  EXPECT_NE(dot.find("digraph RCG"), std::string::npos);
  EXPECT_NE(dot.find("(C-split)"), std::string::npos);
  EXPECT_NE(dot.find("(O-split)"), std::string::npos);
  EXPECT_NE(dot.find("penwidth=2.5"), std::string::npos)
      << "darkened HSCAN edges";
  EXPECT_NE(dot.find("ACCUMULATOR"), std::string::npos);
}

TEST(Dot, CcgClustersCores) {
  auto system = systems::make_barcode_system();
  soc::Ccg ccg(*system.soc, {0, 0, 0});
  const auto dot = emit_dot(*system.soc, ccg);
  EXPECT_NE(dot.find("digraph CCG"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("label=\"CPU\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"PREPROCESSOR\""), std::string::npos);
  // Latency-labelled transparency edges exist.
  EXPECT_NE(dot.find("color=slateblue"), std::string::npos);
}

TEST(Dot, BalancedBraces) {
  auto system = systems::make_barcode_system();
  soc::Ccg ccg(*system.soc, {0, 0, 0});
  const rtl::Netlist& cpu = system.cores[0]->netlist();
  for (const auto& dot :
       {emit_dot(*system.soc, ccg),
        emit_dot(transparency::Rcg(cpu, rtl::enumerate_transfer_paths(cpu)))}) {
    EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
              std::count(dot.begin(), dot.end(), '}'));
  }
}

}  // namespace
}  // namespace socet::emit
