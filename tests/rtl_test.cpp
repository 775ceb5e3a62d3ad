#include <gtest/gtest.h>

#include <algorithm>

#include "socet/rtl/netlist.hpp"
#include "socet/rtl/paths.hpp"
#include "socet/util/error.hpp"

namespace socet::rtl {
namespace {

using util::Error;

/// Find the unique transfer path between two named nodes, or nullptr.
const TransferPath* find_path(const std::vector<TransferPath>& paths,
                              const Netlist& n, const std::string& src,
                              const std::string& dst) {
  for (const auto& p : paths) {
    if (node_name(n, p.src) == src && node_name(n, p.dst) == dst) return &p;
  }
  return nullptr;
}

// ----------------------------------------------------------- construction

TEST(Netlist, PortsRegistersAndLookups) {
  Netlist n("toy");
  auto in = n.add_input("Data", 8);
  auto out = n.add_output("Address", 12);
  auto r = n.add_register("IR", 8);
  EXPECT_EQ(n.port(in).width, 8u);
  EXPECT_EQ(n.port(out).dir, PortDir::kOutput);
  EXPECT_EQ(n.reg(r).name, "IR");
  EXPECT_EQ(n.find_port("Data"), in);
  EXPECT_EQ(n.find_register("IR"), r);
  EXPECT_THROW(n.find_port("nope"), Error);
  EXPECT_THROW(n.find_register("nope"), Error);
  EXPECT_EQ(n.input_ports().size(), 1u);
  EXPECT_EQ(n.output_ports().size(), 1u);
}

TEST(Netlist, RejectsZeroWidthComponents) {
  Netlist n("toy");
  EXPECT_THROW(n.add_input("a", 0), Error);
  EXPECT_THROW(n.add_register("r", 0), Error);
  EXPECT_THROW(n.add_mux("m", 0, 2), Error);
  EXPECT_THROW(n.add_mux("m", 8, 1), Error);
}

TEST(Netlist, PinWidths) {
  Netlist n("toy");
  auto r = n.add_register("R", 16);
  auto m = n.add_mux("M", 16, 3);
  auto alu = n.add_fu("ALU", FuKind::kAlu, 8, 3);
  auto eq = n.add_fu("EQ", FuKind::kEqual, 8, 2);
  EXPECT_EQ(n.pin_width(n.reg_d(r)), 16u);
  EXPECT_EQ(n.pin_width(n.reg_load(r)), 1u);
  EXPECT_EQ(n.pin_width(n.mux_in(m, 2)), 16u);
  EXPECT_EQ(n.pin_width(n.mux_select(m)), 2u);  // 3 inputs need 2 bits
  EXPECT_EQ(n.pin_width(n.fu_in(alu, 2)), 2u);  // ALU op select
  EXPECT_EQ(n.pin_width(n.fu_in(alu, 0)), 8u);
  EXPECT_EQ(n.pin_width(n.fu_out(eq)), 1u);  // comparator output
}

TEST(Netlist, RandomLogicHasIndependentInWidth) {
  Netlist n("toy");
  auto cloud = n.add_random_logic("CTRL", 10, 4, 50, 99);
  EXPECT_EQ(n.pin_width(n.fu_in(cloud, 0)), 10u);
  EXPECT_EQ(n.pin_width(n.fu_out(cloud)), 4u);
  EXPECT_EQ(n.fu(cloud).gate_hint, 50u);
}

TEST(Netlist, ConnectChecksDirections) {
  Netlist n("toy");
  auto in = n.add_input("A", 8);
  auto out = n.add_output("Z", 8);
  auto r = n.add_register("R", 8);
  EXPECT_NO_THROW(n.connect(n.pin(in), n.reg_d(r)));
  EXPECT_NO_THROW(n.connect(n.reg_q(r), n.pin(out)));
  // Driving a driver, or sourcing from a sink, is rejected.
  EXPECT_THROW(n.connect(n.pin(in), n.reg_q(r)), Error);
  EXPECT_THROW(n.connect(n.reg_d(r), n.pin(out)), Error);
  // Width mismatch without slicing is rejected.
  auto wide = n.add_register("W", 16);
  EXPECT_THROW(n.connect(n.pin(in), n.reg_d(wide)), Error);
}

TEST(Netlist, SlicedConnectBoundsChecked) {
  Netlist n("toy");
  auto in = n.add_input("A", 8);
  auto r = n.add_register("R", 4);
  EXPECT_NO_THROW(n.connect(n.pin(in), 4, n.reg_d(r), 0, 4));
  EXPECT_THROW(n.connect(n.pin(in), 6, n.reg_d(r), 0, 4), Error);
  EXPECT_THROW(n.connect(n.pin(in), 0, n.reg_d(r), 2, 4), Error);
}

TEST(Netlist, ValidateDetectsDoubleDrive) {
  Netlist n("toy");
  auto a = n.add_input("A", 8);
  auto b = n.add_input("B", 8);
  auto r = n.add_register("R", 8);
  n.connect(n.pin(a), n.reg_d(r));
  EXPECT_NO_THROW(n.validate());
  n.connect(n.pin(b), 0, n.reg_d(r), 4, 4);  // overlaps bits 4..7
  EXPECT_THROW(n.validate(), Error);
}

TEST(Netlist, ValidateAllowsDisjointSliceDrivers) {
  Netlist n("toy");
  auto a = n.add_input("A", 4);
  auto b = n.add_input("B", 4);
  auto r = n.add_register("R", 8);
  n.connect(n.pin(a), 0, n.reg_d(r), 0, 4);
  n.connect(n.pin(b), 0, n.reg_d(r), 4, 4);
  EXPECT_NO_THROW(n.validate());
}

/// The message `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string error_text(Fn fn) {
  try {
    fn();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(Netlist, CheckFailuresNameThePin) {
  Netlist n("toy");
  auto in = n.add_input("A", 8);
  auto out = n.add_output("Z", 8);
  auto r = n.add_register("R0", 8);
  auto m = n.add_mux("M", 4, 2);
  EXPECT_EQ(error_text([&] { n.connect(n.pin(in), 0, n.reg_d(r), 0, 0); }),
            "connect: zero-width connection");
  EXPECT_EQ(error_text([&] { n.connect(n.reg_d(r), n.pin(out)); }),
            "connect: 'from' pin is not a driver: R0.D");
  EXPECT_EQ(error_text([&] { n.connect(n.pin(in), n.reg_q(r)); }),
            "connect: 'to' pin is not a sink: R0.Q");
  EXPECT_EQ(error_text([&] { n.connect(n.reg_q(r), 6, n.mux_in(m, 1), 0, 4); }),
            "connect: source slice exceeds pin width on R0.Q");
  EXPECT_EQ(error_text([&] { n.connect(n.pin(in), 0, n.mux_in(m, 1), 2, 4); }),
            "connect: sink slice exceeds pin width on M.IN1");
  EXPECT_TRUE(n.connections().empty());
}

TEST(Netlist, ValidateReportsFirstDoubleDriveInConnectionOrder) {
  Netlist n("toy");
  auto a = n.add_input("A", 8);
  auto b = n.add_input("B", 8);
  auto out = n.add_output("Z", 8);
  auto r = n.add_register("R1", 8);
  n.connect(n.pin(a), n.reg_d(r));
  n.connect(n.reg_q(r), n.pin(out));
  n.connect(n.pin(b), 0, n.reg_d(r), 2, 2);  // first overlap: R1.D
  n.connect(n.pin(a), n.pin(out));            // later overlap: Z
  // Port pins order before register pins, so a by-pin scan alone would
  // name Z; connection order names R1.D.
  EXPECT_EQ(error_text([&] { n.validate(); }),
            "validate: sink bit driven twice on R1.D");

  Netlist port_first("toy");
  auto pa = port_first.add_input("A", 8);
  auto pz = port_first.add_output("Z", 8);
  auto pr = port_first.add_register("R1", 8);
  port_first.connect(port_first.pin(pa), port_first.pin(pz));
  port_first.connect(port_first.pin(pa), port_first.reg_d(pr));
  port_first.connect(port_first.reg_q(pr), 7, port_first.pin(pz), 7, 1);
  port_first.connect(port_first.pin(pa), port_first.reg_d(pr));
  EXPECT_EQ(error_text([&] { port_first.validate(); }),
            "validate: sink bit driven twice on Z");
}

TEST(Netlist, FlipFlopCountSumsWidths) {
  Netlist n("toy");
  n.add_register("A", 8);
  n.add_register("B", 12);
  n.add_register("C", 1);
  EXPECT_EQ(n.flip_flop_count(), 21u);
}

TEST(Netlist, DescribePin) {
  Netlist n("toy");
  auto r = n.add_register("MAR", 8);
  auto m = n.add_mux("M1", 8, 2);
  EXPECT_EQ(describe_pin(n, n.reg_d(r)), "MAR.D");
  EXPECT_EQ(describe_pin(n, n.mux_in(m, 1)), "M1.IN1");
  EXPECT_EQ(describe_pin(n, n.mux_select(m)), "M1.SEL");
}

// ------------------------------------------------------------ path search

/// Builds: Data -> MUX(in0) -> REG1 ; REG1 -> REG2 (direct);
/// REG2 -> Out ; Const -> MUX(in1).
Netlist make_chain() {
  Netlist n("chain");
  auto data = n.add_input("Data", 8);
  auto out = n.add_output("Out", 8);
  auto r1 = n.add_register("REG1", 8);
  auto r2 = n.add_register("REG2", 8);
  auto m = n.add_mux("M", 8, 2);
  auto c = n.add_constant("K", util::BitVector(8, 0));
  n.connect(n.pin(data), n.mux_in(m, 0));
  n.connect(n.const_out(c), n.mux_in(m, 1));
  n.connect(n.mux_out(m), n.reg_d(r1));
  n.connect(n.reg_q(r1), n.reg_d(r2));
  n.connect(n.reg_q(r2), n.pin(out));
  n.validate();
  return n;
}

TEST(Paths, FindsMuxAndDirectPaths) {
  auto n = make_chain();
  auto paths = enumerate_transfer_paths(n);

  const auto* via_mux = find_path(paths, n, "Data", "REG1");
  ASSERT_NE(via_mux, nullptr);
  EXPECT_FALSE(via_mux->direct());
  ASSERT_EQ(via_mux->hops.size(), 1u);
  EXPECT_EQ(via_mux->hops[0].data_index, 0u);
  EXPECT_EQ(via_mux->width, 8u);

  const auto* direct = find_path(paths, n, "REG1", "REG2");
  ASSERT_NE(direct, nullptr);
  EXPECT_TRUE(direct->direct());

  const auto* to_out = find_path(paths, n, "REG2", "Out");
  ASSERT_NE(to_out, nullptr);
  EXPECT_TRUE(to_out->direct());
}

TEST(Paths, NoPathThroughFunctionalUnit) {
  Netlist n("fu");
  auto a = n.add_input("A", 8);
  auto r = n.add_register("R", 8);
  auto add = n.add_fu("ADD", FuKind::kAdd, 8, 2);
  n.connect(n.pin(a), n.fu_in(add, 0));
  n.connect(n.reg_q(r), n.fu_in(add, 1));
  n.connect(n.fu_out(add), n.reg_d(r));
  auto paths = enumerate_transfer_paths(n);
  EXPECT_EQ(find_path(paths, n, "A", "R"), nullptr);
}

TEST(Paths, SlicedConnectionTracksRanges) {
  Netlist n("slice");
  auto in = n.add_input("IN", 8);
  auto hi = n.add_register("HI", 4);
  auto lo = n.add_register("LO", 4);
  n.connect(n.pin(in), 4, n.reg_d(hi), 0, 4);
  n.connect(n.pin(in), 0, n.reg_d(lo), 0, 4);
  auto paths = enumerate_transfer_paths(n);

  const auto* to_hi = find_path(paths, n, "IN", "HI");
  ASSERT_NE(to_hi, nullptr);
  EXPECT_EQ(to_hi->src_lo, 4u);
  EXPECT_EQ(to_hi->dst_lo, 0u);
  EXPECT_EQ(to_hi->width, 4u);

  const auto* to_lo = find_path(paths, n, "IN", "LO");
  ASSERT_NE(to_lo, nullptr);
  EXPECT_EQ(to_lo->src_lo, 0u);
  EXPECT_EQ(to_lo->width, 4u);
}

TEST(Paths, SliceComposesThroughMux) {
  Netlist n("slice-mux");
  auto in = n.add_input("IN", 8);
  auto m = n.add_mux("M", 4, 2);
  auto r = n.add_register("R", 4);
  auto c = n.add_constant("K", util::BitVector(4, 0));
  // Only the high nibble of IN enters the mux.
  n.connect(n.pin(in), 4, n.mux_in(m, 0), 0, 4);
  n.connect(n.const_out(c), n.mux_in(m, 1));
  n.connect(n.mux_out(m), n.reg_d(r));
  auto paths = enumerate_transfer_paths(n);
  const auto* p = find_path(paths, n, "IN", "R");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->src_lo, 4u);
  EXPECT_EQ(p->dst_lo, 0u);
  EXPECT_EQ(p->width, 4u);
  EXPECT_EQ(p->hops.size(), 1u);
}

TEST(Paths, TwoLevelMuxTreeRecordsBothHops) {
  Netlist n("tree");
  auto a = n.add_input("A", 8);
  auto c = n.add_constant("K", util::BitVector(8, 0));
  auto m1 = n.add_mux("M1", 8, 2);
  auto m2 = n.add_mux("M2", 8, 2);
  auto r = n.add_register("R", 8);
  n.connect(n.pin(a), n.mux_in(m1, 1));
  n.connect(n.const_out(c), n.mux_in(m1, 0));
  n.connect(n.mux_out(m1), n.mux_in(m2, 0));
  n.connect(n.const_out(c), n.mux_in(m2, 1));
  n.connect(n.mux_out(m2), n.reg_d(r));
  auto paths = enumerate_transfer_paths(n);
  const auto* p = find_path(paths, n, "A", "R");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->hops.size(), 2u);
  EXPECT_EQ(p->hops[0].data_index, 1u);
  EXPECT_EQ(p->hops[1].data_index, 0u);
}

TEST(Paths, CombinationalMuxLoopDoesNotHang) {
  Netlist n("loop");
  auto a = n.add_input("A", 4);
  auto m1 = n.add_mux("M1", 4, 2);
  auto m2 = n.add_mux("M2", 4, 2);
  auto r = n.add_register("R", 4);
  n.connect(n.pin(a), n.mux_in(m1, 0));
  n.connect(n.mux_out(m2), n.mux_in(m1, 1));  // loop back edge
  n.connect(n.mux_out(m1), n.mux_in(m2, 0));
  n.connect(n.mux_out(m1), n.reg_d(r));
  auto c = n.add_constant("K", util::BitVector(4, 0));
  n.connect(n.const_out(c), n.mux_in(m2, 1));
  auto paths = enumerate_transfer_paths(n);  // must terminate
  EXPECT_NE(find_path(paths, n, "A", "R"), nullptr);
}

TEST(Paths, RegisterToOutputDirect) {
  Netlist n("ro");
  auto r = n.add_register("MARpage", 4);
  auto out = n.add_output("AddrHi", 4);
  n.connect(n.reg_q(r), n.pin(out));
  auto paths = enumerate_transfer_paths(n);
  const auto* p = find_path(paths, n, "MARpage", "AddrHi");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->src.kind, NodeKind::kRegister);
  EXPECT_EQ(p->dst.kind, NodeKind::kOutputPort);
}

TEST(Paths, NodeHelpers) {
  Netlist n("h");
  auto in = n.add_input("A", 8);
  auto r = n.add_register("R", 4);
  auto node_in = port_node(n, in);
  auto node_r = register_node(r);
  EXPECT_EQ(node_in.kind, NodeKind::kInputPort);
  EXPECT_EQ(node_width(n, node_in), 8u);
  EXPECT_EQ(node_width(n, node_r), 4u);
  EXPECT_EQ(node_name(n, node_r), "R");
}

}  // namespace
}  // namespace socet::rtl
