#include <gtest/gtest.h>

#include <set>

#include "socet/hscan/hscan.hpp"

namespace socet::hscan {
namespace {

using rtl::FuKind;
using rtl::Netlist;

/// Figure 1-style circuit: IN -> REG1 -> (mux) -> REG2 -> OUT, with an
/// alternative mux input from a constant.
Netlist make_fig1() {
  Netlist n("fig1");
  auto in = n.add_input("IN", 16);
  auto out = n.add_output("OUT", 16);
  auto r1 = n.add_register("REG1", 16);
  auto r2 = n.add_register("REG2", 16);
  auto m = n.add_mux("M", 16, 2);
  auto k = n.add_constant("K", util::BitVector(16, 0));
  n.connect(n.pin(in), n.reg_d(r1));
  n.connect(n.reg_q(r1), n.mux_in(m, 0));
  n.connect(n.const_out(k), n.mux_in(m, 1));
  n.connect(n.mux_out(m), n.reg_d(r2));
  n.connect(n.reg_q(r2), n.pin(out));
  return n;
}

TEST(Hscan, ReusesExistingPathsOnFig1) {
  auto n = make_fig1();
  auto config = build_hscan(n, rtl::enumerate_transfer_paths(n));
  ASSERT_EQ(config.chains.size(), 1u);
  const auto& chain = config.chains[0];
  EXPECT_EQ(chain.depth(), 2u);
  ASSERT_EQ(chain.links.size(), 3u);
  // IN->REG1 is direct (1 cell), REG1->REG2 via mux (2 cells),
  // REG2->OUT direct (1 cell).
  EXPECT_EQ(chain.links[0].kind, LinkKind::kDirect);
  EXPECT_EQ(chain.links[1].kind, LinkKind::kMuxPath);
  EXPECT_EQ(chain.links[2].kind, LinkKind::kDirect);
  EXPECT_EQ(config.overhead_cells, 4u);
  EXPECT_EQ(config.max_depth, 2u);
}

TEST(Hscan, EveryRegisterOnExactlyOneChain) {
  Netlist n("multi");
  auto a = n.add_input("A", 8);
  auto b = n.add_input("B", 8);
  auto z1 = n.add_output("Z1", 8);
  auto z2 = n.add_output("Z2", 8);
  std::vector<rtl::RegisterId> regs;
  for (int i = 0; i < 5; ++i) {
    regs.push_back(n.add_register("R" + std::to_string(i), 8));
  }
  // Existing paths: A->R0->R1, B->R2; R3, R4 are isolated (test muxes).
  n.connect(n.pin(a), n.reg_d(regs[0]));
  n.connect(n.reg_q(regs[0]), n.reg_d(regs[1]));
  n.connect(n.pin(b), n.reg_d(regs[2]));
  n.connect(n.reg_q(regs[1]), n.pin(z1));
  n.connect(n.reg_q(regs[2]), n.pin(z2));
  // R3/R4 feed an adder so they exist but have no mux/direct paths.
  auto add = n.add_fu("ADD", FuKind::kAdd, 8, 2);
  n.connect(n.reg_q(regs[3]), n.fu_in(add, 0));
  n.connect(n.reg_q(regs[4]), n.fu_in(add, 1));
  n.connect(n.fu_out(add), n.reg_d(regs[3]));

  auto config = build_hscan(n, rtl::enumerate_transfer_paths(n));
  std::set<unsigned> covered;
  for (const auto& chain : config.chains) {
    for (auto reg : chain.registers) {
      EXPECT_TRUE(covered.insert(reg.value()).second)
          << "register on two chains";
    }
  }
  EXPECT_EQ(covered.size(), 5u);
  for (const auto& reg : regs) EXPECT_TRUE(config.covers(reg));
}

TEST(Hscan, TestMuxCostScalesWithWidth) {
  Netlist n("isolated");
  n.add_input("A", 1);
  n.add_output("Z", 1);
  n.add_register("WIDE", 16);

  HscanCostModel cost;
  cost.test_mux_per_bit = 1;
  auto config = build_hscan(n, rtl::enumerate_transfer_paths(n), cost);
  // Head link: test mux into 16-bit register (16 cells); tail link: test
  // mux onto the 1-bit output (1 cell).
  EXPECT_EQ(config.overhead_cells, 17u);
}

TEST(Hscan, ChainsBalancedAcrossInputs) {
  Netlist n("balance");
  auto a = n.add_input("A", 4);
  auto b = n.add_input("B", 4);
  n.add_output("Z1", 4);
  n.add_output("Z2", 4);
  // Six isolated registers: round-robin should split them 3/3.
  for (int i = 0; i < 6; ++i) n.add_register("R" + std::to_string(i), 4);
  (void)a;
  (void)b;
  auto config = build_hscan(n, rtl::enumerate_transfer_paths(n));
  ASSERT_EQ(config.chains.size(), 2u);
  EXPECT_EQ(config.chains[0].depth(), 3u);
  EXPECT_EQ(config.chains[1].depth(), 3u);
  EXPECT_EQ(config.max_depth, 3u);
}

TEST(Hscan, VectorAccountingMatchesPaperExample) {
  // The paper's DISPLAY: 105 scan vectors, longest chain depth 4
  // -> 525 HSCAN vectors.
  HscanConfig config;
  config.max_depth = 4;
  EXPECT_EQ(config.vector_multiplier(), 5u);
  EXPECT_EQ(config.sequence_length(105), 525u);
}

TEST(Hscan, FscanOverheadPerFlipFlop) {
  auto n = make_fig1();  // 32 flip-flops
  HscanCostModel cost;
  cost.fscan_per_ff = 3;
  EXPECT_EQ(fscan_overhead_cells(n, cost), 96u);
}

TEST(Hscan, HscanCheaperThanFscanOnMuxRichDesign) {
  auto n = make_fig1();
  auto config = build_hscan(n, rtl::enumerate_transfer_paths(n));
  EXPECT_LT(config.overhead_cells, fscan_overhead_cells(n));
}

TEST(Hscan, RequiresPorts) {
  Netlist n("noports");
  n.add_register("R", 4);
  EXPECT_THROW(build_hscan(n, rtl::enumerate_transfer_paths(n)), util::Error);
}

TEST(Hscan, ReusedEdgesExposedForRcg) {
  auto n = make_fig1();
  auto config = build_hscan(n, rtl::enumerate_transfer_paths(n));
  // Three reused hops -> three darkened RCG edges.
  EXPECT_EQ(config.reused_edges.size(), 3u);
}

}  // namespace
}  // namespace socet::hscan
