#include <gtest/gtest.h>

#include "socet/core/serialize.hpp"
#include <cstdint>
#include <cstdio>

#include "socet/soc/schedule.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/systems/systems.hpp"

namespace socet::core {
namespace {

TEST(Serialize, RoundTripPreservesEverything) {
  Core cpu = Core::prepare(systems::make_cpu_rtl());
  cpu.set_scan_vectors(110);

  const std::string text = serialize_interface(cpu);
  auto parsed = parse_interface(text);
  Core restored = Core::from_interface(parsed);

  EXPECT_EQ(restored.name(), cpu.name());
  EXPECT_EQ(restored.scan_vectors(), cpu.scan_vectors());
  EXPECT_EQ(restored.hscan_overhead_cells(), cpu.hscan_overhead_cells());
  EXPECT_EQ(restored.hscan().max_depth, cpu.hscan().max_depth);
  EXPECT_EQ(restored.fscan_overhead_cells(), cpu.fscan_overhead_cells());
  EXPECT_EQ(restored.flip_flop_count(), cpu.flip_flop_count());
  EXPECT_EQ(restored.hscan_vectors(), cpu.hscan_vectors());
  EXPECT_EQ(restored.total_port_bits(), cpu.total_port_bits());

  ASSERT_EQ(restored.version_count(), cpu.version_count());
  for (std::size_t v = 0; v < cpu.version_count(); ++v) {
    const auto& a = cpu.version(v);
    const auto& b = restored.version(v);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.extra_cells, b.extra_cells);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t e = 0; e < a.edges.size(); ++e) {
      EXPECT_EQ(a.edges[e].input, b.edges[e].input);
      EXPECT_EQ(a.edges[e].output, b.edges[e].output);
      EXPECT_EQ(a.edges[e].latency, b.edges[e].latency);
      EXPECT_EQ(a.edges[e].serial_group, b.edges[e].serial_group);
      EXPECT_EQ(a.edges[e].via_added_mux, b.edges[e].via_added_mux);
    }
  }
}

TEST(Serialize, SerializationIsStable) {
  Core cpu = Core::prepare(systems::make_cpu_rtl());
  cpu.set_scan_vectors(42);
  const std::string once = serialize_interface(cpu);
  Core restored = Core::from_interface(parse_interface(once));
  EXPECT_EQ(serialize_interface(restored), once) << "not a fixpoint";
}

TEST(Serialize, HardCorePlansIdenticallyToSoftCore) {
  // The integrator's whole point: a chip planned against shipped
  // interfaces must produce the same schedule as one planned against the
  // full cores.
  auto soft = systems::make_barcode_system();
  const std::vector<unsigned> selection(soft.soc->cores().size(), 0);
  auto soft_plan = soc::plan_chip_test(*soft.soc, selection);

  // Rebuild the SOC from serialized interfaces only.
  std::vector<std::unique_ptr<Core>> hard_cores;
  for (const auto& core : soft.cores) {
    hard_cores.push_back(std::make_unique<Core>(
        Core::from_interface(parse_interface(serialize_interface(*core)))));
  }
  soc::Soc chip("System1-hard");
  auto cpu = chip.add_core(hard_cores[0].get());
  auto pre = chip.add_core(hard_cores[1].get());
  auto disp = chip.add_core(hard_cores[2].get());
  auto video = chip.add_pi("Video", 1);
  auto num = chip.add_pi("NUM", 8);
  auto reset = chip.add_pi("Reset", 1);
  auto cpu_reset = chip.add_pi("CpuReset", 1);
  chip.connect(video, pre, "Video");
  chip.connect(num, pre, "NUM");
  chip.connect(reset, pre, "Reset");
  chip.connect(cpu_reset, cpu, "Reset");
  chip.connect(pre, "DB", cpu, "Data");
  chip.connect(pre, "Eoc", cpu, "Interrupt");
  chip.connect(cpu, "AddrLo", disp, "ALo");
  chip.connect(cpu, "AddrHi", disp, "AHi");
  chip.connect(pre, "DB", disp, "D");
  for (int i = 1; i <= 6; ++i) {
    auto po = chip.add_po("PO-PORT" + std::to_string(i), 7);
    chip.connect(disp, "PORT" + std::to_string(i), po);
  }
  chip.validate();

  auto hard_plan = soc::plan_chip_test(chip, selection);
  EXPECT_EQ(hard_plan.total_tat, soft_plan.total_tat);
  EXPECT_EQ(hard_plan.total_overhead_cells(),
            soft_plan.total_overhead_cells());
}

TEST(Serialize, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_interface(""), util::Error);
  EXPECT_THROW(parse_interface("garbage v1\nend\n"), util::Error);
  EXPECT_THROW(parse_interface("socet-core-interface v2\nend\n"),
               util::Error);
  EXPECT_THROW(parse_interface("socet-core-interface v1\ncore X\n"),
               util::Error)
      << "missing end";
  EXPECT_THROW(
      parse_interface("socet-core-interface v1\ncore X\nwtf 3\nend\n"),
      util::Error);
  EXPECT_THROW(
      parse_interface("socet-core-interface v1\ncore X\n"
                      "edge A B 1 0 0\nend\n"),
      util::Error)
      << "edge before version";
  EXPECT_THROW(
      parse_interface("socet-core-interface v1\ncore X\n"
                      "version V 1\nedge A B 1 0 0\nend\n"),
      util::Error)
      << "unknown port";
  EXPECT_THROW(
      parse_interface("socet-core-interface v1\ncore X\n"
                      "port A in data 0\nend\n"),
      util::Error)
      << "zero-width port";
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "socet-core-interface v1\n"
      "# a hard core\n"
      "core MINI\n"
      "\n"
      "flip_flops 8   # two registers\n"
      "scan_vectors 5\n"
      "hscan 4 2\n"
      "fscan 24\n"
      "port IN in data 8\n"
      "port OUT out data 8\n"
      "version Version_1 3\n"
      "edge IN OUT 2 -1 0\n"
      "end\n";
  auto parsed = parse_interface(text);
  EXPECT_EQ(parsed.name, "MINI");
  EXPECT_EQ(parsed.flip_flops, 8u);
  ASSERT_EQ(parsed.versions.size(), 1u);
  EXPECT_EQ(parsed.versions[0].name, "Version 1");
  ASSERT_EQ(parsed.versions[0].edges.size(), 1u);
  EXPECT_EQ(parsed.versions[0].edges[0].latency, 2u);
  EXPECT_EQ(parsed.versions[0].edges[0].serial_group, -1);
}

TEST(Serialize, FromInterfaceValidates) {
  CoreInterface bad;
  EXPECT_THROW(Core::from_interface(bad), util::Error);
  bad.name = "X";
  EXPECT_THROW(Core::from_interface(bad), util::Error) << "no versions";
}

// Exactness oracle for the provider-side flow: HSCAN chains, RCG, version
// menus.  The digest pins every serialized core of 300 synthetic systems
// (1 to 8 cores each) plus Systems 1 and 2, in build order, so any change
// to Core::prepare that alters a latency, a serial group, a mux count or
// an overhead anywhere shows up here.
TEST(Serialize, PreparedCoresMatchGoldenDigest) {
  std::uint64_t hash = 1469598103934665603ull;
  auto feed = [&](const systems::System& system) {
    for (const auto& core : system.cores) {
      for (const char c : serialize_interface(*core)) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
      }
    }
  };
  for (unsigned i = 0; i < 300; ++i) {
    systems::SyntheticSocOptions options;
    options.cores = 1 + i % 8;
    feed(systems::make_synthetic_system(7777 + 31 * i, options));
  }
  feed(systems::make_barcode_system());
  feed(systems::make_system2());
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  EXPECT_STREQ(hex, "94beb358bae5f447");
}

}  // namespace
}  // namespace socet::core
