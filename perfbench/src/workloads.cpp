// The four benchmark workloads.  Each one builds its inputs from the seed
// (set-up, repeated and reported as a median), then repeats complete
// passes of its flow until the requested time has passed (plan_serve
// sends one burst of requests per second instead), recording a span
// around every call into a library layer.  Correctness checks run on
// every run; the ones that need extra simulation run after the timed
// loop so they do not count against throughput.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"
#include "socet/atpg/atpg.hpp"
#include "socet/atpg/sequential.hpp"
#include "socet/opt/optimize.hpp"
#include "socet/service/client.hpp"
#include "socet/service/protocol.hpp"
#include "socet/service/server.hpp"
#include "socet/service/service.hpp"
#include "socet/soc/flatten.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/systems/systems.hpp"

namespace perfbench {

namespace {

using socet::faultsim::FaultStatus;

// Set-up is repeated at least kSetupRepeats times and until
// kSetupSeconds have been spent, so even a sub-millisecond set-up
// reports a steady median.
constexpr int kSetupRepeats = 5;
constexpr double kSetupSeconds = 0.25;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Run `build` repeatedly under a `bench.setup` span and keep the last
/// result; the median wall is the reported set-up time.
template <class T>
T repeated_setup(Tracer& tracer, Outcome& out,
                 const std::function<T()>& build) {
  std::vector<double> walls;
  std::optional<T> result;
  double spent = 0;
  while (walls.size() < kSetupRepeats || spent < kSetupSeconds) {
    result.reset();
    ScopedSpan span(tracer, "bench.setup");
    const auto start = Clock::now();
    result.emplace(build());
    walls.push_back(seconds_between(start, Clock::now()));
    spent += walls.back();
  }
  out.setup_s = median(walls);
  return std::move(*result);
}

/// Repeat `pass` until `seconds` have elapsed (at least once); fills the
/// timed-window fields of `out` and returns the number of passes.  Pass
/// `p` receives its own input seed: the run's seed for pass 0, so that
/// pass's outputs (and digest) depend only on the seed, and seeds
/// derived from it for later passes, so a longer run averages over more
/// inputs instead of repeating one.
unsigned timed_passes(double seconds, Tracer& tracer, Outcome& out,
                      std::uint64_t seed,
                      const std::function<void(unsigned, std::uint64_t)>& pass) {
  const auto start = Clock::now();
  out.timed_from_ns = tracer.ns_at(start);
  unsigned passes = 0;
  do {
    ScopedSpan span(tracer, "bench.pass");
    pass(passes, passes == 0 ? seed : splitmix(seed + passes));
    ++passes;
  } while (seconds_between(start, Clock::now()) < seconds);
  const auto stop = Clock::now();
  out.timed_to_ns = tracer.ns_at(stop);
  out.timed_s = seconds_between(start, stop);
  return passes;
}

std::size_t count_status(const std::vector<FaultStatus>& statuses,
                         FaultStatus wanted) {
  return static_cast<std::size_t>(
      std::count(statuses.begin(), statuses.end(), wanted));
}

void digest_statuses(Digest& digest, const std::vector<FaultStatus>& statuses) {
  digest.u64(statuses.size());
  digest.bytes(statuses.data(), statuses.size());
}

void digest_bits(Digest& digest, const socet::util::BitVector& bits) {
  digest.u64(bits.width());
  for (std::size_t i = 0; i < bits.width(); i += 64) {
    std::uint64_t word = 0;
    for (std::size_t b = i; b < std::min(bits.width(), i + 64); ++b) {
      if (bits.get(b)) word |= std::uint64_t{1} << (b - i);
    }
    digest.u64(word);
  }
}

void add_report(Outcome& out, const std::string& name, double value,
                const std::string& unit) {
  out.report.push_back({name, value, unit});
}

double pct(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

}  // namespace

// ---- scan_atpg ---------------------------------------------------------------

Outcome run_scan_atpg(const RunOptions& options, Tracer& tracer) {
  Outcome out;
  struct Setup {
    socet::systems::System system;
    std::vector<socet::synth::Elaboration> elabs;
  };
  Setup setup = repeated_setup<Setup>(tracer, out, [&] {
    Setup s;
    {
      ScopedSpan span(tracer, "systems.build");
      s.system = socet::systems::make_barcode_system();
    }
    for (const auto& core : s.system.cores) {
      ScopedSpan span(tracer, "synth.elaborate");
      s.elabs.push_back(socet::synth::elaborate(core->netlist()));
    }
    return s;
  });

  struct PassResult {
    std::size_t faults = 0, detected = 0, untestable = 0, aborted = 0;
    std::size_t patterns = 0, kept = 0;
    unsigned long long tat = 0;
  };
  PassResult first;
  const unsigned passes = timed_passes(
      options.seconds, tracer, out, options.seed,
      [&](unsigned pass, std::uint64_t seed) {
    PassResult r;
    Digest scratch;
    Digest& digest = pass == 0 ? out.digest : scratch;
    for (std::size_t c = 0; c < setup.system.cores.size(); ++c) {
      auto& core = *setup.system.cores[c];
      const auto& gates = setup.elabs[c].gates;
      socet::atpg::AtpgResult atpg;
      {
        ScopedSpan span(tracer, "atpg.generate." + core.name());
        atpg = socet::atpg::generate_tests(gates, {.seed = seed});
      }
      std::vector<socet::faultsim::ScanPattern> compact;
      {
        ScopedSpan span(tracer, "atpg.compact");
        compact = socet::atpg::compact_patterns(gates, atpg.patterns);
      }
      socet::faultsim::CoverageSummary graded;
      {
        ScopedSpan span(tracer, "faultsim.grade");
        graded = socet::atpg::grade_patterns(gates, compact);
      }
      const std::size_t detected =
          count_status(atpg.statuses, FaultStatus::kDetected);
      if (graded.detected != detected) {
        out.failures.push_back(
            core.name() + ": grade_patterns detects " +
            std::to_string(graded.detected) + " faults on the compacted set, "
            "ATPG reported " + std::to_string(detected));
      }
      r.faults += atpg.faults.size();
      r.detected += detected;
      r.untestable += count_status(atpg.statuses, FaultStatus::kUntestable);
      r.aborted += count_status(atpg.statuses, FaultStatus::kAborted);
      r.patterns += atpg.patterns.size();
      r.kept += compact.size();
      digest.text(core.name());
      digest_statuses(digest, atpg.statuses);
      digest.u64(compact.size());
      for (const auto& pattern : compact) {
        digest_bits(digest, pattern.pi);
        digest_bits(digest, pattern.ppi);
      }
      core.set_scan_vectors(static_cast<unsigned>(compact.size()));
    }
    {
      ScopedSpan span(tracer, "opt.minimize_tat");
      r.tat = socet::opt::minimize_tat(*setup.system.soc, 1'000'000).tat;
    }
    digest.u64(r.tat);
    out.ops += r.faults;
    out.gave_up += r.aborted;
    if (pass == 0) first = r;
  });
  out.ops_per_s = static_cast<double>(out.ops) / out.timed_s;

  add_report(out, "faults_per_s", out.ops_per_s, "1/s");
  add_report(out, "fault_coverage_pct", pct(first.detected, first.faults), "%");
  add_report(out, "test_vectors", static_cast<double>(first.kept), "vectors");
  add_report(out, "chip_tat_cycles", static_cast<double>(first.tat), "cycles");

  const auto& spans = tracer.spans();
  const double per_pass = 1.0 / passes;
  for (const auto& core : setup.system.cores) {
    out.layers["atpg.generate_s." + core->name()] =
        span_seconds(spans, "atpg.generate." + core->name()) * per_pass;
  }
  out.layers["atpg.compact_s"] = span_seconds(spans, "atpg.compact") * per_pass;
  out.layers["faultsim.grade_s"] =
      span_seconds(spans, "faultsim.grade") * per_pass;
  out.layers["opt.minimize_tat_s"] =
      span_seconds(spans, "opt.minimize_tat") * per_pass;
  out.layers["atpg.faults"] = static_cast<double>(first.faults);
  out.layers["atpg.detected"] = static_cast<double>(first.detected);
  out.layers["atpg.untestable"] = static_cast<double>(first.untestable);
  out.layers["atpg.aborted"] = static_cast<double>(first.aborted);
  out.layers["atpg.patterns"] = static_cast<double>(first.patterns);
  out.layers["atpg.vectors_kept"] = static_cast<double>(first.kept);
  out.layers["atpg.abort_ratio"] =
      static_cast<double>(first.aborted) / static_cast<double>(first.faults);
  out.layers["atpg.kept_ratio"] =
      static_cast<double>(first.kept) / static_cast<double>(first.patterns);
  out.layers["opt.chip_tat_cycles"] = static_cast<double>(first.tat);
  return out;
}

// ---- seq_grade ---------------------------------------------------------------

namespace {

/// Each core's HSCAN chains on the flattened chip, with their scan-in
/// pins bound to whatever drives the chain-head port at chip level.  The
/// same helper as bench/common.hpp's, kept here so that editing the
/// artifact benches cannot change what this benchmark measures.
socet::synth::ScanOptions flat_scan_options(
    const socet::soc::Soc& soc, const socet::soc::FlattenResult& flat) {
  socet::synth::ScanOptions scan;
  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    const auto& core = soc.core(c);
    for (const auto& chain : core.hscan().chains) {
      socet::synth::ScanOptions::Chain spec;
      for (auto reg : chain.registers) {
        spec.registers.push_back(flat.chip.find_register(
            core.name() + "." + core.netlist().reg(reg).name));
      }
      const auto& head_name = core.netlist().port(chain.head).name;
      spec.scan_in =
          flat.chip.fu_out(flat.instances[c].port_proxies.at(head_name));
      scan.chains.push_back(std::move(spec));
    }
  }
  return scan;
}

}  // namespace

Outcome run_seq_grade(const RunOptions& options, Tracer& tracer) {
  Outcome out;
  // The two modes of Table 3 and its scan-enable ablation: no DFT at all,
  // and the cores' HSCAN chains with one bonded pin toggling ScanEnable.
  struct Chip {
    std::string label;  ///< "<system>.<mode>"
    socet::synth::Elaboration elab;
    std::vector<socet::faultsim::Fault> faults;
  };
  using Setup = std::vector<Chip>;
  Setup chips = repeated_setup<Setup>(tracer, out, [&] {
    Setup s;
    const std::pair<const char*, socet::systems::System (*)(
                                     const socet::core::CoreCostModels&)>
        makers[] = {{"system1", &socet::systems::make_barcode_system},
                    {"system2", &socet::systems::make_system2}};
    for (const auto& [name, make] : makers) {
      socet::systems::System system;
      {
        ScopedSpan span(tracer, "systems.build");
        system = make({});
      }
      socet::soc::FlattenResult flat;
      {
        ScopedSpan span(tracer, "soc.flatten");
        flat = socet::soc::flatten(*system.soc);
      }
      Chip orig{std::string(name) + ".orig", {}, {}};
      Chip pin{std::string(name) + ".scan_en", {}, {}};
      {
        ScopedSpan span(tracer, "synth.elaborate");
        orig.elab = socet::synth::elaborate(flat.chip);
        pin.elab = socet::synth::elaborate_with_scan(
            flat.chip, flat_scan_options(*system.soc, flat));
      }
      for (Chip* chip : {&orig, &pin}) {
        chip->faults = socet::faultsim::enumerate_faults(chip->elab.gates);
        s.push_back(std::move(*chip));
      }
    }
    return s;
  });

  // Coverage per chip of the first pass (its input is the run's seed).
  std::vector<std::size_t> first_detected;
  std::size_t faults = 0;
  const unsigned passes = timed_passes(
      options.seconds, tracer, out, options.seed,
      [&](unsigned pass, std::uint64_t seed) {
    std::map<std::string, double> coverage;
    for (const Chip& chip : chips) {
      std::vector<socet::util::BitVector> sequence;
      {
        ScopedSpan span(tracer, "atpg.random_sequence");
        sequence = socet::atpg::random_sequence(chip.elab.gates, 96, seed);
      }
      std::vector<FaultStatus> statuses(chip.faults.size(),
                                        FaultStatus::kUndetected);
      {
        ScopedSpan span(tracer, "faultsim.seq_run." + chip.label);
        socet::faultsim::SequentialFaultSim sim(chip.elab.gates);
        sim.run(chip.faults, sequence, statuses);
      }
      const std::size_t detected =
          count_status(statuses, FaultStatus::kDetected);
      coverage[chip.label] = pct(detected, chip.faults.size());
      faults += chip.faults.size();
      if (pass == 0) {
        first_detected.push_back(detected);
        out.digest.text(chip.label);
        digest_statuses(out.digest, statuses);
      }
    }
    // Table 3 / ablation shape: the test pin unlocks >20 points on both.
    for (const char* system : {"system1", "system2"}) {
      const double orig = coverage[std::string(system) + ".orig"];
      const double pin = coverage[std::string(system) + ".scan_en"];
      if (!(pin > orig + 20.0)) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%s: test pin coverage %.2f%% is not >20 points above "
                      "no-DFT coverage %.2f%%",
                      system, pin, orig);
        out.failures.push_back(line);
      }
    }
  });

  std::size_t first_faults = 0;
  std::size_t detected = 0;
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const double total = static_cast<double>(chips[i].faults.size());
    first_faults += chips[i].faults.size();
    detected += first_detected[i];
    out.layers["faultsim.seq_detect_ratio." + chips[i].label] =
        static_cast<double>(first_detected[i]) / total;
    out.layers["faultsim.seq_run_s." + chips[i].label] =
        span_seconds(tracer.spans(), "faultsim.seq_run." + chips[i].label) /
        passes;
    char line[128];
    std::snprintf(line, sizeof(line), "coverage %-16s %6.2f %% of %zu faults",
                  chips[i].label.c_str(),
                  pct(first_detected[i], chips[i].faults.size()),
                  chips[i].faults.size());
    out.notes.push_back(line);
  }
  out.ops = faults;
  out.ops_per_s = static_cast<double>(out.ops) / out.timed_s;
  add_report(out, "faults_per_s", out.ops_per_s, "1/s");
  add_report(out, "fault_coverage_pct", pct(detected, first_faults), "%");

  out.layers["atpg.random_sequence_s"] =
      span_seconds(tracer.spans(), "atpg.random_sequence") / passes;
  return out;
}

// ---- seq_atpg ----------------------------------------------------------------

Outcome run_seq_atpg(const RunOptions& options, Tracer& tracer) {
  Outcome out;
  auto elab = repeated_setup<socet::synth::Elaboration>(
      tracer, out, [&] {
        socet::rtl::Netlist gcd("");
        {
          ScopedSpan span(tracer, "systems.build");
          gcd = socet::systems::make_gcd_rtl();
        }
        ScopedSpan span(tracer, "synth.elaborate");
        return socet::synth::elaborate(gcd);
      });
  socet::atpg::SeqAtpgResult result;  // of the first pass
  const unsigned passes = timed_passes(
      options.seconds, tracer, out, options.seed,
      [&](unsigned pass, std::uint64_t seed) {
    socet::atpg::SeqAtpgResult r;
    {
      ScopedSpan span(tracer, "atpg.seq_generate");
      r = socet::atpg::sequential_atpg(
          elab.gates, {.max_frames = 6, .backtrack_limit = 128,
                       .random_cycles = 64, .seed = seed});
    }
    out.ops += r.faults.size();
    out.gave_up += count_status(r.statuses, FaultStatus::kAborted);
    if (pass == 0) result = std::move(r);
  });

  // Independent check: replay every kept sequence through the sequential
  // fault simulator; together they must detect exactly the faults ATPG
  // reports detected.
  std::vector<FaultStatus> replay(result.faults.size(),
                                  FaultStatus::kUndetected);
  socet::faultsim::SequentialFaultSim sim(elab.gates);
  for (const auto& sequence : result.sequences) {
    sim.run(result.faults, sequence, replay);
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const bool atpg_detected = result.statuses[i] == FaultStatus::kDetected;
    if (atpg_detected != (replay[i] == FaultStatus::kDetected)) ++mismatches;
  }
  if (mismatches != 0) {
    out.failures.push_back("seq_atpg: replaying the returned sequences "
                           "disagrees with ATPG on " +
                           std::to_string(mismatches) + " faults");
  }

  Digest& digest = out.digest;
  digest_statuses(digest, result.statuses);
  std::size_t vectors = 0;
  digest.u64(result.sequences.size());
  for (const auto& sequence : result.sequences) {
    digest.u64(sequence.size());
    for (const auto& vector : sequence) digest_bits(digest, vector);
    vectors += sequence.size();
  }
  const std::size_t detected =
      count_status(result.statuses, FaultStatus::kDetected);
  const std::size_t aborted =
      count_status(result.statuses, FaultStatus::kAborted);
  out.ops_per_s = static_cast<double>(out.ops) / out.timed_s;
  add_report(out, "faults_per_s", out.ops_per_s, "1/s");
  add_report(out, "fault_coverage_pct", pct(detected, result.faults.size()),
             "%");
  add_report(out, "test_vectors", static_cast<double>(vectors), "vectors");

  out.layers["atpg.seq_generate_s"] =
      span_seconds(tracer.spans(), "atpg.seq_generate") / passes;
  out.layers["atpg.seq_sequences"] =
      static_cast<double>(result.sequences.size());
  out.layers["atpg.seq_aborted"] = static_cast<double>(aborted);
  out.layers["atpg.seq_vectors"] = static_cast<double>(vectors);
  return out;
}

// ---- plan_serve --------------------------------------------------------------

namespace {

/// The repeated jobs: every verb of the service on the paper's two
/// systems — a plan per version selection, optimize under area and TAT
/// budgets and under weights, explore, parallel and program.
std::vector<std::string> repeated_jobs() {
  std::vector<std::string> lines;
  for (const char* name : {"barcode", "system2"}) {
    const std::string system = name;
    const auto built = system == "barcode"
                           ? socet::systems::make_barcode_system()
                           : socet::systems::make_system2();
    for (const auto& selection :
         socet::opt::enumerate_selections(*built.soc)) {
      std::string spec;
      for (unsigned v : selection) {
        spec += (spec.empty() ? "" : ",") + std::to_string(v + 1);
      }
      lines.push_back("plan system=" + system + " selection=" + spec);
    }
    for (unsigned budget = 0; budget <= 100; budget += 20) {
      lines.push_back("optimize system=" + system +
                      " area-budget=" + std::to_string(budget));
    }
    for (unsigned budget : {4000, 8000, 16000}) {
      lines.push_back("optimize system=" + system +
                      " tat-budget=" + std::to_string(budget));
    }
    for (const char* w : {"w1=1 w2=0.5", "w1=0.5 w2=1", "w1=1 w2=1"}) {
      lines.push_back("optimize system=" + system + " " + w);
    }
    lines.push_back("plan system=" + system + " pipelined");
    lines.push_back("explore system=" + system);
    lines.push_back("parallel system=" + system);
    lines.push_back("program system=" + system);
  }
  return lines;
}

struct Request {
  std::uint32_t line = 0;  ///< index into the line table
  bool unique = false;
  double rtt_ms = 0;
  std::string response;
};

/// Closed-loop load: `conns` connections, each with one request in
/// flight, all driven from this one thread with poll().
class LoadGenerator {
 public:
  LoadGenerator(unsigned short port, unsigned conns, std::uint64_t seed,
                std::vector<std::string>& lines, std::size_t repeated)
      : rng_(seed), lines_(lines), repeated_(repeated), seed_(seed) {
    for (unsigned c = 0; c < conns; ++c) {
      conns_.push_back({socet::service::net_connect("127.0.0.1", port), {}, {}});
    }
  }
  ~LoadGenerator() {
    for (auto& conn : conns_) ::close(conn.fd);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Issue `total` requests, keeping one in flight per connection.
  std::vector<Request> run(std::size_t total, Tracer& tracer) {
    std::vector<Request> done;
    done.reserve(total);
    std::size_t sent = 0;
    std::size_t inflight = 0;
    for (auto& conn : conns_) {
      if (sent < total) {
        send(conn);
        ++sent;
        ++inflight;
      }
    }
    std::vector<pollfd> fds(conns_.size());
    while (inflight > 0) {
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i] = {conns_[i].fd, conns_[i].busy ? short(POLLIN) : short(0), 0};
      }
      if (::poll(fds.data(), fds.size(), 10'000) <= 0) {
        throw std::runtime_error("daemon stopped answering");
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& conn = conns_[i];
        auto response = socet::service::read_frame(conn.fd);
        const auto now = Clock::now();
        conn.busy = false;
        --inflight;
        Request& request = conn.request;
        request.rtt_ms =
            std::chrono::duration<double, std::milli>(now - conn.sent).count();
        request.response = response ? std::move(*response) : "<closed>";
        tracer.add(request.unique ? "service.request.unique"
                                  : "service.request.repeat",
                   tracer.ns_at(conn.sent), tracer.ns_at(now));
        done.push_back(std::move(request));
        if (!response) throw std::runtime_error("daemon closed a connection");
        if (sent < total) {
          send(conn);
          ++sent;
          ++inflight;
        }
      }
    }
    return done;
  }

 private:
  struct Conn {
    int fd = -1;
    Request request;
    Clock::time_point sent;
    bool busy = false;
  };

  void send(Conn& conn) {
    Request request;
    // One request in each block of five, at a seeded position, names a
    // system no earlier request named: 20% unique in every window.
    if (block_pos_ == 0) unique_pos_ = rng_.next_below(5);
    const bool unique = block_pos_ == unique_pos_;
    block_pos_ = (block_pos_ + 1) % 5;
    if (unique) {
      request.unique = true;
      request.line = static_cast<std::uint32_t>(lines_.size());
      lines_.push_back("plan system=synthetic:" +
                       std::to_string(splitmix(seed_) + unique_++) + ":6");
    } else {
      request.line = static_cast<std::uint32_t>(rng_.next_below(repeated_));
    }
    conn.request = std::move(request);
    conn.sent = Clock::now();
    conn.busy = true;
    socet::service::write_frame(conn.fd, lines_[conn.request.line]);
  }

  socet::util::Rng rng_;
  std::vector<std::string>& lines_;
  std::size_t repeated_;
  std::uint64_t seed_;
  std::uint64_t unique_ = 0;
  std::uint64_t block_pos_ = 0;
  std::uint64_t unique_pos_ = 0;
  std::vector<Conn> conns_;
};

double p50(const std::vector<Request>& requests, int unique) {
  std::vector<double> rtts;
  for (const Request& r : requests) {
    if (unique < 0 || r.unique == (unique == 1)) rtts.push_back(r.rtt_ms);
  }
  return median(rtts);
}

}  // namespace

Outcome run_plan_serve(const RunOptions& options, Tracer& tracer) {
  // The load is one burst of kBurst requests per second of --seconds,
  // each burst a closed loop on the two connections.  The request count
  // is fixed, not a deadline: every unique job adds a system to the
  // daemon's never-evicting per-worker tables, so a fixed count keeps
  // memory (and the work measured) the same however fast the daemon
  // answers.  Spreading the bursts over the whole window samples the
  // shared host at many moments; throughput is the median burst rate.
  constexpr std::size_t kBurst = 1500;
  Outcome out;
  std::vector<std::string> lines = repeated_jobs();
  const std::size_t repeated = lines.size();

  // Set-up: start the daemon (2 workers + its event loop; with this
  // driving thread that is 4 threads) and warm its cache with one pass
  // over the repeated jobs, two in flight as under the load, so the
  // queue high-water mark stays the load's.
  auto start_daemon = [&] {
    socet::service::ServerOptions server_options;
    server_options.threads = 2;
    auto server = std::make_unique<socet::service::Server>(server_options);
    ScopedSpan span(tracer, "service.warm");
    server->start();
    socet::service::ClientOptions client_options;
    client_options.port = server->port();
    client_options.window = 2;
    socet::service::Client client(client_options);
    const auto warm = client.run_lines(
        {lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(repeated)});
    if (warm.errors != 0 || warm.busy != 0) {
      throw std::runtime_error("the warm-up pass got error or busy responses");
    }
    return server;
  };
  auto server = repeated_setup<std::unique_ptr<socet::service::Server>>(
      tracer, out, start_daemon);

  const auto before = server->stats();
  std::vector<Request> requests;
  std::vector<double> burst_rates;
  {
    LoadGenerator load(server->port(), 2, options.seed, lines, repeated);
    const auto bursts =
        static_cast<unsigned>(std::max(1.0, std::round(options.seconds)));
    const auto start = Clock::now();
    out.timed_from_ns = tracer.ns_at(start);
    for (unsigned b = 0; b < bursts; ++b) {
      std::this_thread::sleep_until(start + std::chrono::seconds(b));
      ScopedSpan span(tracer, "bench.pass");
      const auto from = Clock::now();
      auto done = load.run(kBurst, tracer);
      const double wall = seconds_between(from, Clock::now());
      out.timed_s += wall;
      burst_rates.push_back(static_cast<double>(kBurst) / wall);
      std::move(done.begin(), done.end(), std::back_inserter(requests));
    }
    out.timed_to_ns = tracer.now_ns();
  }
  const auto after = server->stats();
  server->request_drain();
  server->wait();

  std::vector<double> rtts;
  for (const Request& r : requests) {
    rtts.push_back(r.rtt_ms);
    if (r.response.rfind("ok ", 0) != 0) ++out.failed;
  }
  out.ops = requests.size();
  out.ops_per_s = median(burst_rates);

  // Independent check: every response must be byte-identical to a local
  // PlanningService run of the same line.
  // The k-th request sent always carries the same line, whichever
  // connection sends it, so the lines in table order are fixed by the
  // seed; completion order is not.
  std::vector<std::string> distinct;
  std::vector<std::int64_t> slot(lines.size(), -1);
  for (const Request& r : requests) slot[r.line] = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (slot[i] < 0) continue;
    slot[i] = static_cast<std::int64_t>(distinct.size());
    distinct.push_back(lines[i]);
  }
  std::vector<std::string> expected;
  {
    socet::service::PlanningService local({.threads = 2});
    for (const auto& result : local.run_lines(distinct).results) {
      const auto space = result.record.find(' ', 4);  // after "job <n>"
      expected.push_back(result.record.substr(space + 1));
    }
  }
  std::size_t mismatches = 0;
  for (const Request& r : requests) {
    if (r.response != expected[static_cast<std::size_t>(slot[r.line])]) {
      if (mismatches++ == 0) {
        out.notes.push_back("first mismatch: '" + lines[r.line] + "' -> '" +
                            r.response + "'");
      }
    }
  }
  for (const std::string& record : expected) out.digest.text(record);
  if (mismatches != 0) {
    out.failures.push_back(std::to_string(mismatches) +
                           " daemon responses differ from a local "
                           "PlanningService run");
  }

  const auto p99 = tail_percentile(rtts, 99);
  add_report(out, "serve_jobs_per_s", out.ops_per_s, "1/s");
  add_report(out, "serve_p50_ms", median(rtts), "ms");
  if (p99) {
    char label[64];
    std::snprintf(label, sizeof(label), "serve_p99_ms (p%g of %zu samples)",
                  p99->percentile, p99->samples);
    add_report(out, label, p99->value, "ms");
  }
  const auto hits = after.cache.hits - before.cache.hits;
  const auto misses = after.cache.misses - before.cache.misses;
  out.layers["service.rtt_p50_ms"] = median(rtts);
  out.layers["service.rtt_p99_ms"] = p99 ? p99->value : 0;
  out.layers["service.rtt_repeat_p50_ms"] = p50(requests, 0);
  out.layers["service.rtt_unique_p50_ms"] = p50(requests, 1);
  out.layers["service.cache_hit_ratio"] =
      hits + misses == 0 ? 0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  out.layers["service.queue_hwm"] = static_cast<double>(after.queue_depth_hwm);
  out.layers["service.busy_rejects"] =
      static_cast<double>(after.busy_rejects - before.busy_rejects);
  out.layers["service.errors"] =
      static_cast<double>(after.errors - before.errors);

  // Split a unique job's cost by timing direct calls on the same lines:
  // the executor path, system construction, and planning alone.
  if (tracer.enabled()) {
    std::vector<double> exec_ms, build_ms, plan_ms;
    socet::service::PlanCache cache(4096, 0);
    socet::service::Executor executor(cache);
    std::uint64_t sampled = 0;
    for (const Request& r : requests) {
      if (!r.unique || sampled == 64) continue;
      ++sampled;
      const std::string& line = lines[r.line];
      auto t0 = Clock::now();
      executor.run_line(line, sampled);
      exec_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      const auto seed = std::stoull(line.substr(line.find(':') + 1));
      t0 = Clock::now();
      socet::systems::SyntheticSocOptions soc_options;
      soc_options.cores = 6;
      auto system = socet::systems::make_synthetic_system(seed, soc_options);
      build_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      const std::vector<unsigned> selection(system.soc->cores().size(), 0);
      t0 = Clock::now();
      (void)socet::soc::plan_chip_test(*system.soc, selection);
      plan_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    out.layers["service.exec_unique_ms"] = median(exec_ms);
    out.layers["systems.synthetic_build_ms"] = median(build_ms);
    out.layers["soc.plan_ms"] = median(plan_ms);
  }
  return out;
}

}  // namespace perfbench
