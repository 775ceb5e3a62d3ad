// socet_perfbench — the SOCET performance benchmark.
//
//   socet_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out FILE]
//   socet_perfbench --self-test
//
// Workloads: scan_atpg, seq_grade, seq_atpg, plan_serve (see README.md).
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// computed from spans recorded around every call into a library layer.
// Exit status is 0 only when every correctness check passed.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists BENCHMARK.json declares.  Every run prints every
// metric of its list; a per-layer metric the workload never touches
// reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"atpg.generate_s.CPU", "s"},
    {"atpg.generate_s.PREPROCESSOR", "s"},
    {"atpg.generate_s.DISPLAY", "s"},
    {"atpg.compact_s", "s"},
    {"faultsim.grade_s", "s"},
    {"opt.minimize_tat_s", "s"},
    {"atpg.faults", "count"},
    {"atpg.detected", "count"},
    {"atpg.untestable", "count"},
    {"atpg.aborted", "count"},
    {"atpg.patterns", "count"},
    {"atpg.vectors_kept", "count"},
    {"atpg.abort_ratio", "ratio"},
    {"atpg.kept_ratio", "ratio"},
    {"opt.chip_tat_cycles", "cycles"},
    {"faultsim.seq_run_s.system1.orig", "s"},
    {"faultsim.seq_run_s.system1.scan_en", "s"},
    {"faultsim.seq_run_s.system2.orig", "s"},
    {"faultsim.seq_run_s.system2.scan_en", "s"},
    {"faultsim.seq_detect_ratio.system1.orig", "ratio"},
    {"faultsim.seq_detect_ratio.system1.scan_en", "ratio"},
    {"faultsim.seq_detect_ratio.system2.orig", "ratio"},
    {"faultsim.seq_detect_ratio.system2.scan_en", "ratio"},
    {"atpg.random_sequence_s", "s"},
    {"atpg.seq_generate_s", "s"},
    {"atpg.seq_sequences", "count"},
    {"atpg.seq_aborted", "count"},
    {"atpg.seq_vectors", "count"},
    {"systems.build_s", "s"},
    {"soc.flatten_s", "s"},
    {"synth.elaborate_s", "s"},
    {"service.rtt_p50_ms", "ms"},
    {"service.rtt_p99_ms", "ms"},
    {"service.rtt_repeat_p50_ms", "ms"},
    {"service.rtt_unique_p50_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.queue_hwm", "count"},
    {"service.busy_rejects", "count"},
    {"service.errors", "count"},
    {"service.exec_unique_ms", "ms"},
    {"systems.synthetic_build_ms", "ms"},
    {"soc.plan_ms", "ms"},
    {"trace.span_coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// Set-up layers: summed span time divided by the number of set-ups.
constexpr const char* kSetupLayers[][2] = {
    {"systems.build", "systems.build_s"},
    {"soc.flatten", "soc.flatten_s"},
    {"synth.elaborate", "synth.elaborate_s"},
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "socet_perfbench: %s\n"
               "usage: socet_perfbench --workload "
               "scan_atpg|seq_grade|seq_atpg|plan_serve --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n"
               "       socet_perfbench --self-test\n",
               message);
  std::exit(2);
}

std::string number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  RunOptions options;
  bool trace = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int failed = run_self_tests();
      std::printf("self-test: %s\n", failed == 0 ? "PASS" : "FAIL");
      return failed == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (>0) and --trace are required");
  }

  Outcome (*run)(const RunOptions&, Tracer&) = nullptr;
  if (workload == "scan_atpg") run = &run_scan_atpg;
  if (workload == "seq_grade") run = &run_seq_grade;
  if (workload == "seq_atpg") run = &run_seq_atpg;
  if (workload == "plan_serve") run = &run_plan_serve;
  if (run == nullptr) usage(("unknown workload '" + workload + "'").c_str());

  if (run_self_tests() != 0) {
    std::fprintf(stderr, "socet_perfbench: self-test failed\n");
    return 1;
  }

  Tracer tracer(trace);
  Outcome out;
  try {
    out = run(options, tracer);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "socet_perfbench: %s failed: %s\n", workload.c_str(),
                 error.what());
    return 1;
  }

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, trace ? 1 : 0);
  std::printf("  %-34s %.4f s (median of the set-ups)\n", "setup_s",
              out.setup_s);
  std::printf("  %-34s %.4f s\n", "timed wall", out.timed_s);
  std::printf("  %-34s %llu\n", "ops",
              static_cast<unsigned long long>(out.ops));
  std::printf("  %-34s %llu\n", "failed",
              static_cast<unsigned long long>(out.failed));
  if (out.gave_up != 0) {
    std::printf("  %-34s %llu (faults ATPG gave up on)\n", "aborted",
                static_cast<unsigned long long>(out.gave_up));
  }
  for (const auto& figure : out.report) {
    std::printf("  %-34s %.4f %s\n", figure.name.c_str(), figure.value,
                figure.unit.c_str());
  }
  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  std::printf("  %-34s %s\n", "digest", out.digest.hex().c_str());

  std::map<std::string, double> values;
  if (trace) {
    const auto& spans = tracer.spans();
    values = out.layers;
    double setups = 0;
    for (const Span& span : spans) setups += span.name == "bench.setup";
    for (const auto& [span_name, metric] : kSetupLayers) {
      values[metric] = setups > 0 ? span_seconds(spans, span_name) / setups : 0;
    }
    // Coverage of the timed passes (plan_serve idles between bursts).
    double covered_ns = 0;
    double passes_ns = 0;
    for (const Span& pass : spans) {
      if (pass.name != "bench.pass") continue;
      const auto length = static_cast<double>(pass.end_ns - pass.start_ns);
      covered_ns += length * span_coverage(spans, pass.start_ns, pass.end_ns,
                                           {"bench.pass", "bench.setup"});
      passes_ns += length;
    }
    const double coverage = passes_ns > 0 ? covered_ns / passes_ns : 0;
    std::size_t timed_spans = 0;
    for (const Span& span : spans) {
      timed_spans += span.start_ns >= out.timed_from_ns &&
                     span.start_ns < out.timed_to_ns;
    }
    values["trace.span_coverage_pct"] = 100.0 * coverage;
    values["trace.spans"] = static_cast<double>(timed_spans);
    values["trace.overhead_pct"] = 100.0 * static_cast<double>(timed_spans) *
                                   span_cost_ns() * 1e-9 / out.timed_s;
    if (coverage < 0.9) {
      out.failures.push_back("layer spans cover only " +
                             number(100.0 * coverage) +
                             "% of the timed wall (need >= 90%)");
    }
    if (!trace_out.empty()) {
      std::ofstream file(trace_out, std::ios::binary | std::ios::trunc);
      file << render_spans_jsonl(spans);
      if (!file) out.failures.push_back("cannot write " + trace_out);
    }
  } else {
    values["ops_per_s"] = out.ops_per_s;
    values["setup_s"] = out.setup_s;
    values["peak_rss_mb"] = peak_rss_mb();
  }
  const auto specs = trace ? std::span<const MetricSpec>(kPerLayer)
                           : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : specs) {
    std::printf("  %-42s %.6g %s\n", spec.name, values[spec.name], spec.unit);
  }
  for (const std::string& failure : out.failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.ops);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (const MetricSpec& spec : specs) {
    json += &spec == specs.data() ? "" : ", ";
    json += "\"" + std::string(spec.name) + "\": {\"value\": " +
            number(values[spec.name]) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.failures.empty() ? 0 : 1;
}
