// socet_bench — benchmark runner and perf-trajectory regression gate.
//
//   socet_bench [--bin-dir DIR] [--filter a,b,c] [--repeat N]
//               [--out-dir DIR] [--label TEXT]
//               [--check FILE --tolerance-pct P]
//               [--update-baseline FILE] [--list]
//
// Discovers every `bench_*` executable under --bin-dir, runs each one
// --repeat times as a subprocess (stdout discarded, stderr captured),
// parses the machine-readable `BENCH_<name>.json` stderr line each
// bench emits (bench/report.hpp), and reports min/median/IQR wall time
// plus child rusage (peak RSS, user/system CPU).  Each bench gets one
// `BENCH_<name>.json` trajectory file in --out-dir (the repo root, by
// convention) with one point appended per harness run, so the perf
// trajectory of a branch is a set of small diffable JSON files.
//
// `--check bench/baseline.json --tolerance-pct 25` exits nonzero when
// any bench's median exceeds its baseline by more than the tolerance
// plus the run's own IQR (noise-adjusted), or when a bench fails
// outright.  Benches whose line carries `"skipped":true` (e.g. the
// service-throughput speedup gate on small hosts) are excluded from
// the gate instead of polluting the trajectory.  Schemas and the
// refresh workflow: docs/BENCHMARKS.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "socet/obs/benchgate.hpp"
#include "socet/obs/traceanalyze.hpp"
#include "socet/util/table.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace {

using namespace socet;
using obs::bench::BenchLine;
using obs::bench::CheckOutcome;
using obs::bench::RunRecord;

struct Options {
  std::string bin_dir = "bench";
  std::string out_dir = ".";
  std::string check_path;
  std::string update_baseline_path;
  std::string label;
  std::vector<std::string> filter;  // bench names, `bench_` prefix optional
  unsigned repeat = 3;
  double tolerance_pct = 25.0;
  bool list_only = false;
  bool capture_traces = false;  ///< attribution re-run on gate failure
};

int usage() {
  std::fprintf(
      stderr,
      "usage: socet_bench [options]\n"
      "  --bin-dir DIR          directory with bench_* binaries (default\n"
      "                         ./bench, i.e. run from the build dir)\n"
      "  --filter a,b,c         only these benches (names with or without\n"
      "                         the bench_ prefix)\n"
      "  --repeat N             repeats per bench (default 3)\n"
      "  --out-dir DIR          where BENCH_<name>.json trajectory files\n"
      "                         go (default ., i.e. run from the repo root)\n"
      "  --label TEXT           label for this trajectory point (e.g. a\n"
      "                         git SHA)\n"
      "  --check FILE           compare against a baseline; exit 1 on a\n"
      "                         noise-adjusted regression or bench failure\n"
      "  --tolerance-pct P      regression tolerance for --check\n"
      "                         (default 25)\n"
      "  --update-baseline FILE write medians as the new baseline\n"
      "  --capture-traces       when the --check gate fails, re-run each\n"
      "                         regressed bench once with tracing on\n"
      "                         (TRACE_<name>.json in --out-dir) and print\n"
      "                         a per-stage attribution table naming the\n"
      "                         guilty stage\n"
      "  --list                 list discovered benches and exit\n");
  return 2;
}

bool parse_options(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      out->list_only = true;
    } else if (arg == "--capture-traces") {
      out->capture_traces = true;
    } else if (arg == "--bin-dir") {
      const char* v = value();
      if (v == nullptr) return false;
      out->bin_dir = v;
    } else if (arg == "--out-dir") {
      const char* v = value();
      if (v == nullptr) return false;
      out->out_dir = v;
    } else if (arg == "--check") {
      const char* v = value();
      if (v == nullptr) return false;
      out->check_path = v;
    } else if (arg == "--update-baseline") {
      const char* v = value();
      if (v == nullptr) return false;
      out->update_baseline_path = v;
    } else if (arg == "--label") {
      const char* v = value();
      if (v == nullptr) return false;
      out->label = v;
    } else if (arg == "--filter") {
      const char* v = value();
      if (v == nullptr) return false;
      std::stringstream stream(v);
      std::string token;
      while (std::getline(stream, token, ',')) {
        if (!token.empty()) out->filter.push_back(token);
      }
    } else if (arg == "--repeat") {
      const char* v = value();
      if (v == nullptr) return false;
      out->repeat = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      if (out->repeat == 0) return false;
    } else if (arg == "--tolerance-pct") {
      const char* v = value();
      if (v == nullptr) return false;
      out->tolerance_pct = std::strtod(v, nullptr);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// `bench_foo` -> `foo`; filters accept either spelling.
std::string strip_prefix(const std::string& binary) {
  return binary.rfind("bench_", 0) == 0 ? binary.substr(6) : binary;
}

bool filter_matches(const Options& options, const std::string& binary) {
  if (options.filter.empty()) return true;
  const std::string bare = strip_prefix(binary);
  return std::find(options.filter.begin(), options.filter.end(), binary) !=
             options.filter.end() ||
         std::find(options.filter.begin(), options.filter.end(), bare) !=
             options.filter.end();
}

std::vector<std::string> discover_benches(const std::string& bin_dir) {
  std::vector<std::string> names;
  DIR* dir = ::opendir(bin_dir.c_str());
  if (dir == nullptr) return names;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.rfind("bench_", 0) != 0) continue;
    const std::string path = bin_dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    if (::access(path.c_str(), X_OK) != 0) continue;
    names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

struct ChildResult {
  int exit_code = -1;
  std::string stderr_text;
  std::int64_t max_rss_kb = 0;
  double utime_ms = 0;
  double stime_ms = 0;
};

/// Run one bench binary: stdout to /dev/null (the human tables are not
/// ours to parse), stderr through a pipe, rusage via wait4.  A
/// non-empty `trace_path` exports SOCET_BENCH_TRACE to the child so it
/// records spans and writes a Chrome trace there (bench/report.hpp).
bool run_child(const std::string& path, ChildResult* out,
               const std::string& trace_path = "") {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(pipe_fds[0]);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::close(pipe_fds[1]);
    if (!trace_path.empty()) {
      ::setenv("SOCET_BENCH_TRACE", trace_path.c_str(), 1);
    }
    ::execl(path.c_str(), path.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(pipe_fds[1]);
  out->stderr_text.clear();
  char buffer[4096];
  ssize_t got = 0;
  while ((got = ::read(pipe_fds[0], buffer, sizeof(buffer))) > 0) {
    out->stderr_text.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  rusage usage{};
  if (::wait4(pid, &status, 0, &usage) != pid) return false;
  out->exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#if defined(__APPLE__)
  out->max_rss_kb = usage.ru_maxrss / 1024;
#else
  out->max_rss_kb = usage.ru_maxrss;
#endif
  out->utime_ms = static_cast<double>(usage.ru_utime.tv_sec) * 1e3 +
                  static_cast<double>(usage.ru_utime.tv_usec) / 1e3;
  out->stime_ms = static_cast<double>(usage.ru_stime.tv_sec) * 1e3 +
                  static_cast<double>(usage.ru_stime.tv_usec) / 1e3;
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return out.good();
}

/// Run one bench --repeat times and fold the repeats into a RunRecord.
/// Returns false only when the bench never produced a parseable line.
bool measure_bench(const Options& options, const std::string& binary,
                   RunRecord* record, std::string* error) {
  const std::string path = options.bin_dir + "/" + binary;
  std::vector<double> wall_samples;
  std::vector<double> utimes;
  std::vector<double> stimes;
  *record = RunRecord();
  record->name = strip_prefix(binary);
  for (unsigned r = 0; r < options.repeat; ++r) {
    ChildResult child;
    if (!run_child(path, &child)) {
      *error = "failed to spawn " + path;
      return false;
    }
    BenchLine line;
    if (!obs::bench::parse_bench_line(child.stderr_text, &line, error)) {
      return false;
    }
    record->name = line.name;
    record->ok = line.ok && child.exit_code == 0;
    record->skipped = record->skipped || line.skipped;
    record->extra = line.extra;
    wall_samples.push_back(line.wall_ms);
    utimes.push_back(child.utime_ms);
    stimes.push_back(child.stime_ms);
    record->max_rss_kb = std::max(record->max_rss_kb, child.max_rss_kb);
    if (!record->ok) break;  // no point repeating a failing bench
  }
  record->wall_ms = obs::bench::summarize_repeats(wall_samples);
  record->utime_ms = obs::bench::summarize_repeats(utimes).median;
  record->stime_ms = obs::bench::summarize_repeats(stimes).median;
  return true;
}

/// --capture-traces: re-run one regressed bench with tracing on and
/// print a per-stage wall-time attribution table, so the gate names
/// the guilty stage instead of leaving a human to open the trace.
/// Diagnostic only — a failed re-run prints a note, never flips the
/// gate verdict (the regression already did that).
void attribute_regression(const Options& options, const std::string& name) {
  const std::string path = options.bin_dir + "/bench_" + name;
  const std::string trace_path = options.out_dir + "/TRACE_" + name + ".json";
  std::fprintf(stderr, "re-running bench_%s with tracing for attribution...\n",
               name.c_str());
  ChildResult child;
  if (!run_child(path, &child, trace_path)) {
    std::printf("attribution: could not re-run bench_%s\n", name.c_str());
    return;
  }
  obs::analyze::TraceData trace;
  std::string error;
  if (!obs::analyze::load_trace(read_file(trace_path), &trace, &error)) {
    std::printf("attribution: bench_%s trace unreadable: %s\n", name.c_str(),
                error.c_str());
    return;
  }
  const obs::analyze::Aggregate agg = obs::analyze::aggregate({trace});
  util::Table table({"stage", "spans", "total (ms)", "self (ms)", "share %"});
  double self_total = 0;
  for (const obs::analyze::NameStats& stage : agg.by_stage) {
    self_total += static_cast<double>(stage.self_ns);
  }
  const auto ms = [](std::int64_t ns) {
    return util::Table::num(static_cast<double>(ns) / 1e6, 2);
  };
  const auto share = [self_total](std::int64_t ns) {
    return util::Table::num(
        self_total <= 0 ? 0 : 100.0 * static_cast<double>(ns) / self_total, 1);
  };
  // by_stage is total-sorted; rank by self so a slow leaf beats the
  // root span that merely contains it (same reasoning as diff()).
  std::vector<obs::analyze::NameStats> stages = agg.by_stage;
  std::sort(stages.begin(), stages.end(),
            [](const obs::analyze::NameStats& a,
               const obs::analyze::NameStats& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  for (const obs::analyze::NameStats& stage : stages) {
    table.add_row({stage.name, std::to_string(stage.count), ms(stage.total_ns),
                   ms(stage.self_ns), share(stage.self_ns)});
  }
  std::printf("\nper-stage attribution for bench_%s (trace: %s):\n%s",
              name.c_str(), trace_path.c_str(), table.to_text().c_str());
  if (!stages.empty()) {
    std::printf("guilty stage: %s (%s ms self, %s%% of traced time)\n",
                stages.front().name.c_str(), ms(stages.front().self_ns).c_str(),
                share(stages.front().self_ns).c_str());
  }
}

const char* verdict_text(CheckOutcome::Verdict verdict) {
  switch (verdict) {
    case CheckOutcome::Verdict::kPass: return "pass";
    case CheckOutcome::Verdict::kRegression: return "REGRESSION";
    case CheckOutcome::Verdict::kFailed: return "FAILED";
    case CheckOutcome::Verdict::kSkipped: return "skipped";
    case CheckOutcome::Verdict::kNoBaseline: return "no-baseline";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, &options)) return usage();

  const auto binaries = discover_benches(options.bin_dir);
  if (binaries.empty()) {
    std::fprintf(stderr, "error: no bench_* executables in '%s'\n",
                 options.bin_dir.c_str());
    return 2;
  }
  if (options.list_only) {
    for (const auto& binary : binaries) {
      if (filter_matches(options, binary)) std::printf("%s\n", binary.c_str());
    }
    return 0;
  }

  // Trajectory files land in out_dir; create it (one level) if absent
  // so `--out-dir artifacts` works on a fresh checkout.
  if (!options.out_dir.empty() && options.out_dir != ".") {
    (void)::mkdir(options.out_dir.c_str(), 0775);
  }

  std::vector<RunRecord> records;
  // Median of each bench's newest comparable trajectory point *before*
  // this run appends its own — feeds the gate's delta-vs-prev column.
  std::map<std::string, double> prev_medians;
  bool all_parsed = true;
  util::Table table({"bench", "wall med (ms)", "iqr", "min", "rss (MB)",
                     "cpu (ms)", "status"});
  for (const auto& binary : binaries) {
    if (!filter_matches(options, binary)) continue;
    std::fprintf(stderr, "running %s x%u...\n", binary.c_str(),
                 options.repeat);
    RunRecord record;
    std::string error;
    if (!measure_bench(options, binary, &record, &error)) {
      std::fprintf(stderr, "error: %s: %s\n", binary.c_str(), error.c_str());
      all_parsed = false;
      continue;
    }
    table.add_row(
        {record.name, util::Table::num(record.wall_ms.median, 2),
         util::Table::num(record.wall_ms.iqr(), 2),
         util::Table::num(record.wall_ms.min, 2),
         util::Table::num(static_cast<double>(record.max_rss_kb) / 1024.0, 1),
         util::Table::num(record.utime_ms + record.stime_ms, 1),
         record.skipped ? "skipped" : (record.ok ? "ok" : "FAIL")});

    const std::string trajectory_path =
        options.out_dir + "/BENCH_" + record.name + ".json";
    const std::string prior = read_file(trajectory_path);
    double prev_ms = 0;
    if (obs::bench::trajectory_last_median(prior, &prev_ms)) {
      prev_medians[record.name] = prev_ms;
    }
    const std::string updated =
        obs::bench::trajectory_json(prior, record, options.label);
    if (!write_file(trajectory_path, updated)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   trajectory_path.c_str());
      all_parsed = false;
    }
    records.push_back(std::move(record));
  }
  std::printf("%s", table.to_text().c_str());

  // Per-bench extra metrics (BenchReport::metric), e.g. the fault-sim
  // kernel speedup inside `scaling`: one compact line per bench so the
  // headline numbers are visible without opening the trajectory files.
  for (const RunRecord& record : records) {
    if (record.extra.empty()) continue;
    std::printf("%s:", record.name.c_str());
    for (const auto& [key, value] : record.extra) {
      std::printf(" %s=%s", key.c_str(), util::Table::num(value, 2).c_str());
    }
    std::printf("\n");
  }

  if (!options.update_baseline_path.empty()) {
    if (!write_file(options.update_baseline_path,
                    obs::bench::baseline_json(records))) {
      std::fprintf(stderr, "error: cannot write baseline '%s'\n",
                   options.update_baseline_path.c_str());
      return 1;
    }
    std::printf("baseline written to %s\n",
                options.update_baseline_path.c_str());
  }

  int status = all_parsed ? 0 : 1;
  for (const RunRecord& record : records) {
    if (!record.ok && !record.skipped) status = 1;
  }

  if (!options.check_path.empty()) {
    obs::bench::Baseline baseline;
    std::string error;
    if (!obs::bench::parse_baseline(read_file(options.check_path), &baseline,
                                    &error)) {
      std::fprintf(stderr, "error: %s: %s\n", options.check_path.c_str(),
                   error.c_str());
      return 2;
    }
    const auto outcomes = obs::bench::check_against_baseline(
        records, baseline, options.tolerance_pct);
    util::Table gate({"bench", "baseline (ms)", "measured (ms)",
                      "vs prev (ms)", "margin (ms)", "iqr allow (ms)",
                      "limit (ms)", "verdict"});
    for (const CheckOutcome& outcome : outcomes) {
      // Drift against the previous trajectory point: visible before it
      // accumulates into a baseline breach.  "-" = no comparable point.
      std::string vs_prev = "-";
      const auto prev = prev_medians.find(outcome.name);
      if (prev != prev_medians.end() &&
          outcome.verdict != CheckOutcome::Verdict::kSkipped) {
        const double delta = outcome.measured_ms - prev->second;
        vs_prev = (delta >= 0 ? "+" : "") + util::Table::num(delta, 2);
      }
      gate.add_row({outcome.name, util::Table::num(outcome.baseline_ms, 2),
                    util::Table::num(outcome.measured_ms, 2), vs_prev,
                    util::Table::num(outcome.margin_ms, 2),
                    util::Table::num(outcome.iqr_allowance_ms, 2),
                    util::Table::num(outcome.limit_ms, 2),
                    verdict_text(outcome.verdict)});
    }
    std::printf("\nregression gate (tolerance %.0f%% + IQR):\n%s",
                options.tolerance_pct, gate.to_text().c_str());
    if (obs::bench::has_regression(outcomes)) {
      std::printf("GATE FAILED\n");
      status = 1;
      if (options.capture_traces) {
        for (const CheckOutcome& outcome : outcomes) {
          if (outcome.verdict != CheckOutcome::Verdict::kRegression) continue;
          attribute_regression(options, outcome.name);
        }
      }
    } else {
      std::printf("gate passed\n");
    }
  }
  return status;
}
