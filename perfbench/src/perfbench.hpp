// Shared pieces of the SOCET performance benchmark: the span recorder
// and its writer, the percentile helper, the output digest, and the
// workload interface.  Everything here belongs to the benchmark, not to
// the library: spans are recorded around calls into the library, never
// inside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);

// ---- spans -----------------------------------------------------------------

/// One recorded interval.  Times are integer nanoseconds since the
/// tracer's epoch, so a span that starts hours into a run keeps
/// nanosecond resolution.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
};

/// In-memory span recorder.  When disabled, every call is a no-op and
/// reads no clock, so the untraced run pays nothing.  Not thread-safe:
/// every workload records from its one driving thread.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::int64_t ns_at(Clock::time_point t) const;

  /// Open a span nested under the innermost open one; returns its id.
  std::uint32_t begin(std::string_view name);
  void end(std::uint32_t id);
  /// Record a finished span with explicit times (requests that overlap
  /// on several connections cannot nest), parented on the innermost
  /// open span.
  void add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// One JSON object per line: {"name":..,"id":..,"parent":..,
/// "start_ns":..,"end_ns":..}.  Timestamps are written as integers.
std::string render_spans_jsonl(const std::vector<Span>& spans);

/// Summed duration (seconds) of every span with this exact name.
double span_seconds(const std::vector<Span>& spans, std::string_view name);

/// Share of [from_ns, to_ns) covered by the union of the given spans'
/// intervals, excluding spans named in `exclude`.
double span_coverage(const std::vector<Span>& spans, std::int64_t from_ns,
                     std::int64_t to_ns,
                     const std::vector<std::string>& exclude);

/// Cost of one begin/end pair on this host, in nanoseconds (calibrated
/// on a scratch tracer) — multiplied by the span count it estimates the
/// recorder's share of a traced run.
double span_cost_ns();

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> values);

/// A tail percentile that the sample supports.
struct Tail {
  double percentile = 0;  ///< e.g. 99
  double value = 0;
  std::size_t samples = 0;
};

/// The highest percentile, among 99.9/99/95/90/75/50 and at most
/// `wanted`, with at least ten samples strictly beyond its nearest-rank
/// position.  nullopt when even the median lacks ten samples beyond it.
std::optional<Tail> tail_percentile(std::vector<double> values, double wanted);

// ---- output digest ---------------------------------------------------------

/// 64-bit FNV-1a, fed incrementally.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t value);
  void text(std::string_view value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---- workloads -------------------------------------------------------------

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
};

/// What one workload run measured.  Metrics are keyed by name; main()
/// maps them onto the fixed metric lists (a per-layer metric a workload
/// does not touch reads 0 there).
struct Outcome {
  std::vector<std::string> failures;  ///< failed correctness checks
  std::uint64_t ops = 0;              ///< operations attempted
  std::uint64_t failed = 0;           ///< operations that errored
  /// The workload's own "failed" count as its layer defines it: aborted
  /// faults for the ATPG workloads (printed, not fatal).
  std::uint64_t gave_up = 0;
  double setup_s = 0;
  double timed_s = 0;  ///< wall of the timed passes (bursts), summed
  std::int64_t timed_from_ns = 0;  ///< first pass start, tracer time
  std::int64_t timed_to_ns = 0;    ///< last pass end, tracer time
  /// Throughput in the workload's own operation (faults or jobs).
  double ops_per_s = 0;
  /// Workload-specific user-facing figures, printed by name with unit.
  struct Figure {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Figure> report;
  /// Per-layer figures by name (units come from the fixed list).
  std::map<std::string, double> layers;
  /// Over the outputs of the run's first pass (fixed by the seed).
  Digest digest;
  std::vector<std::string> notes;  ///< extra printed lines
};

Outcome run_scan_atpg(const RunOptions& options, Tracer& tracer);
Outcome run_seq_grade(const RunOptions& options, Tracer& tracer);
Outcome run_seq_atpg(const RunOptions& options, Tracer& tracer);
Outcome run_plan_serve(const RunOptions& options, Tracer& tracer);

/// Benchmark self-tests (trace writer precision, percentile helper,
/// digest); returns the number of failed checks.
int run_self_tests();

}  // namespace perfbench
