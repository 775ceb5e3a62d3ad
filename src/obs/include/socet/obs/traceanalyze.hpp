// Offline trace analytics — the layer that *reads* what the
// instrumentation writes.
//
// Input: the one Chrome trace flavor the system emits — `X` slices
// linked by hex `args.span`/`args.parent` ids — whether from a local
// `--trace` (trace.cpp), a merged client/daemon trace (tracemerge.cpp)
// or a `socet trace-merge` concatenation of either.  `load_trace`
// builds the span forest from those ids alone; `from_spans` builds the
// same forest straight from in-process SpanRecords (the run report's
// path).  Anything else — B/E pairs, journal JSONL, malformed or
// truncated JSON — is rejected with a message naming the offending
// line or event.  All times are integer nanoseconds; renderings turn
// them into microseconds last (JSON through `json_us`), so late spans
// keep full precision.
//
// Three analyses on top (the `socet trace-analyze` CLI verb renders
// them; socet_bench reuses the aggregation for regression attribution):
//
//  * critical path — per root span (one per job in a merged trace),
//    walk back from the root's end through whichever child gated each
//    instant, yielding a chain of segments that covers [start, end]
//    exactly once.  Every nanosecond of the job's wall time is
//    attributed to exactly one span: self time where the span itself
//    was the frontier, descent where a child was.
//  * aggregation — fold any number of traces/jobs into per-span-name
//    and per-stage latency distributions using the same 64-bucket
//    power-of-two histogram + `bucket_quantile` rank walk the metrics
//    registry uses (metrics.hpp), plus an exact self-time split
//    (children's covered intervals are union-merged, so overlapping
//    children never double-subtract).  Optionally rendered as folded
//    stacks (`a;b;c <self_us>`), flamegraph-compatible.
//  * differential attribution — subtract two aggregates and rank
//    stages by their contribution to the total delta; ties break by
//    name so the ranking is stable run to run.
//
// Stage = the leading `<stage>/` segment of a span name, matching the
// run report's `stages` rollup and docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"

namespace socet::obs::analyze {

/// One normalized span in the forest.
struct Node {
  std::string name;
  int pid = 1;
  int tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      ///< 0 when the slice carries no span id
  std::uint64_t parent = 0;  ///< as declared; 0 = root
  int parent_index = -1;     ///< resolved tree link (-1 = root)
  std::vector<int> children;

  [[nodiscard]] std::int64_t dur_ns() const { return end_ns - start_ns; }
};

/// One parsed trace: the span forest.
struct TraceData {
  std::vector<Node> spans;
  std::vector<int> roots;  ///< indices of parentless spans
};

/// Parse one Chrome trace document into a span forest.  Returns false
/// with a located message on malformed, truncated or non-id-linked
/// (B/E) input; an empty-but-valid trace succeeds with zero spans.
bool load_trace(std::string_view text, TraceData* out,
                std::string* error = nullptr);

/// The forest of in-process records (e.g. `recorded_spans()`), with
/// times relative to the earliest start — exactly what `load_trace`
/// returns for the `chrome_trace_json` rendering of the same records.
TraceData from_spans(const std::vector<SpanRecord>& spans);

/// One segment of a critical path: `[from_ns, to_ns)` was gated by
/// `name` at nesting depth `depth` (0 = the root itself).
struct CriticalStep {
  std::string name;
  int depth = 0;
  std::int64_t from_ns = 0;
  std::int64_t to_ns = 0;

  [[nodiscard]] std::int64_t self_ns() const { return to_ns - from_ns; }
};

/// The critical path of one root span, chronological order.
struct CriticalPath {
  std::string root;
  std::int64_t start_ns = 0;
  std::int64_t total_ns = 0;
  std::vector<CriticalStep> steps;
};

/// Critical paths for every root in the forest, in start order.
std::vector<CriticalPath> critical_paths(const TraceData& trace);

/// Latency distribution of one span name (or one stage) across every
/// analyzed trace.  Quantiles come from the 64-bucket power-of-two
/// rank walk (`bucket_quantile`, observed=true) over nanoseconds,
/// clamped to the exact extremes.
struct NameStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  ///< total minus children's union-merged cover
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
};

/// Aggregation over any number of traces.
struct Aggregate {
  std::size_t traces = 0;
  std::size_t span_count = 0;
  std::uint64_t wall_ns = 0;  ///< sum over traces of (max end - min start)
  std::vector<NameStats> by_name;   ///< sorted by total desc
  std::vector<NameStats> by_stage;  ///< folded by leading segment
  // Daemon runs: the queue-vs-compute split from the synthesized
  // serve/queue / serve/job / serve/respond spans (zero when absent).
  std::uint64_t queue_ns = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t respond_ns = 0;
};

Aggregate aggregate(const std::vector<TraceData>& traces);

/// One stage's contribution to the delta between two aggregates.
/// Times are *self* nanoseconds: self partitions each trace's wall
/// time across stages exactly once, so a slowdown lands on the stage
/// that caused it, not on every enclosing ancestor too.
struct DiffEntry {
  std::string stage;
  std::uint64_t a_ns = 0;
  std::uint64_t b_ns = 0;
  std::int64_t delta_ns = 0;  ///< b - a
  double share_pct = 0;       ///< |delta| / sum(|delta|) * 100 (0 when flat)
};

/// Stages ranked by signed delta descending (largest slowdown first),
/// name-tiebroken for stability.  `guilty` names the top positive
/// contributor ("" when nothing got slower).
struct DiffResult {
  std::uint64_t a_total_ns = 0;
  std::uint64_t b_total_ns = 0;
  std::int64_t delta_ns = 0;
  std::string guilty;
  std::vector<DiffEntry> entries;
};

DiffResult diff(const Aggregate& a, const Aggregate& b);

// --- renderings -------------------------------------------------------

/// Human tables (util::Table) for the CLI: critical path of the
/// slowest root (up to `top` steps), the per-stage and per-name
/// distribution tables (up to `top` rows each), and the queue/compute
/// split when present.
std::string analysis_text(const std::vector<CriticalPath>& paths,
                          const Aggregate& aggregate, std::size_t top);

/// Diff attribution table + guilty-stage headline.
std::string diff_text(const DiffResult& result, std::size_t top);

/// `socet-trace-analysis-v1` JSON document.
std::string analysis_json(const std::vector<CriticalPath>& paths,
                          const Aggregate& aggregate);

/// `socet-trace-diff-v1` JSON document.
std::string diff_json(const DiffResult& result);

/// Folded stacks over the whole forest (`root;child;leaf <self_us>`
/// with integer microseconds, identical paths summed) — the same
/// format the SIGPROF sampler emits, so existing flamegraph tooling
/// applies unchanged.
std::string folded_stacks(const std::vector<TraceData>& traces);

}  // namespace socet::obs::analyze
