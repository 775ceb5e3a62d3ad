#include "socet/obs/traceanalyze.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <utility>

#include "socet/obs/jsonin.hpp"
#include "socet/obs/report.hpp"
#include "socet/util/table.hpp"

namespace socet::obs::analyze {

namespace {

/// Deepest tree the critical-path walk will descend; RAII spans nest a
/// few dozen levels at most, so this only stops adversarial inputs.
constexpr int kMaxDepth = 512;

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// json_parse errors end in " at byte N"; prepend the 1-based line it
/// lands on, so a truncated multi-line artifact names the break point.
std::string located(std::string_view text, const std::string& parse_error) {
  const std::string marker = " at byte ";
  const std::size_t at = parse_error.rfind(marker);
  if (at == std::string::npos) return parse_error;
  const std::size_t offset = std::min<std::size_t>(
      std::strtoull(parse_error.c_str() + at + marker.size(), nullptr, 10),
      text.size());
  const auto line = 1 + std::count(text.begin(), text.begin() + offset, '\n');
  return "line " + std::to_string(line) + ": " + parse_error;
}

/// Stage = leading path segment, matching the run report's rollup.
std::string stage_of(const std::string& name) {
  const std::size_t slash = name.find('/');
  return slash == std::string::npos ? name : name.substr(0, slash);
}

/// Largest |ts| or dur accepted, in µs: past 2^53 ns a double number
/// of microseconds no longer resolves nanoseconds.  Bounding inputs
/// also keeps every sum of node times inside int64.
constexpr double kMaxUs = 9e12;

/// Trace timestamps are microseconds with (at most) nanosecond digits.
std::int64_t to_ns(double us) { return std::llround(us * 1e3); }

/// Unsigned difference as a signed delta (two's complement, no UB).
std::int64_t delta(std::uint64_t from, std::uint64_t to) {
  return static_cast<std::int64_t>(to - from);
}

/// Parse one Chrome trace-event document's `X` slices into nodes.
bool load_chrome(std::string_view text, TraceData* out, std::string* error) {
  JsonValue doc;
  std::string parse_error;
  if (!json_parse(text, &doc, &parse_error)) {
    return fail(error, located(text, parse_error));
  }
  const JsonValue* events = doc.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail(error, "no traceEvents array (not a Chrome trace document)");
  }
  for (std::size_t i = 0; i < events->array_value.size(); ++i) {
    const JsonValue& event = events->array_value[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]: ";
    if (!event.is_object()) return fail(error, where + "not an object");
    const std::string ph =
        event.get("ph") != nullptr ? event.get("ph")->string_or("") : "";
    if (ph == "B" || ph == "E") {
      return fail(error, where + "'" + ph +
                             "' event: only id-linked 'X' slices are "
                             "supported (re-record with --trace)");
    }
    if (ph != "X") continue;  // M, flow, counters

    const JsonValue* name = event.get("name");
    if (name == nullptr || !name->is_string() || name->string_value.empty()) {
      return fail(error, where + "'X' event has no name");
    }
    const JsonValue* ts = event.get("ts");
    if (ts == nullptr || !ts->is_number()) {
      return fail(error, where + "'X' event has no numeric ts");
    }
    const JsonValue* dur = event.get("dur");
    if (dur == nullptr || !dur->is_number() || dur->number_value < 0) {
      return fail(error, where + "'X' event has no numeric dur");
    }
    if (std::abs(ts->number_value) > kMaxUs || dur->number_value > kMaxUs) {
      return fail(error, where + "'X' event ts/dur out of range");
    }
    Node span;
    span.name = name->string_value;
    span.pid = event.int_at("pid", 1);
    span.tid = event.int_at("tid", 0);
    span.start_ns = to_ns(ts->number_value);
    span.end_ns = span.start_ns + to_ns(dur->number_value);
    if (const JsonValue* args = event.get("args"); args != nullptr) {
      const auto hex = [args](const char* key) -> std::uint64_t {
        const JsonValue* field = args->get(key);
        return field != nullptr && field->is_string()
                   ? std::strtoull(field->string_value.c_str(), nullptr, 16)
                   : 0;
      };
      span.id = hex("span");
      span.parent = hex("parent");
    }
    out->spans.push_back(std::move(span));
  }
  return true;
}

/// Resolve `parent` ids into tree links; a span whose parent is absent
/// from the trace (or unset) is a root.
void build_forest(TraceData* out) {
  std::map<std::uint64_t, int> by_id;
  for (std::size_t i = 0; i < out->spans.size(); ++i) {
    if (out->spans[i].id != 0) {
      by_id.emplace(out->spans[i].id, static_cast<int>(i));
    }
  }
  for (std::size_t i = 0; i < out->spans.size(); ++i) {
    Node& span = out->spans[i];
    const auto it = span.parent == 0 ? by_id.end() : by_id.find(span.parent);
    if (it != by_id.end() && it->second != static_cast<int>(i)) {
      span.parent_index = it->second;
      out->spans[static_cast<std::size_t>(it->second)].children.push_back(
          static_cast<int>(i));
    } else {
      out->roots.push_back(static_cast<int>(i));
    }
  }
  std::sort(out->roots.begin(), out->roots.end(), [out](int a, int b) {
    return out->spans[static_cast<std::size_t>(a)].start_ns <
           out->spans[static_cast<std::size_t>(b)].start_ns;
  });
}

/// Critical-path walk (see header): cover [span.start, until] with the
/// chain of gating spans, appending segments newest-first.
void walk_critical(const TraceData& trace, int index, std::int64_t until,
                   int depth, std::vector<CriticalStep>* out) {
  const Node& span = trace.spans[static_cast<std::size_t>(index)];
  std::int64_t cursor = until;
  std::vector<int> kids = span.children;
  std::sort(kids.begin(), kids.end(), [&trace](int a, int b) {
    return trace.spans[static_cast<std::size_t>(a)].end_ns >
           trace.spans[static_cast<std::size_t>(b)].end_ns;
  });
  for (int k : kids) {
    const Node& child = trace.spans[static_cast<std::size_t>(k)];
    if (child.end_ns > cursor) continue;  // overlapped in parallel
    if (cursor <= span.start_ns) break;
    if (cursor > child.end_ns) {
      out->push_back({span.name, depth, child.end_ns, cursor});
    }
    if (depth < kMaxDepth) {
      walk_critical(trace, k, child.end_ns, depth + 1, out);
    } else {
      out->push_back({child.name, depth + 1, child.start_ns, child.end_ns});
    }
    cursor = child.start_ns;
  }
  if (cursor > span.start_ns) {
    out->push_back({span.name, depth, span.start_ns, cursor});
  }
}

/// Accumulator behind NameStats: the same 64-bucket power-of-two
/// layout Histogram uses, so bucket_quantile applies verbatim.
struct Acc {
  std::uint64_t buckets[Histogram::kBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t min_ns = ~0ull;
  std::uint64_t max_ns = 0;

  void record(std::uint64_t dur_ns, std::uint64_t self) {
    const std::size_t b = std::min<std::size_t>(
        dur_ns <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(dur_ns - 1)),
        Histogram::kBuckets - 1);
    ++buckets[b];
    ++count;
    total_ns += dur_ns;
    self_ns += self;
    min_ns = std::min(min_ns, dur_ns);
    max_ns = std::max(max_ns, dur_ns);
  }

  [[nodiscard]] NameStats stats(const std::string& name) const {
    NameStats s;
    s.name = name;
    s.count = count;
    s.total_ns = total_ns;
    s.self_ns = self_ns;
    const std::uint64_t lo = count == 0 ? 0 : min_ns;
    s.min_ns = lo;
    s.max_ns = max_ns;
    s.p50_ns = bucket_quantile(buckets, count, 0.50, true, lo, max_ns);
    s.p90_ns = bucket_quantile(buckets, count, 0.90, true, lo, max_ns);
    s.p99_ns = bucket_quantile(buckets, count, 0.99, true, lo, max_ns);
    return s;
  }
};

/// Wall time a span spent outside its children: duration minus the
/// union of child intervals (overlapping children count once).
std::uint64_t self_time_ns(const TraceData& trace, const Node& span) {
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  intervals.reserve(span.children.size());
  for (int k : span.children) {
    const Node& child = trace.spans[static_cast<std::size_t>(k)];
    intervals.emplace_back(std::max(child.start_ns, span.start_ns),
                           std::min(child.end_ns, span.end_ns));
  }
  std::sort(intervals.begin(), intervals.end());
  // Sweep by start: each interval adds only what lies past the
  // furthest end seen so far.
  std::int64_t covered = 0;
  std::int64_t reach = std::numeric_limits<std::int64_t>::min();
  for (const auto& [from, to] : intervals) {
    const std::int64_t begin = std::max(from, reach);
    if (to > begin) covered += to - begin;
    reach = std::max(reach, to);
  }
  return static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, span.dur_ns() - covered));
}

std::vector<NameStats> sorted_stats(const std::map<std::string, Acc>& accs) {
  std::vector<NameStats> out;
  out.reserve(accs.size());
  for (const auto& [name, acc] : accs) out.push_back(acc.stats(name));
  std::sort(out.begin(), out.end(), [](const NameStats& a, const NameStats& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.name < b.name;
  });
  return out;
}

/// Table cell: nanoseconds as microseconds with one decimal.
std::string us_cell(double ns) { return util::Table::num(ns / 1e3, 1); }

std::string quantile_us(double ns) { return json_us(std::llround(ns)); }

std::string stats_json(const std::vector<NameStats>& stats) {
  std::string out = "{";
  bool first = true;
  for (const NameStats& s : stats) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(s.name) + "\":{\"count\":" + std::to_string(s.count) +
           ",\"total_us\":" + json_us(s.total_ns) +
           ",\"self_us\":" + json_us(s.self_ns) +
           ",\"min_us\":" + json_us(s.min_ns) +
           ",\"max_us\":" + json_us(s.max_ns) +
           ",\"p50_us\":" + quantile_us(s.p50_ns) +
           ",\"p90_us\":" + quantile_us(s.p90_ns) +
           ",\"p99_us\":" + quantile_us(s.p99_ns) + "}";
  }
  return out + "}";
}

void fold_stacks(const TraceData& trace, int index, const std::string& prefix,
                 int depth, std::map<std::string, std::uint64_t>* out) {
  const Node& span = trace.spans[static_cast<std::size_t>(index)];
  const std::string path =
      prefix.empty() ? span.name : prefix + ";" + span.name;
  const std::uint64_t self_us = (self_time_ns(trace, span) + 500) / 1000;
  if (self_us > 0) (*out)[path] += self_us;
  if (depth >= kMaxDepth) return;
  for (int k : span.children) fold_stacks(trace, k, path, depth + 1, out);
}

/// The root with the longest wall time (null when there is none).
const CriticalPath* slowest_path(const std::vector<CriticalPath>& paths) {
  const CriticalPath* slowest = nullptr;
  for (const CriticalPath& path : paths) {
    if (slowest == nullptr || path.total_ns > slowest->total_ns) {
      slowest = &path;
    }
  }
  return slowest;
}

}  // namespace

bool load_trace(std::string_view text, TraceData* out, std::string* error) {
  *out = TraceData();
  if (text.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    return fail(error, "line 1: empty trace artifact");
  }
  if (!load_chrome(text, out, error)) return false;
  build_forest(out);
  return true;
}

TraceData from_spans(const std::vector<SpanRecord>& spans) {
  TraceData trace;
  std::uint64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& span : spans) epoch = std::min(epoch, span.start_ns);
  trace.spans.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    Node node;
    node.name = span.name;
    node.tid = static_cast<int>(span.tid);
    node.start_ns = static_cast<std::int64_t>(span.start_ns - epoch);
    node.end_ns = static_cast<std::int64_t>(span.end_ns - epoch);
    node.id = span.id;
    node.parent = span.parent;
    trace.spans.push_back(std::move(node));
  }
  build_forest(&trace);
  return trace;
}

std::vector<CriticalPath> critical_paths(const TraceData& trace) {
  std::vector<CriticalPath> paths;
  paths.reserve(trace.roots.size());
  for (int root : trace.roots) {
    const Node& span = trace.spans[static_cast<std::size_t>(root)];
    CriticalPath path;
    path.root = span.name;
    path.start_ns = span.start_ns;
    path.total_ns = span.dur_ns();
    walk_critical(trace, root, span.end_ns, 0, &path.steps);
    std::reverse(path.steps.begin(), path.steps.end());
    paths.push_back(std::move(path));
  }
  return paths;
}

Aggregate aggregate(const std::vector<TraceData>& traces) {
  Aggregate result;
  std::map<std::string, Acc> by_name;
  std::map<std::string, Acc> by_stage;
  for (const TraceData& trace : traces) {
    ++result.traces;
    if (trace.spans.empty()) continue;
    std::int64_t first = trace.spans.front().start_ns;
    std::int64_t last = trace.spans.front().end_ns;
    for (const Node& span : trace.spans) {
      ++result.span_count;
      first = std::min(first, span.start_ns);
      last = std::max(last, span.end_ns);
      const auto dur = static_cast<std::uint64_t>(span.dur_ns());
      const std::uint64_t self = self_time_ns(trace, span);
      by_name[span.name].record(dur, self);
      by_stage[stage_of(span.name)].record(dur, self);
      if (span.name == "serve/queue") result.queue_ns += dur;
      if (span.name == "serve/job") result.compute_ns += dur;
      if (span.name == "serve/respond") result.respond_ns += dur;
    }
    result.wall_ns += static_cast<std::uint64_t>(last - first);
  }
  result.by_name = sorted_stats(by_name);
  result.by_stage = sorted_stats(by_stage);
  return result;
}

DiffResult diff(const Aggregate& a, const Aggregate& b) {
  DiffResult result;
  result.a_total_ns = a.wall_ns;
  result.b_total_ns = b.wall_ns;
  result.delta_ns = delta(a.wall_ns, b.wall_ns);
  // Self time, not inclusive time: a slowed leaf inflates every
  // ancestor's total equally, but only its own self — so ranking by
  // self-delta names the stage that actually got slower, and each
  // nanosecond of the shift is attributed to exactly one stage.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> stages;
  for (const NameStats& s : a.by_stage) stages[s.name].first = s.self_ns;
  for (const NameStats& s : b.by_stage) stages[s.name].second = s.self_ns;
  double magnitude = 0;
  for (const auto& [stage, totals] : stages) {
    DiffEntry entry;
    entry.stage = stage;
    entry.a_ns = totals.first;
    entry.b_ns = totals.second;
    entry.delta_ns = delta(totals.first, totals.second);
    magnitude += std::fabs(static_cast<double>(entry.delta_ns));
    result.entries.push_back(std::move(entry));
  }
  for (DiffEntry& entry : result.entries) {
    const double size = std::fabs(static_cast<double>(entry.delta_ns));
    entry.share_pct = magnitude <= 0 ? 0 : 100.0 * size / magnitude;
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const DiffEntry& x, const DiffEntry& y) {
              if (x.delta_ns != y.delta_ns) return x.delta_ns > y.delta_ns;
              return x.stage < y.stage;
            });
  if (!result.entries.empty() && result.entries.front().delta_ns > 0) {
    result.guilty = result.entries.front().stage;
  }
  return result;
}

std::string analysis_text(const std::vector<CriticalPath>& paths,
                          const Aggregate& aggregate, std::size_t top) {
  const auto ms = [](double ns) { return util::Table::num(ns / 1e6, 2); };
  std::string out = "trace-analyze: " + std::to_string(aggregate.traces) +
                    " trace(s), " + std::to_string(aggregate.span_count) +
                    " spans, wall " +
                    ms(static_cast<double>(aggregate.wall_ns)) + " ms\n";

  // The slowest root's critical path — the chain that gated the run.
  if (const CriticalPath* slowest = slowest_path(paths); slowest != nullptr) {
    const double total = static_cast<double>(slowest->total_ns);
    out += "\ncritical path of slowest root '" + slowest->root + "' (" +
           ms(total) + " ms, " + std::to_string(slowest->steps.size()) +
           " steps):\n";
    util::Table steps({"#", "span", "depth", "from (us)", "self (us)",
                       "share %"});
    for (std::size_t i = 0; i < slowest->steps.size() && i < top; ++i) {
      const CriticalStep& step = slowest->steps[i];
      const double self = static_cast<double>(step.self_ns());
      steps.add_row(
          {std::to_string(i + 1), step.name, std::to_string(step.depth),
           us_cell(static_cast<double>(step.from_ns - slowest->start_ns)),
           us_cell(self),
           util::Table::num(total <= 0 ? 0 : 100.0 * self / total, 1)});
    }
    out += steps.to_text();
    if (slowest->steps.size() > top) {
      out += "(" + std::to_string(slowest->steps.size() - top) +
             " more steps; --top N to widen)\n";
    }
  }

  const auto table_for = [top](const char* label,
                               const std::vector<NameStats>& stats) {
    util::Table table({label, "count", "total (us)", "self (us)", "p50",
                       "p90", "p99", "max"});
    std::size_t shown = 0;
    for (const NameStats& s : stats) {
      if (shown++ >= top) break;
      table.add_row({s.name, std::to_string(s.count),
                     us_cell(static_cast<double>(s.total_ns)),
                     us_cell(static_cast<double>(s.self_ns)),
                     us_cell(s.p50_ns), us_cell(s.p90_ns), us_cell(s.p99_ns),
                     us_cell(static_cast<double>(s.max_ns))});
    }
    return table.to_text();
  };
  out += "\nper-stage attribution:\n" + table_for("stage", aggregate.by_stage);
  out += "\nper-span latency distribution:\n" +
         table_for("span", aggregate.by_name);

  if (aggregate.queue_ns > 0 || aggregate.compute_ns > 0) {
    const double queue = static_cast<double>(aggregate.queue_ns);
    const double both = queue + static_cast<double>(aggregate.compute_ns);
    out += "\ndaemon split: queue " + us_cell(queue) + " us, compute " +
           us_cell(static_cast<double>(aggregate.compute_ns)) +
           " us, respond " +
           us_cell(static_cast<double>(aggregate.respond_ns)) + " us (queue " +
           util::Table::num(100.0 * queue / both, 1) + "% of queue+compute)\n";
  }
  return out;
}

std::string diff_text(const DiffResult& result, std::size_t top) {
  const auto ms = [](std::int64_t ns) {
    return util::Table::num(static_cast<double>(ns) / 1e6, 2);
  };
  const auto signed_us = [](std::int64_t ns) {
    std::string cell = ns >= 0 ? "+" : "";
    return cell + us_cell(static_cast<double>(ns));
  };
  std::string out = "trace diff: wall " + ms(result.a_total_ns) + " ms -> " +
                    ms(result.b_total_ns) + " ms (" +
                    (result.delta_ns >= 0 ? "+" : "") + ms(result.delta_ns) +
                    " ms)\n";
  util::Table table({"stage", "A (us)", "B (us)", "delta (us)", "share %"});
  std::size_t shown = 0;
  for (const DiffEntry& entry : result.entries) {
    if (shown++ >= top) break;
    table.add_row({entry.stage, us_cell(static_cast<double>(entry.a_ns)),
                   us_cell(static_cast<double>(entry.b_ns)),
                   signed_us(entry.delta_ns),
                   util::Table::num(entry.share_pct, 1)});
  }
  out += table.to_text();
  if (result.guilty.empty()) {
    out += "no stage got slower\n";
  } else {
    const DiffEntry& guilty = result.entries.front();
    out += "guilty stage: " + guilty.stage + " (" + signed_us(guilty.delta_ns) +
           " us, " + util::Table::num(guilty.share_pct, 1) +
           "% of the shift)\n";
  }
  return out;
}

std::string analysis_json(const std::vector<CriticalPath>& paths,
                          const Aggregate& aggregate) {
  std::string out = "{\"schema\":\"socet-trace-analysis-v1\",\"traces\":" +
                    std::to_string(aggregate.traces) +
                    ",\"spans_total\":" + std::to_string(aggregate.span_count) +
                    ",\"wall_us\":" + json_us(aggregate.wall_ns);
  if (const CriticalPath* slowest = slowest_path(paths); slowest != nullptr) {
    out += ",\"critical_path\":{\"root\":\"" + json_escape(slowest->root) +
           "\",\"total_us\":" + json_us(slowest->total_ns) + ",\"steps\":[";
    bool first = true;
    for (const CriticalStep& step : slowest->steps) {
      if (!first) out += ',';
      first = false;
      out += "{\"span\":\"" + json_escape(step.name) +
             "\",\"depth\":" + std::to_string(step.depth) +
             ",\"from_us\":" + json_us(step.from_ns - slowest->start_ns) +
             ",\"self_us\":" + json_us(step.self_ns()) + "}";
    }
    out += "]}";
  }
  out += ",\"stages\":" + stats_json(aggregate.by_stage);
  out += ",\"spans\":" + stats_json(aggregate.by_name);
  if (aggregate.queue_ns > 0 || aggregate.compute_ns > 0) {
    out += ",\"daemon_split\":{\"queue_us\":" + json_us(aggregate.queue_ns) +
           ",\"compute_us\":" + json_us(aggregate.compute_ns) +
           ",\"respond_us\":" + json_us(aggregate.respond_ns) + "}";
  }
  return out + "}";
}

std::string diff_json(const DiffResult& result) {
  std::string out = "{\"schema\":\"socet-trace-diff-v1\",\"a_wall_us\":" +
                    json_us(result.a_total_ns) +
                    ",\"b_wall_us\":" + json_us(result.b_total_ns) +
                    ",\"delta_us\":" + json_us(result.delta_ns) +
                    ",\"guilty\":\"" + json_escape(result.guilty) +
                    "\",\"stages\":[";
  bool first = true;
  for (const DiffEntry& entry : result.entries) {
    if (!first) out += ',';
    first = false;
    out += "{\"stage\":\"" + json_escape(entry.stage) +
           "\",\"a_us\":" + json_us(entry.a_ns) +
           ",\"b_us\":" + json_us(entry.b_ns) +
           ",\"delta_us\":" + json_us(entry.delta_ns) +
           ",\"share_pct\":" + json_number(entry.share_pct) + "}";
  }
  return out + "]}";
}

std::string folded_stacks(const std::vector<TraceData>& traces) {
  std::map<std::string, std::uint64_t> folded;
  for (const TraceData& trace : traces) {
    for (int root : trace.roots) fold_stacks(trace, root, "", 0, &folded);
  }
  std::string out;
  for (const auto& [path, self_us] : folded) {
    out += path + " " + std::to_string(self_us) + "\n";
  }
  return out;
}

}  // namespace socet::obs::analyze
