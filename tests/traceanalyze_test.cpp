// Trace analytics engine: golden critical paths on hand-built span
// trees, aggregation quantiles against a naive oracle, diff ranking
// stability, malformed/truncated/B-E artifact rejection with line
// numbers, nanosecond-exact timestamps past 10 s, in-process vs
// exported trace equivalence, and CLI round-trips on real
// `batch --trace` artifacts.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "socet/obs/trace.hpp"
#include "socet/obs/traceanalyze.hpp"
#include "socet/obs/tracemerge.hpp"

namespace socet {
namespace {

using obs::analyze::Aggregate;
using obs::analyze::CriticalPath;
using obs::analyze::DiffResult;
using obs::analyze::NameStats;
using obs::analyze::TraceData;

/// One id-linked X slice with explicit hex span/parent ids.
std::string slice(const std::string& name, double ts, double dur,
                  std::uint64_t id, std::uint64_t parent, int pid = 1,
                  int tid = 1) {
  char ids[64];
  std::snprintf(ids, sizeof(ids), "\"span\":\"0x%llx\"",
                static_cast<unsigned long long>(id));
  std::string args = ids;
  if (parent != 0) {
    std::snprintf(ids, sizeof(ids), ",\"parent\":\"0x%llx\"",
                  static_cast<unsigned long long>(parent));
    args += ids;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"name\":\"%s\",\"cat\":\"socet\",\"ph\":\"X\",\"ts\":%g,"
                "\"dur\":%g,\"pid\":%d,\"tid\":%d,\"args\":{",
                name.c_str(), ts, dur, pid, tid);
  return std::string(head) + args + "}}";
}

std::string chrome_doc(const std::vector<std::string>& events) {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ',';
    out += events[i];
  }
  return out + "]}";
}

obs::SpanRecord record(const std::string& name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t id,
                       std::uint64_t parent) {
  obs::SpanRecord span;
  span.name = name;
  span.tid = 1;
  span.id = id;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  return span;
}

TraceData load_ok(const std::string& text) {
  TraceData trace;
  std::string error;
  EXPECT_TRUE(obs::analyze::load_trace(text, &trace, &error)) << error;
  return trace;
}

// ---------------------------------------------------------- critical path

TEST(CriticalPathGolden, WalksBackThroughGatingChildren) {
  // root [0,100] with sequential children A [10,40] and B [50,90]:
  // the path must alternate root-self and child segments, covering
  // [0,100] exactly once.
  const TraceData trace = load_ok(chrome_doc({
      slice("job/root", 0, 100, 1, 0),
      slice("stage/a", 10, 30, 2, 1),
      slice("stage/b", 50, 40, 3, 1),
  }));
  ASSERT_EQ(trace.roots.size(), 1u);
  const auto paths = obs::analyze::critical_paths(trace);
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  EXPECT_EQ(path.root, "job/root");
  EXPECT_EQ(path.total_ns, 100'000);
  ASSERT_EQ(path.steps.size(), 5u);
  const char* expected_names[] = {"job/root", "stage/a", "job/root",
                                  "stage/b", "job/root"};
  const std::int64_t expected_from_us[] = {0, 10, 40, 50, 90};
  const std::int64_t expected_to_us[] = {10, 40, 50, 90, 100};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(path.steps[i].name, expected_names[i]) << "step " << i;
    EXPECT_EQ(path.steps[i].from_ns, expected_from_us[i] * 1000) << i;
    EXPECT_EQ(path.steps[i].to_ns, expected_to_us[i] * 1000) << i;
  }
  // Every nanosecond attributed exactly once.
  std::int64_t covered = 0;
  for (const auto& step : path.steps) covered += step.self_ns();
  EXPECT_EQ(covered, path.total_ns);
}

TEST(CriticalPathGolden, ParallelChildIsNotDoubleCounted) {
  // C [5,95] dominates; D [20,80] runs concurrently underneath and
  // must not appear on the path.
  const TraceData trace = load_ok(chrome_doc({
      slice("job/root", 0, 100, 1, 0),
      slice("stage/c", 5, 90, 2, 1),
      slice("stage/d", 20, 60, 3, 1, 1, 2),
  }));
  const auto paths = obs::analyze::critical_paths(trace);
  ASSERT_EQ(paths.size(), 1u);
  std::int64_t covered = 0;
  for (const auto& step : paths[0].steps) {
    EXPECT_NE(step.name, "stage/d");
    covered += step.self_ns();
  }
  EXPECT_EQ(covered, 100'000);
}

TEST(CriticalPathGolden, DeepNestingDescendsThroughEveryLevel) {
  const TraceData trace = load_ok(chrome_doc({
      slice("a/outer", 0, 100, 1, 0),
      slice("b/mid", 10, 80, 2, 1),
      slice("c/inner", 20, 60, 3, 2),
  }));
  const auto paths = obs::analyze::critical_paths(trace);
  ASSERT_EQ(paths.size(), 1u);
  int max_depth = 0;
  bool saw_inner = false;
  for (const auto& step : paths[0].steps) {
    max_depth = std::max(max_depth, step.depth);
    if (step.name == "c/inner") {
      saw_inner = true;
      EXPECT_EQ(step.depth, 2);
      EXPECT_EQ(step.self_ns(), 60'000);
    }
  }
  EXPECT_TRUE(saw_inner);
  EXPECT_EQ(max_depth, 2);
}

TEST(CriticalPathGolden, LocalTraceNestsByParentIds) {
  // The local --trace flavor: one lane, nesting carried by parent ids
  // exactly as the recorder links them.
  obs::ChromeTraceWriter writer(0);
  writer.slice(1, 1, record("cli/run", 0, 100'000, 1, 0));
  writer.slice(1, 1, record("soc/plan", 10'000, 60'000, 2, 1));
  const TraceData trace = load_ok(writer.finish());
  ASSERT_EQ(trace.spans.size(), 2u);
  ASSERT_EQ(trace.roots.size(), 1u);
  EXPECT_EQ(trace.spans[1].parent_index, 0);
  const auto paths = obs::analyze::critical_paths(trace);
  ASSERT_EQ(paths.size(), 1u);
  ASSERT_EQ(paths[0].steps.size(), 3u);
  EXPECT_EQ(paths[0].steps[1].name, "soc/plan");
  EXPECT_EQ(paths[0].steps[1].self_ns(), 50'000);
}

// ------------------------------------------------------------ aggregation

TEST(AggregateQuantiles, ConstantDurationsAreExact) {
  // All spans last exactly 37us: observed-extreme clamping must pin
  // every quantile to 37 regardless of bucket width.
  std::vector<std::string> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(slice("stage/same", i * 100.0, 37,
                           static_cast<std::uint64_t>(i + 1), 0));
  }
  const Aggregate agg = obs::analyze::aggregate({load_ok(chrome_doc(events))});
  ASSERT_EQ(agg.by_name.size(), 1u);
  const NameStats& s = agg.by_name[0];
  EXPECT_EQ(s.count, 20u);
  EXPECT_EQ(s.min_ns, 37'000u);
  EXPECT_EQ(s.max_ns, 37'000u);
  EXPECT_DOUBLE_EQ(s.p50_ns, 37'000.0);
  EXPECT_DOUBLE_EQ(s.p90_ns, 37'000.0);
  EXPECT_DOUBLE_EQ(s.p99_ns, 37'000.0);
  EXPECT_EQ(s.total_ns, 20u * 37'000);
}

TEST(AggregateQuantiles, TrackNaiveOracleWithinBucketResolution) {
  // Durations 1..200us.  The 64-bucket power-of-two layout loses
  // in-bucket detail, so the estimate must land within the bucket that
  // holds the true order statistic: [oracle/2, oracle*2], and between
  // the observed extremes.
  std::vector<std::string> events;
  std::vector<double> durations;
  for (int i = 1; i <= 200; ++i) {
    durations.push_back(i * 1000.0);
    events.push_back(slice("stage/ramp", i * 300.0, i,
                           static_cast<std::uint64_t>(i), 0));
  }
  const Aggregate agg = obs::analyze::aggregate({load_ok(chrome_doc(events))});
  ASSERT_EQ(agg.by_name.size(), 1u);
  const NameStats& s = agg.by_name[0];
  std::sort(durations.begin(), durations.end());
  const auto oracle = [&durations](double q) {
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(durations.size() - 1));
    return durations[rank];
  };
  for (const auto& [q, value] :
       std::vector<std::pair<double, double>>{
           {0.50, s.p50_ns}, {0.90, s.p90_ns}, {0.99, s.p99_ns}}) {
    const double truth = oracle(q);
    EXPECT_GE(value, truth / 2) << "q=" << q;
    EXPECT_LE(value, truth * 2) << "q=" << q;
    EXPECT_GE(value, static_cast<double>(s.min_ns));
    EXPECT_LE(value, static_cast<double>(s.max_ns));
  }
  EXPECT_EQ(s.min_ns, 1'000u);
  EXPECT_EQ(s.max_ns, 200'000u);
  EXPECT_EQ(s.total_ns, 1'000u * 200 * 201 / 2);
}

TEST(AggregateSelfTime, OverlappingChildrenAreUnionMerged) {
  // Children [10,50] and [40,80] overlap by 10us; the union covers
  // 70us, so the root keeps 30us of self time (not 20).
  const Aggregate agg = obs::analyze::aggregate({load_ok(chrome_doc({
      slice("job/root", 0, 100, 1, 0),
      slice("stage/x", 10, 40, 2, 1),
      slice("stage/y", 40, 40, 3, 1, 1, 2),
  }))});
  for (const NameStats& s : agg.by_name) {
    if (s.name == "job/root") {
      EXPECT_EQ(s.self_ns, 30'000u);
    }
  }
  ASSERT_EQ(agg.by_stage.size(), 2u);  // job + stage
  EXPECT_EQ(agg.wall_ns, 100'000u);
}

TEST(AggregateDaemonSplit, QueueComputeRespondFromServeSpans) {
  const Aggregate agg = obs::analyze::aggregate({load_ok(chrome_doc({
      slice("submit #1", 0, 100, 1, 0),
      slice("serve/queue", 5, 20, 2, 1),
      slice("serve/job", 25, 60, 3, 1, 2, 7),
      slice("serve/respond", 85, 10, 4, 1, 2, 900),
  }))});
  EXPECT_EQ(agg.queue_ns, 20'000u);
  EXPECT_EQ(agg.compute_ns, 60'000u);
  EXPECT_EQ(agg.respond_ns, 10'000u);
}

TEST(FoldedStacks, EmitsSelfMicrosecondsPerPath) {
  const std::string folded = obs::analyze::folded_stacks({load_ok(chrome_doc({
      slice("job/root", 0, 100, 1, 0),
      slice("stage/a", 10, 30, 2, 1),
  }))});
  EXPECT_NE(folded.find("job/root 70\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("job/root;stage/a 30\n"), std::string::npos) << folded;
}

// -------------------------------------------------------------------- diff

Aggregate two_stage_aggregate(double a_dur, double b_dur) {
  return obs::analyze::aggregate({load_ok(chrome_doc({
      slice("alpha/work", 0, a_dur, 1, 0),
      slice("beta/work", 1000, b_dur, 2, 0),
  }))});
}

TEST(Diff, IdenticalAggregatesReportZeroAttribution) {
  const Aggregate agg = two_stage_aggregate(50, 70);
  const DiffResult result = obs::analyze::diff(agg, agg);
  EXPECT_EQ(result.delta_ns, 0);
  EXPECT_TRUE(result.guilty.empty());
  for (const auto& entry : result.entries) {
    EXPECT_EQ(entry.delta_ns, 0);
    EXPECT_DOUBLE_EQ(entry.share_pct, 0.0);
  }
}

TEST(Diff, SlowedStageRanksFirst) {
  const Aggregate before = two_stage_aggregate(50, 70);
  const Aggregate after = two_stage_aggregate(50, 700);  // beta 10x slower
  const DiffResult result = obs::analyze::diff(before, after);
  ASSERT_FALSE(result.entries.empty());
  EXPECT_EQ(result.entries[0].stage, "beta");
  EXPECT_EQ(result.guilty, "beta");
  EXPECT_EQ(result.entries[0].delta_ns, 630'000);
  EXPECT_NEAR(result.entries[0].share_pct, 100.0, 1e-9);
}

TEST(Diff, RankingIsStableUnderTies) {
  // Both stages slow down by exactly 10us: the tie must break by name
  // so repeated runs render the same table.
  const Aggregate before = two_stage_aggregate(50, 70);
  const Aggregate after = two_stage_aggregate(60, 80);
  const DiffResult result = obs::analyze::diff(before, after);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0].stage, "alpha");
  EXPECT_EQ(result.entries[1].stage, "beta");
  EXPECT_EQ(result.guilty, "alpha");
  EXPECT_NEAR(result.entries[0].share_pct, 50.0, 1e-9);
}

TEST(Diff, StageOnlyInOneSideStillAttributes) {
  const Aggregate before = obs::analyze::aggregate(
      {load_ok(chrome_doc({slice("alpha/work", 0, 50, 1, 0)}))});
  const Aggregate after = two_stage_aggregate(50, 200);
  const DiffResult result = obs::analyze::diff(before, after);
  ASSERT_FALSE(result.entries.empty());
  EXPECT_EQ(result.entries[0].stage, "beta");
  EXPECT_EQ(result.entries[0].a_ns, 0u);
  EXPECT_EQ(result.entries[0].delta_ns, 200'000);
}

// --------------------------------------------------- rejection / robustness

TEST(LoadTrace, TruncatedJsonNamesTheBreakLine) {
  // A document cut off mid-event on its third line.
  const std::string truncated =
      "{\"traceEvents\":[\n"
      "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":1,\"tid\":1},\n"
      "{\"name\":\"b\",\"ph\":\"X\",\"ts\":1,";
  TraceData trace;
  std::string error;
  EXPECT_FALSE(obs::analyze::load_trace(truncated, &trace, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(LoadTrace, BeginEndInputIsRejected) {
  // Only id-linked X slices are a trace; B/E pairs carry no parent ids.
  const std::string doc =
      R"({"traceEvents":[)"
      R"({"name":"cli/run","ph":"B","ts":0,"pid":1,"tid":1},)"
      R"({"name":"cli/run","ph":"E","ts":9,"pid":1,"tid":1}]})";
  TraceData trace;
  std::string error;
  EXPECT_FALSE(obs::analyze::load_trace(doc, &trace, &error));
  EXPECT_NE(error.find("traceEvents[0]: 'B' event"), std::string::npos)
      << error;
  EXPECT_NE(error.find("id-linked"), std::string::npos) << error;
}

TEST(LoadTrace, EndWithoutBeginIsRejected) {
  const std::string doc =
      R"({"traceEvents":[{"ph":"E","ts":5,"pid":1,"tid":1}]})";
  TraceData trace;
  std::string error;
  EXPECT_FALSE(obs::analyze::load_trace(doc, &trace, &error));
  EXPECT_NE(error.find("traceEvents[0]: 'E' event"), std::string::npos)
      << error;
}

TEST(LoadTrace, OutOfRangeTimesAreRejected) {
  // Past 2^53 ns a double µs value loses nanoseconds, and unbounded
  // times would overflow the integer sums.
  for (const std::string& event :
       {std::string(R"({"name":"a","ph":"X","ts":1e300,"dur":1})"),
        std::string(R"({"name":"a","ph":"X","ts":0,"dur":1e13})")}) {
    TraceData trace;
    std::string error;
    EXPECT_FALSE(obs::analyze::load_trace(chrome_doc({event}), &trace, &error));
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  }
}

TEST(LoadTrace, MissingTraceEventsAndEmptyInputAreRejected) {
  TraceData trace;
  std::string error;
  EXPECT_FALSE(obs::analyze::load_trace("{}", &trace, &error));
  EXPECT_NE(error.find("traceEvents"), std::string::npos) << error;
  EXPECT_FALSE(obs::analyze::load_trace("  \n ", &trace, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(LoadTrace, EmptyTraceEventsIsValidAndEmpty) {
  const TraceData trace = load_ok("{\"traceEvents\":[]}");
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_TRUE(obs::analyze::critical_paths(trace).empty());
  const Aggregate agg = obs::analyze::aggregate({trace});
  EXPECT_EQ(agg.span_count, 0u);
  EXPECT_FALSE(obs::analyze::analysis_json({}, agg).empty());
}

// --------------------------------------------------------- one span path

TEST(LateSpans, TimestampsPastTenSecondsStayExact) {
  // A span 10.5 s into the run: %g-style rendering would round its ts
  // to 1.05e+07 and fold it onto its neighbours.
  const std::uint64_t epoch = 7'000'000'000;
  const std::uint64_t late_start = epoch + 10'500'000'123;
  const obs::SpanRecord root = record("cli/run", epoch, late_start + 5'000'000,
                                      1, 0);
  const obs::SpanRecord late =
      record("opt/minimize_tat", late_start, late_start + 1'234'567, 2, 1);

  obs::ChromeTraceWriter writer(epoch);
  writer.slice(1, 1, root);
  writer.slice(1, 1, late);
  const std::string local = writer.finish();
  EXPECT_NE(local.find("\"ts\":10500000.123,\"dur\":1234.567,"),
            std::string::npos)
      << local;

  obs::MergeInput input;
  input.trace_id = 0x99;
  input.client_spans = {root};
  input.daemon_spans = {late};
  const std::string merged = obs::merged_chrome_trace(input);
  EXPECT_NE(merged.find("\"ts\":10500000.123,\"dur\":1234.567,"),
            std::string::npos)
      << merged;

  for (const std::string& doc : {local, merged}) {
    const TraceData trace = load_ok(doc);
    const Aggregate agg = obs::analyze::aggregate({trace});
    bool found = false;
    for (const NameStats& s : agg.by_name) {
      if (s.name != "opt/minimize_tat") continue;
      found = true;
      EXPECT_EQ(s.total_ns, 1'234'567u);
    }
    EXPECT_TRUE(found);
    EXPECT_NE(obs::analyze::analysis_json({}, agg).find(
                  "\"opt/minimize_tat\":{\"count\":1,\"total_us\":1234.567,"),
              std::string::npos);
  }
}

TEST(OnePath, InProcessAndExportedTracesAnalyzeIdentically) {
  obs::reset_trace();
  obs::set_trace_enabled(true);
  {
    SOCET_SPAN("main/outer");
    { SOCET_SPAN("main/inner"); }
    { SOCET_SPAN("main/inner"); }
    std::thread worker([] {
      obs::name_this_thread("worker-1");
      obs::SpanCapture capture(0x42, 0x4242);
      SOCET_SPAN("worker/job");
      { SOCET_SPAN("worker/step"); }
      { SOCET_SPAN("worker/step"); }
    });
    worker.join();
  }
  obs::set_trace_enabled(false);

  const TraceData in_process = obs::analyze::from_spans(obs::recorded_spans());
  const TraceData exported = load_ok(obs::chrome_trace_json());
  obs::reset_trace();
  ASSERT_EQ(in_process.spans.size(), 6u);
  // main/outer and worker/job (parented on the remote capture span,
  // absent here) are the roots.
  EXPECT_EQ(in_process.roots.size(), 2u);

  const Aggregate a = obs::analyze::aggregate({in_process});
  const Aggregate b = obs::analyze::aggregate({exported});
  EXPECT_EQ(a.wall_ns, b.wall_ns);
  for (const auto& [x, y] : {std::pair{&a.by_name, &b.by_name},
                             std::pair{&a.by_stage, &b.by_stage}}) {
    ASSERT_EQ(x->size(), y->size());
    for (std::size_t i = 0; i < x->size(); ++i) {
      EXPECT_EQ((*x)[i].name, (*y)[i].name);
      EXPECT_EQ((*x)[i].count, (*y)[i].count);
      EXPECT_EQ((*x)[i].total_ns, (*y)[i].total_ns);
      EXPECT_EQ((*x)[i].self_ns, (*y)[i].self_ns);
    }
  }

  const auto pa = obs::analyze::critical_paths(in_process);
  const auto pb = obs::analyze::critical_paths(exported);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].root, pb[i].root);
    EXPECT_EQ(pa[i].total_ns, pb[i].total_ns);
    ASSERT_EQ(pa[i].steps.size(), pb[i].steps.size());
    for (std::size_t k = 0; k < pa[i].steps.size(); ++k) {
      EXPECT_EQ(pa[i].steps[k].name, pb[i].steps[k].name);
      EXPECT_EQ(pa[i].steps[k].from_ns, pb[i].steps[k].from_ns);
      EXPECT_EQ(pa[i].steps[k].to_ns, pb[i].steps[k].to_ns);
    }
  }
}

// ------------------------------------------------------------ CLI round-trip

struct CliRun {
  int exit_code = -1;
  std::string output;
};

CliRun run_cli(const std::string& arguments,
               const std::string& env_prefix = "") {
  const std::string command = env_prefix + (env_prefix.empty() ? "" : " ") +
                              std::string(SOCET_CLI_PATH) + " " + arguments +
                              " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CliRun run;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// Write a small batch job file and run `batch --trace` over it,
/// returning the trace path.  `env_prefix` lets a case slow one stage
/// via the SOCET_TRACE_TEST_SLOW hook.
std::string traced_batch(const std::string& tag,
                         const std::string& env_prefix = "") {
  const std::string jobs = testing::TempDir() + "ta_jobs_" + tag + ".txt";
  {
    std::ofstream file(jobs);
    file << "plan system=barcode selection=1,2,1\n"
         << "optimize system=barcode area-budget=40\n";
  }
  const std::string trace = testing::TempDir() + "ta_trace_" + tag + ".json";
  const CliRun run = run_cli(
      "batch --jobs " + jobs + " --threads 2 --trace " + trace, env_prefix);
  EXPECT_EQ(run.exit_code, 0);
  std::remove(jobs.c_str());
  return trace;
}

TEST(CliTraceAnalyze, RoundTripsARealBatchTraceArtifact) {
  const std::string trace = traced_batch("roundtrip");
  const CliRun text = run_cli("trace-analyze " + trace);
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_NE(text.output.find("critical path"), std::string::npos)
      << text.output;
  EXPECT_NE(text.output.find("per-stage attribution"), std::string::npos);

  const CliRun json = run_cli("trace-analyze " + trace + " --json");
  EXPECT_EQ(json.exit_code, 0);
  EXPECT_NE(json.output.find("\"schema\":\"socet-trace-analysis-v1\""),
            std::string::npos)
      << json.output;
  std::remove(trace.c_str());
}

TEST(CliTraceAnalyze, DiffOfARunAgainstItselfIsQuiet) {
  const std::string trace = traced_batch("selfdiff");
  const CliRun diff = run_cli("trace-analyze --diff " + trace + " " + trace);
  EXPECT_EQ(diff.exit_code, 0);
  EXPECT_NE(diff.output.find("no stage got slower"), std::string::npos)
      << diff.output;
  std::remove(trace.c_str());
}

TEST(CliTraceAnalyze, ArtificiallySlowedStageRanksFirst) {
  const std::string fast = traced_batch("fast");
  // The test hook injects 30ms into every soc/plan_chip_test span.
  const std::string slow = traced_batch(
      "slow", "SOCET_TRACE_TEST_SLOW='soc/plan_chip_test:30000'");
  const CliRun diff =
      run_cli("trace-analyze --diff " + fast + " " + slow + " --json");
  EXPECT_EQ(diff.exit_code, 0);
  EXPECT_NE(diff.output.find("\"guilty\":\"soc\""), std::string::npos)
      << diff.output;
  // The first (highest-delta) entry in the ranked stage array is soc.
  const auto stages_at = diff.output.find("\"stages\":[");
  ASSERT_NE(stages_at, std::string::npos);
  EXPECT_EQ(diff.output.find("{\"stage\":\"soc\"", stages_at),
            stages_at + std::string("\"stages\":[").size())
      << diff.output;
  std::remove(fast.c_str());
  std::remove(slow.c_str());
}

TEST(CliTraceAnalyze, BadInputFailsWithAUsefulError) {
  const std::string path = testing::TempDir() + "ta_bad.json";
  {
    std::ofstream file(path);
    file << "{\"traceEvents\":[\n{\"name\":\"a\",\"ph\":\"X\",";
  }
  const CliRun run = run_cli("trace-analyze " + path);
  EXPECT_NE(run.exit_code, 0);
  std::remove(path.c_str());
  EXPECT_NE(run_cli("trace-analyze").exit_code, 0);
  EXPECT_NE(run_cli("trace-analyze --diff only_one.json").exit_code, 0);
}

}  // namespace
}  // namespace socet
