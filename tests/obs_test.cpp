// Observability subsystem: histogram bucket/quantile edge cases,
// counters under concurrent increments, trace export shape (id-linked X
// slices, named worker lanes), span capture, the run-report JSON with
// its resources block, the sampling profiler, and rusage accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "socet/obs/jsonin.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/report.hpp"
#include "socet/obs/resource.hpp"
#include "socet/obs/sampler.hpp"
#include "socet/obs/timer.hpp"
#include "socet/obs/trace.hpp"

#if defined(__linux__)
#include <signal.h>
#include <sys/time.h>
#endif

// Busy-loop leaf for the profiler smoke test: extern "C", noinline, and
// globally visible so `dladdr` can attribute samples to it by name
// (the obs library links with -rdynamic on Linux for exactly this).
// Callers go through the volatile pointer below — a direct call lets
// the optimizer emit local `.constprop` clones whose addresses are not
// in the dynamic symbol table, so samples would land in the clone and
// symbolize as `test_obs+0x...` instead of the function name.
std::atomic<unsigned long> socet_obs_test_spin_beat{0};

extern "C" __attribute__((noinline)) double socet_obs_test_busy_spin(
    unsigned long iters) {
  volatile double acc = 0;
  for (unsigned long i = 0; i < iters; ++i) {
    acc = acc + static_cast<double>(i & 1023u) * 1.0000001;
    // TSan defers async signals to the next atomic op or interceptor;
    // beating an atomic inside the loop makes SIGPROF fire while this
    // frame is on the stack, so attribution still works under TSan.
    if ((i & 255u) == 0) {
      socet_obs_test_spin_beat.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return acc;
}

double (*volatile socet_obs_test_busy_spin_ptr)(unsigned long) =
    socet_obs_test_busy_spin;

namespace socet {
namespace {

/// Count non-overlapping occurrences of `needle` in `text`.
std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Minimal structural JSON check: quotes, braces, and brackets balance
/// (good enough to catch truncated or unescaped output; the CI job runs
/// the real `python3 -m json.tool` on exported files).
bool json_balanced(const std::string& text) {
  long brace = 0;
  long bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    if (brace < 0 || bracket < 0) return false;
  }
  return !in_string && brace == 0 && bracket == 0;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::reset_trace();
    obs::reset_resources();
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::set_resources_enabled(false);
  }
  void TearDown() override { SetUp(); }
};

// ---------------------------------------------------------------- histogram

TEST_F(ObsTest, EmptyHistogramReportsZeros) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST_F(ObsTest, SingleSampleIsReportedExactly) {
  obs::Histogram h;
  h.record(37);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
  EXPECT_EQ(h.mean(), 37.0);
  // Every quantile of a one-sample distribution is that sample.
  EXPECT_EQ(h.quantile(0.0), 37.0);
  EXPECT_EQ(h.quantile(0.5), 37.0);
  EXPECT_EQ(h.quantile(1.0), 37.0);
}

TEST_F(ObsTest, BucketBoundariesArePowersOfTwo) {
  obs::Histogram h;
  // Bucket b covers (2^(b-1), 2^b]; zero and one land in bucket 0.
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0, 1
  EXPECT_EQ(h.bucket_count(1), 1u);  // 2
  EXPECT_EQ(h.bucket_count(2), 2u);  // 3, 4
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(1), 2u);
  EXPECT_EQ(obs::Histogram::bucket_bound(2), 4u);
}

TEST_F(ObsTest, OverflowSamplesLandInTheLastBucket) {
  obs::Histogram h;
  const std::uint64_t huge = ~0ull - 1;
  h.record(huge);
  EXPECT_EQ(h.bucket_count(obs::Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.max(), huge);
  // The overflow bucket's estimate is clamped to the observed max.
  EXPECT_EQ(h.quantile(0.99), static_cast<double>(huge));
}

TEST_F(ObsTest, QuantilesAreMonotoneAndWithinRange) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  EXPECT_GE(p50, static_cast<double>(h.min()));
  // Power-of-two buckets are coarse; the median of 1..1000 must still
  // land in the right order of magnitude.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
}

TEST_F(ObsTest, TopBucketInterpolatesToTheObservedMaxNotTheBound) {
  // 96 samples land in the (64, 128] bucket and 4 in (512, 1024].  The
  // p99 rank falls inside that final occupied bucket, whose power-of-two
  // ceiling (1024) is nearly twice the real maximum (513): the estimate
  // must interpolate toward the observed max, not the bucket bound.
  obs::Histogram h;
  for (int i = 0; i < 96; ++i) h.record(100);
  for (int i = 0; i < 4; ++i) h.record(513);
  const double p99 = h.quantile(0.99);
  EXPECT_GT(p99, 512.0);
  EXPECT_LT(p99, 513.0 + 1e-9);
  // The first occupied bucket is floored at the observed min, so the
  // median cannot dip below any recorded value.
  const double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 128.0);
}

TEST_F(ObsTest, BucketQuantileWithoutObservedExtremesFloorsTheOverflow) {
  // Window deltas only have bucket counts — no live min/max.  All mass
  // in the overflow bucket must report that bucket's floor (the largest
  // finite bound), not infinity or the ~0 sentinel.
  std::uint64_t buckets[obs::Histogram::kBuckets] = {};
  buckets[obs::Histogram::kBuckets - 1] = 5;
  const double q = obs::bucket_quantile(buckets, 5, 0.99, false, 0, 0);
  EXPECT_EQ(q, static_cast<double>(
                   obs::Histogram::bucket_bound(obs::Histogram::kBuckets - 2)));
}

TEST_F(ObsTest, ResetClearsEverything) {
  obs::Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

// ----------------------------------------------------------------- registry

TEST_F(ObsTest, DisabledMetricsRecordNothing) {
  SOCET_COUNT("obs_test/disabled_counter");
  SOCET_HISTOGRAM("obs_test/disabled_histogram", 7);
  const auto snap = obs::Registry::instance().snapshot();
  for (const auto& c : snap.counters) {
    EXPECT_NE(c.name, "obs_test/disabled_counter");
  }
  for (const auto& h : snap.histograms) {
    EXPECT_NE(h.name, "obs_test/disabled_histogram");
  }
}

TEST_F(ObsTest, ConcurrentCounterIncrementsAreExact) {
  obs::set_metrics_enabled(true);
  constexpr unsigned kThreads = 8;
  constexpr unsigned kIncrements = 10000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (unsigned i = 0; i < kIncrements; ++i) {
        SOCET_COUNT("obs_test/concurrent");
        SOCET_HISTOGRAM("obs_test/concurrent_hist", i);
        SOCET_GAUGE_MAX("obs_test/concurrent_gauge", i);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(obs::counter("obs_test/concurrent").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(obs::histogram("obs_test/concurrent_hist").count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(obs::gauge("obs_test/concurrent_gauge").value(),
            static_cast<std::int64_t>(kIncrements - 1));
}

TEST_F(ObsTest, SnapshotAndRenderersListEveryMetric) {
  obs::set_metrics_enabled(true);
  SOCET_COUNT_N("obs_test/a_counter", 3);
  SOCET_GAUGE_SET("obs_test/a_gauge", -5);
  SOCET_HISTOGRAM("obs_test/a_histogram", 16);
  // Registered names survive Registry::reset() (the mutation macros
  // cache references into the registry), so when the whole binary runs
  // in one process — as the TSan CI job does — earlier tests' metrics
  // are still listed here with zeroed values.  Assert membership, not
  // an exact size.
  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.size(), 3u);
  bool saw_counter = false;
  bool saw_gauge = false;
  bool saw_histogram = false;
  for (const auto& c : snap.counters) {
    saw_counter |= c.name == "obs_test/a_counter" && c.value == 3;
  }
  for (const auto& g : snap.gauges) {
    saw_gauge |= g.name == "obs_test/a_gauge" && g.value == -5;
  }
  for (const auto& h : snap.histograms) {
    saw_histogram |= h.name == "obs_test/a_histogram" && h.count == 1;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histogram);
  const std::string table = obs::Registry::instance().table_text();
  EXPECT_NE(table.find("obs_test/a_counter"), std::string::npos);
  EXPECT_NE(table.find("obs_test/a_gauge"), std::string::npos);
  EXPECT_NE(table.find("obs_test/a_histogram"), std::string::npos);
  const std::string json = obs::Registry::instance().json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"obs_test/a_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test/a_gauge\":-5"), std::string::npos);
}

// -------------------------------------------------------------------- trace

TEST_F(ObsTest, DisabledTracingRecordsNoSpans) {
  const std::uint64_t before = obs::new_span_id();
  { SOCET_SPAN("obs_test/ignored"); }
  EXPECT_TRUE(obs::recorded_spans().empty());
  // The disabled path mints no span id.
  EXPECT_EQ(obs::new_span_id(), before + 1);
}

TEST_F(ObsTest, TraceExportHasLinkedSlicesAndWorkerLanes) {
  obs::set_trace_enabled(true);
  {
    SOCET_SPAN("obs_test/outer");
    { SOCET_SPAN("obs_test/inner"); }
    { SOCET_SPAN("obs_test/inner"); }
  }
  std::thread worker([] {
    obs::name_this_thread("worker-1");
    SOCET_SPAN("obs_test/worker_span");
  });
  worker.join();  // the worker's buffer retires before export
  obs::set_trace_enabled(false);

  const auto spans = obs::recorded_spans();
  ASSERT_EQ(spans.size(), 4u);
  const obs::SpanRecord* outer = nullptr;
  const obs::SpanRecord* worker_span = nullptr;
  for (const auto& span : spans) {
    EXPECT_LE(span.start_ns, span.end_ns);
    EXPECT_NE(span.id, 0u);
    if (span.name == "obs_test/outer") outer = &span;
    if (span.name == "obs_test/worker_span") worker_span = &span;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(worker_span, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(worker_span->parent, 0u);  // a fresh thread starts a new tree
  EXPECT_NE(worker_span->tid, outer->tid);
  for (const auto& span : spans) {
    if (span.name == "obs_test/inner") {
      EXPECT_EQ(span.parent, outer->id);
      EXPECT_EQ(span.tid, outer->tid);
    }
  }

  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 4u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"span\":"), 4u);
  // Both inner slices name the outer span as parent.
  char outer_hex[32];
  std::snprintf(outer_hex, sizeof(outer_hex), "\"parent\":\"0x%llx\"",
                static_cast<unsigned long long>(outer->id));
  EXPECT_EQ(count_occurrences(json, outer_hex), 2u) << json;
  // The worker lane is labelled via a thread_name metadata event.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 1u);
  EXPECT_NE(json.find("\"worker-1\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":" + std::to_string(worker_span->tid) +
                      ",\"name\":\"obs_test/worker_span\""),
            std::string::npos)
      << json;
}

TEST_F(ObsTest, SpanCaptureParentsUnderTheRemoteSpan) {
  // Tracing stays off: the capture alone records.
  std::vector<obs::SpanRecord> records;
  {
    obs::SpanCapture capture(0x77, 0x1234);
    {
      SOCET_SPAN("obs_test/job");
      { SOCET_SPAN("obs_test/step"); }
      obs::SpanCapture nested(0x88, 0x5678);  // passive
      { SOCET_SPAN("obs_test/step"); }
      EXPECT_TRUE(nested.take().empty());
    }
    records = capture.take();
  }
  { SOCET_SPAN("obs_test/after"); }  // capture gone: nothing recorded
  EXPECT_TRUE(obs::recorded_spans().empty());
  ASSERT_EQ(records.size(), 3u);
  const obs::SpanRecord& job = records.back();  // closes last
  EXPECT_EQ(job.name, "obs_test/job");
  EXPECT_EQ(job.parent, 0x1234u);
  EXPECT_EQ(records[0].parent, job.id);
  EXPECT_EQ(records[1].parent, job.id);
  EXPECT_NE(records[0].id, records[1].id);
}

// ------------------------------------------------------------------- report

TEST_F(ObsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape(std::string("a\nb")), "a\\nb");
}

TEST_F(ObsTest, RunReportAggregatesSpansByStage) {
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  SOCET_COUNT("obs_test/report_counter");
  { SOCET_SPAN("stage_a/step_one"); }
  { SOCET_SPAN("stage_a/step_two"); }
  { SOCET_SPAN("stage_b/only"); }
  obs::set_trace_enabled(false);

  const std::string report = obs::run_report_json("obs_test");
  EXPECT_TRUE(json_balanced(report)) << report;
  EXPECT_NE(report.find("\"schema\":\"socet-report-v1\""), std::string::npos);
  EXPECT_NE(report.find("\"command\":\"obs_test\""), std::string::npos);
  EXPECT_NE(report.find("\"obs_test/report_counter\":1"), std::string::npos);
  EXPECT_NE(report.find("\"stage_a/step_one\""), std::string::npos);
  // Stage rollup: both stage_a spans fold into one "stage_a" entry.
  EXPECT_NE(report.find("\"stage_a\":{\"spans\":2"), std::string::npos);
  EXPECT_NE(report.find("\"stage_b\":{\"spans\":1"), std::string::npos);
}

TEST_F(ObsTest, StopWatchIsMonotone) {
  const obs::StopWatch watch;
  const std::uint64_t a = watch.elapsed_ns();
  const std::uint64_t b = watch.elapsed_ns();
  EXPECT_LE(a, b);
  EXPECT_GE(obs::now_ns(), a);
}

TEST_F(ObsTest, JsonNumberEmitsNullForNonFinite) {
  // A NaN/Inf metric must read back as "not a number", never as a
  // perfect zero (the bench-line parser rejects null wall_ms).
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(HUGE_VAL), "null");
  EXPECT_EQ(obs::json_number(-HUGE_VAL), "null");
  EXPECT_EQ(obs::json_number(12.0), "12");
  EXPECT_EQ(obs::json_number(12.5), "12.5");
}

// ---------------------------------------------------------------- resources

TEST_F(ObsTest, ResourceSnapshotsAreMonotone) {
  const obs::RunResources before = obs::run_resources();
  (void)socet_obs_test_busy_spin_ptr(2000000);
  std::vector<char> touch(1 << 20, 1);  // force some paging activity
  const obs::RunResources after = obs::run_resources();

  EXPECT_GT(after.peak_rss_kb, 0);
  EXPECT_GE(after.peak_rss_kb, before.peak_rss_kb);
  EXPECT_GE(after.usage.utime_us + after.usage.stime_us,
            before.usage.utime_us + before.usage.stime_us);
  EXPECT_GE(after.usage.minor_faults, before.usage.minor_faults);
  EXPECT_GE(after.usage.major_faults, before.usage.major_faults);
  // Hardware counters are optional (containers commonly deny perf),
  // but when available they must be live.
  if (after.hw_available) {
    EXPECT_GT(after.hw_cycles, before.hw_cycles);
    EXPECT_GT(after.hw_instructions, 0u);
  }
  EXPECT_NE(touch[12345], 0);
}

TEST_F(ObsTest, ResourceScopeAccumulatesPerStage) {
  obs::set_resources_enabled(true);
  {
    SOCET_RESOURCE_SCOPE("obs_test/stage_scope");
    (void)socet_obs_test_busy_spin_ptr(100000);
  }
  { SOCET_RESOURCE_SCOPE("obs_test/stage_scope"); }
  obs::set_resources_enabled(false);

  bool found = false;
  for (const obs::StageUsage& stage : obs::stage_resources()) {
    if (stage.name != "obs_test/stage_scope") continue;
    found = true;
    EXPECT_EQ(stage.count, 2u);
    EXPECT_GE(stage.usage.utime_us, 0);
    EXPECT_GE(stage.usage.minor_faults, 0);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, DisabledResourceScopeRecordsNothing) {
  { SOCET_RESOURCE_SCOPE("obs_test/disabled_scope"); }
  for (const obs::StageUsage& stage : obs::stage_resources()) {
    EXPECT_NE(stage.name, "obs_test/disabled_scope");
  }
}

// Golden schema for the report's `resources` block, read back through
// the real parser rather than substring checks.
TEST_F(ObsTest, RunReportEmbedsResourcesBlock) {
  obs::set_resources_enabled(true);
  { SOCET_RESOURCE_SCOPE("obs_test/report_stage"); }
  const std::string report = obs::run_report_json("obs_test");
  obs::set_resources_enabled(false);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(report, &doc, &error)) << error << "\n" << report;
  const obs::JsonValue* resources = doc.get("resources");
  ASSERT_NE(resources, nullptr);
  const obs::JsonValue* run = resources->get("run");
  ASSERT_NE(run, nullptr);
  for (const char* key : {"peak_rss_kb", "utime_us", "stime_us",
                          "minor_faults", "major_faults"}) {
    const obs::JsonValue* field = run->get(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_TRUE(field->is_number()) << key;
  }
  const obs::JsonValue* hw = run->get("hw");
  ASSERT_NE(hw, nullptr);
  ASSERT_NE(hw->get("available"), nullptr);
  EXPECT_TRUE(hw->get("available")->is_bool());
  for (const char* key : {"cycles", "instructions", "cache_misses"}) {
    ASSERT_NE(hw->get(key), nullptr) << key;
    EXPECT_TRUE(hw->get(key)->is_number()) << key;
  }
  const obs::JsonValue* stages = resources->get("stages");
  ASSERT_NE(stages, nullptr);
  const obs::JsonValue* stage = stages->get("obs_test/report_stage");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->get("count")->number_or(0), 1.0);
}

// ------------------------------------------------------------------ sampler

#if defined(__linux__)

TEST_F(ObsTest, DisabledSamplerInstallsNoHandler) {
  ASSERT_FALSE(obs::Sampler::running());
  struct sigaction current {};
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_DFL);
  itimerval timer{};
  ASSERT_EQ(getitimer(ITIMER_PROF, &timer), 0);
  EXPECT_EQ(timer.it_interval.tv_sec, 0);
  EXPECT_EQ(timer.it_interval.tv_usec, 0);
  EXPECT_EQ(timer.it_value.tv_sec, 0);
  EXPECT_EQ(timer.it_value.tv_usec, 0);
}

TEST_F(ObsTest, SamplerAttributesBusyLoopSamples) {
  ASSERT_TRUE(obs::sampler_supported());
  obs::Sampler::reset();
  obs::SamplerOptions options;
  options.interval_us = 500;  // 2 kHz so the smoke test stays short
  ASSERT_TRUE(obs::Sampler::start(options));
  EXPECT_TRUE(obs::Sampler::running());
  EXPECT_FALSE(obs::Sampler::start(options));  // no double-start

  volatile double sink = 0;
  const obs::StopWatch watch;
  while (obs::Sampler::sample_count() < 5 && watch.elapsed_ms() < 5000) {
    sink = sink + socet_obs_test_busy_spin_ptr(200000);
  }
  obs::Sampler::stop();
  EXPECT_FALSE(obs::Sampler::running());

  EXPECT_GE(obs::Sampler::sample_count(), 1u);
  const std::string folded = obs::Sampler::folded_stacks();
  EXPECT_NE(folded.find("socet_obs_test_busy_spin"), std::string::npos)
      << folded;
  const std::string table = obs::Sampler::top_functions_table();
  EXPECT_NE(table.find("samples"), std::string::npos);
  EXPECT_NE(table.find("socet_obs_test_busy_spin"), std::string::npos)
      << table;

  // stop() restored the default disposition and disarmed the timer.
  struct sigaction current {};
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_DFL);
  itimerval timer{};
  ASSERT_EQ(getitimer(ITIMER_PROF, &timer), 0);
  EXPECT_EQ(timer.it_value.tv_sec, 0);
  EXPECT_EQ(timer.it_value.tv_usec, 0);

  obs::Sampler::reset();
  EXPECT_EQ(obs::Sampler::sample_count(), 0u);
}

#endif  // __linux__

}  // namespace
}  // namespace socet
