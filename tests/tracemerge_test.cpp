// Cross-process trace assembly: the clock-offset estimator against
// deterministic fake-clock handshakes, the spans wire format, the
// merged Chrome trace document (parent/child ordering on aligned
// timelines).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "socet/obs/tracemerge.hpp"

namespace socet {
namespace {

using obs::ClockSample;
using obs::SpanRecord;

// ------------------------------------------------------------ clock offset

TEST(ClockOffset, MinRttMidpointOnFakeClocks) {
  // A daemon clock exactly 1s ahead of the client clock.  Three probes
  // with different RTTs; the 2ms-RTT probe bounds the estimate.
  const std::int64_t true_offset = 1'000'000'000;
  std::vector<ClockSample> samples;
  const auto probe = [&](std::uint64_t send_ns, std::uint64_t rtt_ns,
                         std::int64_t asymmetry_ns) {
    ClockSample sample;
    sample.send_ns = send_ns;
    sample.recv_ns = send_ns + rtt_ns;
    // The server reads its clock somewhere inside the round trip;
    // asymmetry shifts it off the midpoint to model one-sided delay.
    sample.server_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(send_ns + rtt_ns / 2) + true_offset +
        asymmetry_ns);
    samples.push_back(sample);
  };
  probe(10'000'000, 40'000'000, 18'000'000);  // slow, badly skewed
  probe(60'000'000, 2'000'000, 500'000);      // fast: wins
  probe(70'000'000, 30'000'000, -12'000'000);
  const std::int64_t estimate = obs::estimate_clock_offset_ns(samples);
  // The min-RTT midpoint recovers the offset to within that probe's
  // asymmetry (500us here), not the slow probes' skew.
  EXPECT_NEAR(static_cast<double>(estimate), static_cast<double>(true_offset),
              500'001.0);
}

TEST(ClockOffset, ExactWhenTheFastProbeIsSymmetric) {
  std::vector<ClockSample> samples;
  ClockSample sample;
  sample.send_ns = 1'000;
  sample.recv_ns = 3'000;
  sample.server_ns = 2'000 + 5'000'000;  // midpoint + 5ms offset
  samples.push_back(sample);
  EXPECT_EQ(obs::estimate_clock_offset_ns(samples), 5'000'000);
}

TEST(ClockOffset, NegativeOffsetsAndHugeEpochsSurvive) {
  // Steady-clock readings near 2^60 exceed double precision; the
  // estimator must stay in integer arithmetic.
  const std::uint64_t epoch = 1ull << 60;
  std::vector<ClockSample> samples;
  ClockSample sample;
  sample.send_ns = epoch;
  sample.recv_ns = epoch + 2'000;
  sample.server_ns = epoch + 1'000 - 7'000'000'000ull;  // daemon 7s behind
  samples.push_back(sample);
  EXPECT_EQ(obs::estimate_clock_offset_ns(samples), -7'000'000'000);
}

TEST(ClockOffset, IgnoresGarbageSamples) {
  std::vector<ClockSample> samples;
  ClockSample bad;
  bad.send_ns = 5'000;
  bad.recv_ns = 1'000;  // recv before send: clock went backwards
  bad.server_ns = 99'999;
  samples.push_back(bad);
  EXPECT_EQ(obs::estimate_clock_offset_ns(samples), 0);
  EXPECT_EQ(obs::estimate_clock_offset_ns({}), 0);

  ClockSample good;
  good.send_ns = 10'000;
  good.recv_ns = 12'000;
  good.server_ns = 11'000 + 42;
  samples.push_back(good);
  EXPECT_EQ(obs::estimate_clock_offset_ns(samples), 42);
}

// -------------------------------------------------------------- span ids

TEST(SpanIds, UniqueAndNonZero) {
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = obs::new_span_id();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate span id";
  }
}

// ------------------------------------------------------- spans wire format

std::vector<SpanRecord> sample_spans() {
  SpanRecord outer;
  outer.name = "serve/job";
  outer.tid = 3;
  outer.id = 0xabcdef0123456789ull;
  outer.parent = 0x42;
  outer.start_ns = (1ull << 60) + 100;  // beyond double precision
  outer.end_ns = (1ull << 60) + 9'100;
  SpanRecord inner;
  inner.name = "plan \"quoted\"";
  inner.tid = 3;
  inner.id = 7;
  inner.parent = outer.id;
  inner.start_ns = outer.start_ns + 50;
  inner.end_ns = outer.end_ns - 50;
  return {outer, inner};
}

TEST(SpansJsonl, RoundTripsIdsAndNanosecondTimestamps) {
  const auto spans = sample_spans();
  const std::string text = obs::remote_spans_jsonl(spans);
  std::vector<SpanRecord> parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_remote_spans_jsonl(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].name, spans[i].name);
    EXPECT_EQ(parsed[i].tid, spans[i].tid);
    EXPECT_EQ(parsed[i].id, spans[i].id);
    EXPECT_EQ(parsed[i].parent, spans[i].parent);
    EXPECT_EQ(parsed[i].start_ns, spans[i].start_ns);  // exact, not double
    EXPECT_EQ(parsed[i].end_ns, spans[i].end_ns);
  }
}

TEST(SpansJsonl, MalformedLinesFailWithALineNumber) {
  std::vector<SpanRecord> parsed;
  std::string error;
  EXPECT_FALSE(obs::parse_remote_spans_jsonl(
      obs::remote_spans_jsonl(sample_spans()) + "{not json\n", &parsed,
      &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(SpansJsonl, EmptyInputIsAnEmptySpanList) {
  std::vector<SpanRecord> parsed;
  ASSERT_TRUE(obs::parse_remote_spans_jsonl("", &parsed, nullptr));
  EXPECT_TRUE(parsed.empty());
}

// -------------------------------------------------------- merged document

/// A deterministic two-job trace: client submit spans on one fake
/// clock, daemon spans on another exactly `offset` ahead.
obs::MergeInput fake_trace(std::int64_t offset_ns) {
  obs::MergeInput input;
  input.trace_id = 0x1234;
  input.clock_offset_ns = offset_ns;
  const std::uint64_t base = 1'000'000'000;  // client clock
  for (int job = 0; job < 2; ++job) {
    SpanRecord submit;
    submit.name = "submit #" + std::to_string(job + 1);
    submit.id = 100 + static_cast<std::uint64_t>(job);
    submit.start_ns = base + static_cast<std::uint64_t>(job) * 50'000;
    submit.end_ns = submit.start_ns + 40'000;
    input.client_spans.push_back(submit);

    const std::uint64_t daemon_base = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(submit.start_ns + 5'000) + offset_ns);
    SpanRecord queue;
    queue.name = "serve/queue";
    queue.tid = 0;
    queue.id = 200 + static_cast<std::uint64_t>(job);
    queue.parent = submit.id;
    queue.start_ns = daemon_base;
    queue.end_ns = daemon_base + 2'000;
    SpanRecord work;
    work.name = "serve/job";
    work.tid = 7;
    work.id = 300 + static_cast<std::uint64_t>(job);
    work.parent = submit.id;
    work.start_ns = daemon_base + 2'000;
    work.end_ns = daemon_base + 30'000;
    input.daemon_spans.push_back(queue);
    input.daemon_spans.push_back(work);
  }
  return input;
}

TEST(MergedTrace, ClientAndDaemonShareOneAlignedTimeline) {
  const std::string json = obs::merged_chrome_trace(fake_trace(123'000));
  // Both processes are named, both halves present, flows drawn.
  EXPECT_NE(json.find("\"socet client\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"socet serve\""), std::string::npos);
  EXPECT_NE(json.find("\"submit #1\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/job\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // The daemon's clock was 123us ahead; after re-basing, job 1's queue
  // span starts 5us after the submit span, i.e. at relative ts 5.000.
  EXPECT_NE(
      json.find("\"name\":\"serve/queue\",\"cat\":\"socet\",\"ts\":5.000,"),
      std::string::npos)
      << json;
  // Hex ids link the halves for tooling.
  EXPECT_NE(json.find("\"span\":\"0x64\""), std::string::npos);  // 100
  EXPECT_NE(json.find("\"parent\":\"0x64\""), std::string::npos);
}

TEST(MergedTrace, DaemonSpansStartInsideTheirParentSubmitWindow) {
  // Whatever the clock offset, re-based daemon spans must land inside
  // the client submit span that parents them — that is the acceptance
  // bar for "aligned timelines".
  for (const std::int64_t offset :
       {-5'000'000'000ll, 0ll, 777ll, 9'000'000'000ll}) {
    const auto input = fake_trace(offset);
    const std::string json = obs::merged_chrome_trace(input);
    // Client submit #1 covers relative [0, 40]us; its daemon children
    // must appear at ts >= 0 and start no later than 40us.
    const std::string needle = "\"name\":\"serve/queue\",\"cat\":\"socet\",\"ts\":";
    const auto queue_at = json.find(needle);
    ASSERT_NE(queue_at, std::string::npos) << json;
    const long ts =
        std::strtol(json.c_str() + queue_at + needle.size(), nullptr, 10);
    EXPECT_GE(ts, 0) << "offset " << offset;
    EXPECT_LE(ts, 40) << "offset " << offset;
  }
}

TEST(MergedTrace, EmptyInputStillRendersAValidSkeleton) {
  const std::string json = obs::merged_chrome_trace({});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace socet
