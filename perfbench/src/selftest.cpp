// Self-tests of the benchmark's own helpers.  They run before every
// workload, so a broken helper fails the run instead of skewing it.
#include <cstdio>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test failed: %s\n", what);
  }
}

void trace_writer_keeps_late_spans_exact() {
  // Two spans 1 ns apart, starting more than 10 s after the epoch: a
  // %.6g microsecond rendering would merge them onto one tick.
  constexpr std::int64_t kLate = 10'500'000'001;
  std::vector<Span> spans = {{"a", kLate, kLate + 1, 1, 0},
                             {"b", kLate + 1, kLate + 2, 2, 1}};
  const std::string text = render_spans_jsonl(spans);
  expect(text ==
             "{\"name\":\"a\",\"id\":1,\"parent\":0,"
             "\"start_ns\":10500000001,\"end_ns\":10500000002}\n"
             "{\"name\":\"b\",\"id\":2,\"parent\":1,"
             "\"start_ns\":10500000002,\"end_ns\":10500000003}\n",
         "trace writer renders late spans as exact integer nanoseconds");
  expect(span_seconds(spans, "a") == 1e-9, "span_seconds of a 1 ns span");
}

void span_coverage_merges_overlaps() {
  const std::vector<Span> spans = {{"x", 0, 40, 1, 0},
                                   {"y", 30, 60, 2, 0},
                                   {"root", 0, 100, 3, 0},
                                   {"z", 80, 120, 4, 0}};
  expect(span_coverage(spans, 0, 100, {"root"}) == 0.8,
         "coverage unions overlapping spans and clips to the window");
}

void tail_percentile_needs_ten_beyond() {
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  auto tail = tail_percentile(thousand, 99);
  expect(tail && tail->percentile == 99 && tail->value == 990 &&
             tail->samples == 1000,
         "1000 samples support p99 (10 samples beyond rank 990)");

  std::vector<double> five_hundred(thousand.begin(), thousand.begin() + 500);
  tail = tail_percentile(five_hundred, 99);
  expect(tail && tail->percentile == 95 && tail->value == 475,
         "500 samples fall back from p99 to p95");

  std::vector<double> twenty(thousand.begin(), thousand.begin() + 20);
  tail = tail_percentile(twenty, 99);
  expect(tail && tail->percentile == 50 && tail->value == 10,
         "20 samples support only the median");

  std::vector<double> nineteen(thousand.begin(), thousand.begin() + 19);
  expect(!tail_percentile(nineteen, 99), "19 samples support no percentile");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");
}

void digest_is_fnv1a() {
  Digest digest;
  digest.bytes("a", 1);
  expect(digest.hex() == "af63dc4c8601ec8c", "FNV-1a 64 of \"a\"");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  trace_writer_keeps_late_spans_exact();
  span_coverage_merges_overlaps();
  tail_percentile_needs_ten_beyond();
  digest_is_fnv1a();
  return failures;
}

}  // namespace perfbench
