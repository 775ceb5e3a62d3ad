// The socet serve daemon: framing, the byte-bounded cache, multi-client
// byte-identity against the in-process batch service, protocol-error
// isolation, admission control under a saturated queue, graceful drain,
// and CLI round-trips through the real `socet` binary.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "socet/obs/metrics.hpp"
#include "socet/obs/sampler.hpp"
#include "socet/obs/trace.hpp"
#include "socet/service/cache.hpp"
#include "socet/service/client.hpp"
#include "socet/service/protocol.hpp"
#include "socet/service/server.hpp"
#include "socet/service/service.hpp"
#include "socet/util/error.hpp"

namespace socet {
namespace {

using namespace std::chrono_literals;

// ----------------------------------------------------------------- framing

TEST(FrameReader, ReassemblesFramesAcrossArbitrarySplits) {
  const std::string wire = service::encode_frame("plan system=barcode") +
                           service::encode_frame("") +
                           service::encode_frame("stats");
  // Feed one byte at a time: every header/payload boundary is crossed.
  service::FrameReader reader;
  std::vector<std::string> payloads;
  for (char byte : wire) {
    reader.feed(&byte, 1);
    while (auto payload = reader.next()) payloads.push_back(*payload);
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "plan system=barcode");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], "stats");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReader, OversizedHeaderLatchesAndDropsTheTail) {
  service::FrameReader reader;
  const char huge[4] = {'\xff', '\xff', '\xff', '\xff'};
  reader.feed(huge, sizeof(huge));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.overflowed());
  EXPECT_EQ(reader.announced(), 0xffffffffu);
  // A valid frame after the bad header is unreachable: the stream
  // cannot be resynchronized.
  const std::string good = service::encode_frame("plan");
  reader.feed(good.data(), good.size());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameReader, EncodeRejectsOversizedPayloads) {
  EXPECT_THROW(
      service::encode_frame(std::string(service::kMaxFrameBytes + 1, 'x')),
      util::Error);
}

TEST(FrameReader, CorrFlagCarriesACorrelationId) {
  const std::string wire =
      service::encode_frame("plan system=barcode", "job-7") +
      service::encode_frame("stats");
  // One byte at a time again: the corr extension spans every boundary.
  service::FrameReader reader;
  std::vector<service::FrameReader::Frame> frames;
  for (char byte : wire) {
    reader.feed(&byte, 1);
    while (auto frame = reader.next_frame()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "plan system=barcode");
  EXPECT_EQ(frames[0].corr, "job-7");
  EXPECT_EQ(frames[1].payload, "stats");
  EXPECT_EQ(frames[1].corr, "");

  // next() is corr-oblivious: same payloads, id discarded.
  service::FrameReader plain;
  plain.feed(wire.data(), wire.size());
  EXPECT_EQ(plain.next().value(), "plan system=barcode");
  EXPECT_EQ(plain.next().value(), "stats");
}

TEST(FrameReader, MalformedCorrLengthLatchesLikeAnOversizedFrame) {
  // A flagged header announcing 2 body bytes whose corr_len byte claims
  // 5 bytes of corr: the stream cannot be trusted from here on.
  service::FrameReader reader;
  const char bad[] = {'\x80', '\x00', '\x00', '\x02', '\x05', 'x'};
  reader.feed(bad, sizeof(bad));
  EXPECT_FALSE(reader.next_frame().has_value());
  EXPECT_TRUE(reader.overflowed());
  EXPECT_EQ(reader.announced(), 0x80000002u);
}

TEST(FrameReader, TraceFlagCarriesTheTraceContext) {
  const service::FrameTrace context{0xdeadbeefcafef00dull, 0x1122334455667788ull};
  const std::string wire =
      service::encode_frame("plan system=barcode", "job-1", &context) +
      service::encode_frame("explore system=barcode", {}, &context) +
      service::encode_frame("stats");
  // One byte at a time: the 16-byte trace block spans every boundary,
  // with and without a corr section in front of it.
  service::FrameReader reader;
  std::vector<service::FrameReader::Frame> frames;
  for (char byte : wire) {
    reader.feed(&byte, 1);
    while (auto frame = reader.next_frame()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].payload, "plan system=barcode");
  EXPECT_EQ(frames[0].corr, "job-1");
  ASSERT_TRUE(frames[0].has_trace);
  EXPECT_EQ(frames[0].trace.trace_id, context.trace_id);
  EXPECT_EQ(frames[0].trace.parent_span, context.parent_span);
  EXPECT_EQ(frames[1].payload, "explore system=barcode");
  EXPECT_EQ(frames[1].corr, "");
  ASSERT_TRUE(frames[1].has_trace);
  EXPECT_EQ(frames[1].trace.trace_id, context.trace_id);
  EXPECT_FALSE(frames[2].has_trace);

  // next() is trace-oblivious: same payloads, context discarded.
  service::FrameReader plain;
  plain.feed(wire.data(), wire.size());
  EXPECT_EQ(plain.next().value(), "plan system=barcode");
  EXPECT_EQ(plain.next().value(), "explore system=barcode");
  EXPECT_EQ(plain.next().value(), "stats");
}

TEST(FrameReader, TraceBlockShorterThanSixteenBytesLatches) {
  // A trace-flagged header announcing a 2-byte body cannot hold the
  // fixed 16-byte context: unrecoverable, like an oversized frame.
  service::FrameReader reader;
  const char bad[] = {'\x40', '\x00', '\x00', '\x02', 'x', 'y'};
  reader.feed(bad, sizeof(bad));
  EXPECT_FALSE(reader.next_frame().has_value());
  EXPECT_TRUE(reader.overflowed());
  EXPECT_EQ(reader.announced(), 0x40000002u);
}

TEST(Protocol, EncodeRejectsOversizedCorrIds) {
  EXPECT_THROW(service::encode_frame("x", std::string(256, 'c')),
               util::Error);
  // At the limit it round-trips.
  const std::string frame =
      service::encode_frame("x", std::string(255, 'c'));
  service::FrameReader reader;
  reader.feed(frame.data(), frame.size());
  const auto decoded = reader.next_frame();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->corr.size(), 255u);
  EXPECT_EQ(decoded->payload, "x");
}

TEST(Protocol, BlockingReadStripsTheCorrExtension) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  service::write_frame(fds[0], "ok plan tat=42", "job-3");
  ::close(fds[0]);
  const auto payload = service::read_frame(fds[1]);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "ok plan tat=42");
  ::close(fds[1]);
}

TEST(Protocol, ParseHostPort) {
  const auto hp = service::parse_host_port("127.0.0.1:8080");
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 8080);
  EXPECT_THROW(service::parse_host_port("127.0.0.1"), util::Error);
  EXPECT_THROW(service::parse_host_port(":80"), util::Error);
  EXPECT_THROW(service::parse_host_port("host:"), util::Error);
  EXPECT_THROW(service::parse_host_port("host:0"), util::Error);
  EXPECT_THROW(service::parse_host_port("host:99999"), util::Error);
  EXPECT_THROW(service::parse_host_port("host:12x"), util::Error);
}

TEST(Protocol, BlockingReadThrowsOnTruncatedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Two header bytes, then EOF: the peer died inside the header.
  ASSERT_EQ(::write(fds[0], "\0\0", 2), 2);
  ::close(fds[0]);
  EXPECT_THROW(service::read_frame(fds[1]), util::Error);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A complete header announcing 10 bytes, then only 3 of them.
  const std::string partial = service::encode_frame("0123456789");
  ASSERT_EQ(::write(fds[0], partial.data(), 7),
            static_cast<ssize_t>(7));
  ::close(fds[0]);
  EXPECT_THROW(service::read_frame(fds[1]), util::Error);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  EXPECT_FALSE(service::read_frame(fds[1]).has_value());  // clean EOF
  ::close(fds[1]);
}

// ------------------------------------------------------- byte-bounded cache

service::PlanCache::Entry entry_of(const std::string& payload) {
  service::PlanCache::Entry entry;
  entry.payload = payload;
  return entry;
}

TEST(PlanCache, ByteBudgetEvictsFromTheColdEnd) {
  // Each entry costs payload (10) + overhead bytes; budget fits two.
  const std::size_t per_entry =
      10 + service::PlanCache::kEntryOverheadBytes;
  service::PlanCache cache(/*capacity=*/100, /*max_bytes=*/2 * per_entry);
  cache.insert(1, entry_of(std::string(10, 'a')));
  cache.insert(2, entry_of(std::string(10, 'b')));
  EXPECT_EQ(cache.bytes(), 2 * per_entry);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.insert(3, entry_of(std::string(10, 'c')));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * per_entry);
  EXPECT_FALSE(cache.lookup(1).has_value());  // key 1 was coldest
  EXPECT_TRUE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().evicted_bytes, per_entry);
}

TEST(PlanCache, ByteBudgetKeepsTheNewestEntryEvenWhenOversized) {
  service::PlanCache cache(/*capacity=*/100, /*max_bytes=*/64);
  cache.insert(1, entry_of(std::string(500, 'x')));  // alone over budget
  EXPECT_EQ(cache.size(), 1u);  // never evict down to an empty cache
  EXPECT_TRUE(cache.lookup(1).has_value());

  cache.insert(2, entry_of(std::string(500, 'y')));
  EXPECT_EQ(cache.size(), 1u);  // the old giant goes, the new one stays
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(2).has_value());
}

TEST(PlanCache, ZeroByteBudgetMeansUnbounded) {
  service::PlanCache cache(/*capacity=*/100, /*max_bytes=*/0);
  for (std::uint64_t key = 0; key < 50; ++key) {
    cache.insert(key, entry_of(std::string(1000, 'z')));
  }
  EXPECT_EQ(cache.size(), 50u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// ------------------------------------------------------------------ server

const std::vector<std::string> kJobFile = {
    "# exercise every verb, with repeats for cache hits",
    "plan system=barcode selection=1,2,1",
    "",
    "optimize system=system2 tat-budget=600000",
    "plan system=barcode selection=1,2,1",
    "explore system=barcode",
    "parallel system=barcode selection=2,2,2",
    "program system=barcode",
    "plan system=nope",  // error record, but the batch keeps going
    "optimize system=barcode w1=1.5 w2=0.25",
};

std::string serial_records(const std::vector<std::string>& lines) {
  service::ServiceOptions options;
  options.threads = 1;
  service::PlanningService service(options);
  return service.run_lines(lines).records_text();
}

service::Client connect_to(const service::Server& server,
                           std::size_t window = 16) {
  service::ClientOptions options;
  options.port = server.port();
  options.window = window;
  return service::Client(options);
}

/// The value of the unlabelled sample `name` in a Prometheus
/// exposition, or -1 when the exposition has no such line.
double sample_of(const std::string& exposition, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const auto at = exposition.find(key);
  if (at == std::string::npos) return -1;
  return std::strtod(exposition.c_str() + at + key.size(), nullptr);
}

TEST(Serve, MetricsVerbReportsTheCountersWithoutTelemetry) {
  service::ServerOptions options;  // no telemetry flag
  options.threads = 2;
  service::Server server(std::move(options));
  server.start();
  ASSERT_GT(server.port(), 0);

  auto client = connect_to(server);
  const std::string idle = client.query("metrics");
  ASSERT_EQ(idle.rfind("ok metrics\n", 0), 0u) << idle;
  EXPECT_EQ(sample_of(idle, "socet_serve_worker_count"), 2) << idle;
  EXPECT_EQ(sample_of(idle, "socet_serve_draining"), 0) << idle;
  EXPECT_EQ(sample_of(idle, "socet_serve_cache_entries"), 0) << idle;
  // A healthy daemon with no tailers has lost zero journal events.
  EXPECT_EQ(sample_of(idle, "socet_serve_tail_dropped_total"), 0) << idle;

  // kJobFile: 8 jobs, one of which fails.  Every counter is bumped
  // before the response is sent, so the figures are exact here.
  client.run_lines(kJobFile);
  const std::string busy = client.query("metrics");
  EXPECT_EQ(sample_of(busy, "socet_serve_requests_total"), 8) << busy;
  EXPECT_EQ(sample_of(busy, "socet_serve_responses_total"), 8) << busy;
  EXPECT_EQ(sample_of(busy, "socet_serve_errors_total"), 1) << busy;
  EXPECT_EQ(sample_of(busy, "socet_serve_busy_rejects_total"), 0) << busy;
  EXPECT_EQ(sample_of(busy, "socet_serve_connections_total"), 1) << busy;
  const auto stats = server.stats();
  EXPECT_EQ(sample_of(busy, "socet_serve_cache_hits_total"),
            static_cast<double>(stats.cache.hits))
      << busy;
  EXPECT_EQ(sample_of(busy, "socet_serve_cache_misses_total"),
            static_cast<double>(stats.cache.misses))
      << busy;
  EXPECT_EQ(sample_of(busy, "socet_serve_cache_insertions_total"),
            static_cast<double>(stats.cache.insertions))
      << busy;
}

TEST(Serve, RetiredStatusVerbsAreOrdinaryJobLines) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  EXPECT_EQ(client.query("stats").rfind("error unknown verb 'stats'", 0), 0u);
  EXPECT_EQ(client.query("health").rfind("error unknown verb 'health'", 0),
            0u);
  // A worker answered them: they count as (failed) requests.
  EXPECT_EQ(server.stats().requests, 2u);
  EXPECT_EQ(server.stats().errors, 2u);
}

TEST(Serve, MatchesBatchByteForByteAtEveryWorkerCount) {
  const std::string expected = serial_records(kJobFile);
  for (unsigned threads : {1u, 2u, 4u}) {
    service::ServerOptions options;
    options.threads = threads;
    service::Server server(std::move(options));
    server.start();
    auto client = connect_to(server);
    const auto report = client.run_lines(kJobFile);
    EXPECT_EQ(report.records_text(), expected) << threads << " workers";
    EXPECT_EQ(report.errors, 1u);
    EXPECT_EQ(report.busy, 0u);
  }
}

TEST(Serve, ManyClientsShareOneWarmCache) {
  service::ServerOptions options;
  options.threads = 4;
  service::Server server(std::move(options));
  server.start();
  const std::string expected = serial_records(kJobFile);

  // Concurrent clients: every one sees byte-identical records.
  std::vector<std::thread> threads;
  std::vector<std::string> outputs(6);
  for (std::size_t c = 0; c < outputs.size(); ++c) {
    threads.emplace_back([&server, &outputs, c] {
      auto client = connect_to(server);
      outputs[c] = client.run_lines(kJobFile).records_text();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::string& output : outputs) EXPECT_EQ(output, expected);

  // The cache outlives connections: a fresh client replaying the same
  // file hits on all 7 successful jobs; only the failing job (errors
  // are never cached) misses again.
  const auto before = server.stats();
  auto client = connect_to(server);
  client.run_lines(kJobFile);
  const auto after = server.stats();
  EXPECT_EQ(after.cache.misses, before.cache.misses + 1);
  EXPECT_GE(after.cache.hits, before.cache.hits + 7);
}

TEST(Serve, OversizedFrameKillsOnlyThatConnection) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();

  auto good = connect_to(server);
  EXPECT_EQ(good.query("clock").rfind("ok clock ", 0), 0u);

  // A raw connection announcing a 4 GiB frame: the server answers with
  // one error frame and closes; the stream cannot be resynchronized.
  const int bad_fd = service::net_connect("127.0.0.1", server.port());
  ASSERT_EQ(::write(bad_fd, "\xff\xff\xff\xff", 4), 4);
  const auto reply = service::read_frame(bad_fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("error oversized frame", 0), 0u) << *reply;
  EXPECT_FALSE(service::read_frame(bad_fd).has_value());  // then EOF
  ::close(bad_fd);

  // The well-behaved connection is unaffected.
  EXPECT_EQ(good.query("clock").rfind("ok clock ", 0), 0u);
  const auto report = good.run_lines({"plan system=barcode"});
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(server.stats().bad_frames, 1u);
}

TEST(Serve, PendingResponsesStillFlushBeforeTheErrorClose) {
  // A job request followed by garbage in the same burst: the job's
  // response arrives first (FIFO slots), then the error, then EOF.
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  const std::string burst =
      service::encode_frame("plan system=barcode") + "\xff\xff\xff\xff";
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  const auto first = service::read_frame(fd);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->rfind("ok plan ", 0), 0u) << *first;
  const auto second = service::read_frame(fd);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->rfind("error oversized frame", 0), 0u) << *second;
  EXPECT_FALSE(service::read_frame(fd).has_value());
  ::close(fd);
}

/// Parks worker threads inside before_execute until release() and
/// reports how many workers have entered, so admission/drain tests can
/// sequence requests deterministically against a busy pool.
class WorkerGate {
 public:
  void wait_entered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }
  std::function<void(const std::string&)> hook() {
    return [this](const std::string&) {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [&] { return released_; });
    };
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  std::size_t entered_ = 0;
  bool released_ = false;
};

TEST(Serve, SaturatedQueueAnswersBusyWithoutRunningTheJob) {
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.max_queue = 1;
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  // Job 1 occupies the only worker...
  service::write_frame(fd, "plan system=barcode");
  gate.wait_entered(1);
  // ...so job 2 fills the queue (depth 1) and job 3 exceeds the
  // high-water mark.  Frames on one connection process in order, which
  // makes the admission outcomes deterministic.
  service::write_frame(fd, "explore system=barcode");
  service::write_frame(fd, "program system=barcode");
  // Release only once job 3 is rejected; a worker freed earlier would
  // drain the queue and let job 3 in.
  while (server.stats().busy_rejects < 1) std::this_thread::sleep_for(1ms);
  gate.release();

  const auto r1 = service::read_frame(fd);
  const auto r2 = service::read_frame(fd);
  const auto r3 = service::read_frame(fd);
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_EQ(r1->rfind("ok plan ", 0), 0u) << *r1;
  EXPECT_EQ(r2->rfind("ok explore ", 0), 0u) << *r2;
  EXPECT_EQ(*r3, "busy queue=1 limit=1");
  ::close(fd);

  const auto stats = server.stats();
  EXPECT_EQ(stats.busy_rejects, 1u);
  EXPECT_EQ(stats.requests, 2u);  // the rejected job was never admitted
  EXPECT_EQ(stats.responses, 2u);
}

TEST(Serve, GracefulDrainFinishesAdmittedWorkAndRejectsTheRest) {
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "plan system=barcode");   // in flight
  gate.wait_entered(1);
  service::write_frame(fd, "explore system=barcode");  // admitted, queued
  // Drain only once the event loop has admitted it; otherwise the drain
  // can win the race and reject it as new work.
  while (server.stats().requests < 2) std::this_thread::sleep_for(1ms);

  server.request_drain();
  while (!server.stats().draining) std::this_thread::sleep_for(1ms);
  // New connections are refused once draining: the listen socket is
  // closed, so a connect attempt fails outright.
  EXPECT_THROW(service::net_connect("127.0.0.1", server.port()),
               util::Error);
  // New work on the existing connection is rejected, structured.  Wait
  // for the reject before releasing the worker: a connection owed
  // nothing is closed, and closing over an unread frame resets it.
  service::write_frame(fd, "program system=barcode");
  while (server.stats().busy_rejects < 1) std::this_thread::sleep_for(1ms);

  gate.release();
  const auto r1 = service::read_frame(fd);
  const auto r2 = service::read_frame(fd);
  const auto r3 = service::read_frame(fd);
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_EQ(r1->rfind("ok plan ", 0), 0u) << *r1;     // finished in flight
  EXPECT_EQ(r2->rfind("ok explore ", 0), 0u) << *r2;  // finished queued
  EXPECT_EQ(*r3, "busy draining");
  // Flushed and idle, the server closes the connection...
  EXPECT_FALSE(service::read_frame(fd).has_value());
  ::close(fd);
  // ...and the drain completes.
  server.wait();
  const auto stats = server.stats();
  EXPECT_EQ(stats.responses, 2u);
  EXPECT_EQ(stats.busy_rejects, 1u);
  EXPECT_EQ(stats.connections_open, 0u);
}

TEST(Serve, DrainAnswersFramesStillInTheKernelAndKeepsEarlierResponses) {
  // A window of one stops the event loop from reading the second frame
  // while the first is in flight, so the drain finds it still in the
  // kernel once the first response is written.  Closing over it would
  // reset the connection and could destroy that response.
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.client_window = 1;
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "plan system=barcode");
  gate.wait_entered(1);
  server.request_drain();
  while (!server.stats().draining) std::this_thread::sleep_for(1ms);
  service::write_frame(fd, "program system=barcode");
  gate.release();

  const auto r1 = service::read_frame(fd);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->rfind("ok plan ", 0), 0u) << *r1;
  const auto r2 = service::read_frame(fd);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, "busy draining");
  EXPECT_FALSE(service::read_frame(fd).has_value());  // write side shut
  ::close(fd);
  server.wait();
  const auto stats = server.stats();
  EXPECT_EQ(stats.responses, 1u);
  EXPECT_EQ(stats.busy_rejects, 1u);
  EXPECT_EQ(stats.connections_open, 0u);
}

TEST(Serve, DrainClosesIdleConnections) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "clock");
  ASSERT_TRUE(service::read_frame(fd).has_value());
  server.request_drain();
  EXPECT_FALSE(service::read_frame(fd).has_value());  // server-side close
  ::close(fd);
  server.wait();
}

TEST(Serve, ByteBoundedCacheReportsEvictionsInStats) {
  service::ServerOptions options;
  options.threads = 1;
  // A budget small enough that distinct explore payloads evict each
  // other but big enough for one entry.
  options.cache_bytes = 200;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  client.run_lines({"explore system=barcode", "explore system=system2",
                    "explore system=barcode"});
  const auto stats = server.stats();
  EXPECT_GE(stats.cache.evictions, 1u);
  EXPECT_GT(stats.cache.evicted_bytes, 0u);
  EXPECT_LE(stats.cache_entries, 2u);
  const std::string text = client.query("metrics");
  EXPECT_EQ(sample_of(text, "socet_serve_cache_evictions_total"),
            static_cast<double>(stats.cache.evictions))
      << text;
  EXPECT_EQ(sample_of(text, "socet_serve_cache_evicted_bytes_total"),
            static_cast<double>(stats.cache.evicted_bytes))
      << text;
}

// --------------------------------------------------------------- telemetry

TEST(Serve, StatsReportTheQueueHighWaterMark) {
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "plan system=barcode");
  gate.wait_entered(1);  // job 1 has been popped: the queue is empty
  service::write_frame(fd, "explore system=barcode");
  service::write_frame(fd, "program system=barcode");
  while (server.stats().queue_depth < 2) std::this_thread::sleep_for(1ms);
  gate.release();
  for (int job = 0; job < 3; ++job) {
    ASSERT_TRUE(service::read_frame(fd).has_value());
  }
  ::close(fd);

  EXPECT_EQ(server.stats().queue_depth_hwm, 2u);
  auto client = connect_to(server);
  const std::string text = client.query("metrics");
  EXPECT_EQ(sample_of(text, "socet_serve_queue_depth_hwm"), 2) << text;
}

TEST(Serve, MetricsVerbAndAccessLogCarryTheTelemetry) {
  const std::string log_path = testing::TempDir() + "serve_access.jsonl";
  std::remove(log_path.c_str());
  service::ServerOptions options;
  // One worker: the duplicate plan job deterministically hits the
  // cache (with more, it can race the first copy's fill and miss).
  options.threads = 1;
  options.access_log = log_path;  // any telemetry flag enables metrics
  service::Server server(std::move(options));
  server.start();
  {
    auto client = connect_to(server);
    EXPECT_EQ(client.run_lines(kJobFile).errors, 1u);
    const std::string reply = client.query("metrics");
    EXPECT_EQ(reply.rfind("ok metrics\n", 0), 0u) << reply;
    EXPECT_NE(reply.find("socet_serve_requests_total"), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("socet_serve_up 1"), std::string::npos) << reply;
    // The 1m window must already hold this batch: the baseline slot is
    // captured when the server starts, so the delta sees every job.
    EXPECT_NE(reply.find("socet_window_serve_request_us{window=\"1m\","
                         "quantile=\"0.5\"}"),
              std::string::npos)
        << reply;
    const std::string count_key =
        "socet_window_serve_request_us_count{window=\"1m\"} ";
    const auto at = reply.find(count_key);
    ASSERT_NE(at, std::string::npos) << reply;
    // kJobFile carries 8 jobs (comments/blanks are skipped).
    EXPECT_GE(std::stod(reply.substr(at + count_key.size())), 8.0) << reply;
  }
  server.request_drain();
  server.wait();

  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open());
  std::ostringstream raw;
  raw << log.rdbuf();
  const std::string lines = raw.str();
  EXPECT_NE(lines.find("\"type\":\"serve.access\""), std::string::npos);
  EXPECT_NE(lines.find("\"corr\":\"job-1\""), std::string::npos) << lines;
  EXPECT_NE(lines.find("\"verb\":\"plan\""), std::string::npos);
  EXPECT_NE(lines.find("\"verb\":\"metrics\""), std::string::npos);
  EXPECT_NE(lines.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(lines.find("\"cache\":\"hit\""), std::string::npos) << lines;
  std::remove(log_path.c_str());
}

/// One serial HTTP/1.0 exchange against the embedded metrics listener.
std::string http_get(unsigned short port, const std::string& request_line) {
  const int fd = service::net_connect("127.0.0.1", port);
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(Serve, HttpEndpointsServeMetricsAndFlipReadinessDuringDrain) {
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.metrics_http = true;  // port 0: the OS picks one
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();
  const unsigned short mport = server.metrics_port();
  ASSERT_GT(mport, 0);

  EXPECT_NE(http_get(mport, "GET /healthz HTTP/1.0").find("200 OK\r\n"),
            std::string::npos);
  EXPECT_NE(http_get(mport, "GET /readyz HTTP/1.0").find("ready"),
            std::string::npos);
  const std::string metrics = http_get(mport, "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("200 OK\r\n"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.find("socet_serve_up 1"), std::string::npos);
  EXPECT_NE(metrics.find("socet_serve_tail_dropped_total 0"),
            std::string::npos)
      << metrics;
  EXPECT_NE(http_get(mport, "GET /nope HTTP/1.0").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(mport, "POST /metrics HTTP/1.0").find("405"),
            std::string::npos);

  // Park the only worker, then drain: /readyz must flip to 503 while
  // the admitted job is still running, and stay reachable until wait()
  // returns (the listener outlives the event loop).
  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "plan system=barcode");
  gate.wait_entered(1);
  server.request_drain();
  std::string ready;
  while ((ready = http_get(mport, "GET /readyz HTTP/1.0")).find("503") ==
         std::string::npos) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_NE(ready.find("draining"), std::string::npos) << ready;
  EXPECT_NE(http_get(mport, "GET /healthz HTTP/1.0").find("200 OK\r\n"),
            std::string::npos);
  gate.release();
  ASSERT_TRUE(service::read_frame(fd).has_value());
  ::close(fd);
  server.wait();
  EXPECT_THROW(service::net_connect("127.0.0.1", mport), util::Error);
}

TEST(Serve, TelemetryLeavesRecordsByteIdentical) {
  const std::string expected = serial_records(kJobFile);
  const std::string log_path =
      testing::TempDir() + "serve_identity_access.jsonl";
  std::remove(log_path.c_str());
  service::ServerOptions options;
  options.threads = 3;
  options.metrics_http = true;
  options.access_log = log_path;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  EXPECT_EQ(client.run_lines(kJobFile).records_text(), expected);
  std::remove(log_path.c_str());
}

// ------------------------------------------- cross-process introspection

std::string hex_of(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIx64, value);
  return buffer;
}

TEST(Serve, ClockVerbAnswersThisProcessesMonotonicClock) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  // The server runs in this process, so its `clock` reading must nest
  // inside the request's round trip on the same steady clock — the
  // exact property the min-RTT midpoint estimate relies on.
  const std::uint64_t before = obs::now_ns();
  const std::string reply = client.query("clock");
  const std::uint64_t after = obs::now_ns();
  ASSERT_EQ(reply.rfind("ok clock ", 0), 0u) << reply;
  const std::uint64_t reported =
      std::strtoull(reply.c_str() + 9, nullptr, 10);
  EXPECT_GE(reported, before);
  EXPECT_LE(reported, after);
}

TEST(Serve, TracedRunKeepsRecordsIdenticalAndParentsDaemonSpans) {
  const std::string expected = serial_records(kJobFile);
  service::ServerOptions options;
  options.threads = 2;
  service::Server server(std::move(options));
  server.start();

  service::ClientOptions client_options;
  client_options.port = server.port();
  client_options.trace = true;
  service::Client client(client_options);
  const auto report = client.run_lines(kJobFile);
  // The tentpole guarantee: tracing never changes the records.
  EXPECT_EQ(report.records_text(), expected);

  ASSERT_NE(report.trace.trace_id, 0u);
  ASSERT_EQ(report.trace.client_spans.size(), report.jobs);
  std::set<std::uint64_t> client_ids;
  std::set<std::uint64_t> all_ids;
  for (const auto& span : report.trace.client_spans) {
    EXPECT_NE(span.id, 0u);
    EXPECT_GE(span.end_ns, span.start_ns);
    client_ids.insert(span.id);
    all_ids.insert(span.id);
  }
  // Every job contributes at least serve/job + serve/queue +
  // serve/respond on the daemon side.
  ASSERT_GE(report.trace.daemon_spans.size(), 3 * report.jobs);
  for (const auto& span : report.trace.daemon_spans) all_ids.insert(span.id);
  std::size_t under_submit = 0;
  std::set<std::string> names;
  for (const auto& span : report.trace.daemon_spans) {
    names.insert(span.name);
    // The parent chain never dangles: every daemon span hangs off a
    // client submit span or another daemon span of the same trace.
    EXPECT_NE(span.parent, 0u) << span.name;
    EXPECT_EQ(all_ids.count(span.parent), 1u) << span.name;
    if (client_ids.count(span.parent) == 1) ++under_submit;
  }
  EXPECT_EQ(names.count("serve/job"), 1u);
  EXPECT_EQ(names.count("serve/queue"), 1u);
  EXPECT_EQ(names.count("serve/respond"), 1u);
  // Each job's queue/job/respond spans parent its submit span directly.
  EXPECT_GE(under_submit, 3 * report.jobs);

  // The merged document renders both halves with flow arrows.
  const std::string merged = report.trace.chrome_trace();
  EXPECT_NE(merged.find("\"socet client\""), std::string::npos);
  EXPECT_NE(merged.find("\"socet serve\""), std::string::npos);
  EXPECT_NE(merged.find("\"serve/job\""), std::string::npos);
  EXPECT_NE(merged.find("\"ph\":\"s\""), std::string::npos);

  // Collection releases the stored spans: a second fetch is empty.
  const std::string again =
      client.query("spans " + hex_of(report.trace.trace_id));
  EXPECT_EQ(again.rfind("ok spans 0", 0), 0u) << again;
}

TEST(Serve, SpansVerbRejectsMalformedIds) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  EXPECT_EQ(client.query("spans").rfind("error bad spans id", 0), 0u);
  EXPECT_EQ(client.query("spans zz").rfind("error bad spans id", 0), 0u);
  EXPECT_EQ(client.query("spans 0").rfind("error bad spans id", 0), 0u);
  // A well-formed id that was never traced is just an empty set.
  EXPECT_EQ(client.query("spans deadbeef").rfind("ok spans 0", 0), 0u);
}

TEST(Serve, TailStreamsOnlyTheWatchedCorrUnderConcurrentWorkers) {
  service::ServerOptions options;
  options.threads = 4;
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "tail corr=job-2");
  const auto ack = service::read_frame(fd);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(*ack, "ok tail");

  // Eight jobs race across four workers; every one emits journal
  // events under its own corr, but only job-2's may reach this watcher.
  {
    auto client = connect_to(server);
    client.run_lines(kJobFile);
  }
  for (int i = 0; i < 2; ++i) {
    const auto event = service::read_frame(fd);
    ASSERT_TRUE(event.has_value());
    EXPECT_NE(event->find("\"corr\":\"job-2\""), std::string::npos)
        << *event;
  }
  ::close(fd);
}

TEST(Serve, TailTypePrefixFilterWatchesConnectionEvents) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "tail type=serve/conn");
  const auto ack = service::read_frame(fd);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(*ack, "ok tail");

  // A connection that comes and goes produces exactly an accept and a
  // close event, in that order — both type serve/conn.
  const int other = service::net_connect("127.0.0.1", server.port());
  ::close(other);
  const auto accept_event = service::read_frame(fd);
  ASSERT_TRUE(accept_event.has_value());
  EXPECT_NE(accept_event->find("\"type\":\"serve/conn\""),
            std::string::npos)
      << *accept_event;
  EXPECT_NE(accept_event->find("\"event\":\"accept\""), std::string::npos)
      << *accept_event;
  const auto close_event = service::read_frame(fd);
  ASSERT_TRUE(close_event.has_value());
  EXPECT_NE(close_event->find("\"event\":\"close\""), std::string::npos)
      << *close_event;
  ::close(fd);
}

TEST(Serve, TailRejectsUnknownFilters) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  EXPECT_EQ(client.query("tail nope=3"),
            "error bad tail filter 'nope=3'");
  // The reject did not subscribe the connection: normal traffic works.
  EXPECT_EQ(client.query("clock").rfind("ok clock ", 0), 0u);
}

TEST(Serve, JournalRingServesTheJournalVerb) {
  service::ServerOptions options;
  options.threads = 1;
  options.journal_ring = 256;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  client.run_lines({"plan system=barcode selection=1,2,1"});
  const std::string reply = client.query("journal");
  ASSERT_EQ(reply.rfind("ok journal\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("\"schema\":\"socet-journal-v1\""),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"kind\":\"ring\""), std::string::npos);
  // The job's decision events are in the ring under the wire corr id.
  EXPECT_NE(reply.find("\"corr\":\"job-1\""), std::string::npos) << reply;
}

TEST(Serve, JournalVerbWithoutARingIsAStructuredError) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  EXPECT_EQ(client.query("journal").rfind("error journal ring disabled", 0),
            0u);
}

TEST(Serve, ProfileVerbRunsOneWindowAtATime) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);

  EXPECT_EQ(client.query("profile nope")
                .rfind("error bad profile duration", 0),
            0u);
  EXPECT_EQ(
      client.query("profile 31").rfind("error bad profile duration", 0),
      0u);
  EXPECT_EQ(client.query("profile 0").rfind("error bad profile duration", 0),
            0u);
  if (!obs::sampler_supported()) {
    EXPECT_EQ(client.query("profile 0.2"),
              "error profiling unsupported on this platform");
    return;
  }

  // Arm a window from a raw connection; the daemon runs in this
  // process, so the sampler state is directly observable.
  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "profile 0.5");
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!obs::Sampler::running() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(obs::Sampler::running());
  // A second window while one is live is a structured busy reject.
  EXPECT_EQ(client.query("profile 0.2"), "busy profiling");
  const auto reply = service::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ok profile samples=", 0), 0u) << *reply;
  ::close(fd);
}

TEST(Serve, AccessLogRotatesAtTheByteBound) {
  const std::string log_path = testing::TempDir() + "serve_rotating.jsonl";
  const std::string rolled_path = log_path + ".1";
  std::remove(log_path.c_str());
  std::remove(rolled_path.c_str());
  service::ServerOptions options;
  options.threads = 1;
  options.access_log = log_path;
  options.access_log_max_bytes = 600;  // a few entries per generation
  {
    service::Server server(std::move(options));
    server.start();
    auto client = connect_to(server);
    client.run_lines(kJobFile);
    server.request_drain();
    server.wait();
  }
  std::ifstream rolled(rolled_path);
  ASSERT_TRUE(rolled.is_open()) << "no rollover file " << rolled_path;
  std::ostringstream rolled_raw;
  rolled_raw << rolled.rdbuf();
  EXPECT_NE(rolled_raw.str().find("\"type\":\"serve.access\""),
            std::string::npos);
  std::ifstream current(log_path);
  ASSERT_TRUE(current.is_open());
  std::remove(log_path.c_str());
  std::remove(rolled_path.c_str());
}

TEST(Serve, EveryMetricsFamilyIsTypedExactlyOnce) {
  const std::string log_path = testing::TempDir() + "serve_families.jsonl";
  std::remove(log_path.c_str());
  service::ServerOptions options;  // every telemetry flag on
  options.threads = 1;  // so worker 1 surely records busy time
  options.metrics_http = true;
  options.access_log = log_path;
  options.journal_ring = 64;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  client.run_lines(kJobFile);
  const std::string verb = client.query("metrics");
  ASSERT_EQ(verb.rfind("ok metrics\n", 0), 0u) << verb;
  const std::string http =
      http_get(server.metrics_port(), "GET /metrics HTTP/1.0");
  for (const std::string& text : {verb, http}) {
    std::map<std::string, int> families;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("# TYPE ", 0) != 0) continue;
      std::istringstream fields(line.substr(7));
      std::string name;
      fields >> name;
      ++families[name];
    }
    for (const auto& [name, count] : families) {
      EXPECT_EQ(count, 1) << name;
    }
    // The server counters, the registry's latency windows and busy time.
    for (const char* name :
         {"socet_serve_requests_total", "socet_serve_responses_total",
          "socet_serve_errors_total", "socet_serve_busy_rejects_total",
          "socet_serve_bad_frames_total", "socet_serve_connections_total",
          "socet_serve_cache_hits_total", "socet_serve_cache_misses_total",
          "socet_serve_cache_insertions_total",
          "socet_serve_cache_evictions_total",
          "socet_serve_cache_evicted_bytes_total",
          "socet_serve_queue_depth_hwm", "socet_serve_request_us",
          "socet_window_serve_request_us",
          "socet_serve_worker1_busy_us_total"}) {
      EXPECT_EQ(families.count(name), 1u) << name;
    }
    // Retired: the registry copy of the queue high-water mark and the
    // windowed copies of the server counters.
    for (const char* name :
         {"socet_serve_queue_depth", "socet_window_serve_requests",
          "socet_window_serve_busy_rejects", "socet_window_serve_bad_frames",
          "socet_window_serve_connections"}) {
      EXPECT_EQ(families.count(name), 0u) << name;
    }
  }
  server.request_drain();
  server.wait();
  std::remove(log_path.c_str());
}

TEST(Serve, AccessLogQueueWaitAndBuildInfoExposeTheIntrospectionPlane) {
  const std::string log_path = testing::TempDir() + "serve_queue_us.jsonl";
  std::remove(log_path.c_str());
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.metrics_http = true;
  options.access_log = log_path;
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();
  const unsigned short mport = server.metrics_port();
  ASSERT_GT(mport, 0);

  // Job 1 parks the only worker, job 2 waits behind it: both spend at
  // least 30 ms between admission and pickup, little of it working.
  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "plan system=barcode");
  gate.wait_entered(1);
  service::write_frame(fd, "explore system=barcode");
  while (server.stats().requests < 2) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(30ms);
  gate.release();
  ASSERT_TRUE(service::read_frame(fd).has_value());
  ASSERT_TRUE(service::read_frame(fd).has_value());
  ::close(fd);

  const std::string metrics = http_get(mport, "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("socet_build_info{version=\""), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("git=\""), std::string::npos);
  EXPECT_NE(metrics.find("socet_start_time_seconds "), std::string::npos);
  EXPECT_NE(http_get(mport, "GET /debug/slowreqs HTTP/1.0").find("404"),
            std::string::npos);
  server.request_drain();
  server.wait();

  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open());
  std::string line;
  int jobs = 0;
  while (std::getline(log, line)) {
    const auto field = [&line](const char* key) {
      const std::string needle = std::string("\"") + key + "\":";
      const auto at = line.find(needle);
      EXPECT_NE(at, std::string::npos) << key << " in " << line;
      return at == std::string::npos
                 ? -1.0
                 : std::strtod(line.c_str() + at + needle.size(), nullptr);
    };
    ++jobs;
    EXPECT_GE(field("queue_us"), 30000.0) << line;
    EXPECT_GE(field("wall_us"), 0.0) << line;
  }
  EXPECT_EQ(jobs, 2);
  std::remove(log_path.c_str());
}

// --------------------------------------------------------------------- CLI

struct CliRun {
  std::string output;
  int exit_code = 0;
};

CliRun run_cli(const std::string& arguments) {
  const std::string command =
      std::string(SOCET_CLI_PATH) + " " + arguments + " 2>/dev/null";
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

TEST(Cli, ClientAndBatchConnectMatchLocalBatch) {
  service::ServerOptions options;
  options.threads = 2;
  service::Server server(std::move(options));
  server.start();
  const std::string connect =
      "127.0.0.1:" + std::to_string(server.port());

  const std::string path = testing::TempDir() + "serve_cli_jobs.txt";
  {
    std::ofstream file(path);
    for (const std::string& line : kJobFile) file << line << "\n";
  }
  const CliRun local = run_cli("batch --jobs " + path);
  EXPECT_EQ(local.exit_code, 1);  // kJobFile contains one failing job
  const CliRun remote_client =
      run_cli("client --connect " + connect + " --jobs " + path);
  EXPECT_EQ(remote_client.exit_code, 1);
  EXPECT_EQ(remote_client.output, local.output);
  const CliRun remote_batch =
      run_cli("batch --connect " + connect + " --jobs " + path);
  EXPECT_EQ(remote_batch.exit_code, 1);
  EXPECT_EQ(remote_batch.output, local.output);

  // The second replay is served from the warm cache.
  const CliRun metrics = run_cli("client --connect " + connect + " metrics");
  EXPECT_EQ(metrics.exit_code, 0);
  EXPECT_EQ(metrics.output.rfind("ok metrics\n", 0), 0u) << metrics.output;
  EXPECT_EQ(sample_of(metrics.output, "socet_serve_worker_count"), 2);
  EXPECT_EQ(sample_of(metrics.output, "socet_serve_draining"), 0);
  EXPECT_GE(sample_of(metrics.output, "socet_serve_cache_hits_total"), 7)
      << metrics.output;
  std::remove(path.c_str());
}

TEST(Cli, ClientRejectsBadArguments) {
  EXPECT_EQ(run_cli("client --jobs nowhere.txt").exit_code, 1);
  EXPECT_EQ(run_cli("client --connect 127.0.0.1 --jobs x").exit_code, 1);
  EXPECT_EQ(run_cli("client --connect 127.0.0.1:1 bogus").exit_code, 1);
  EXPECT_EQ(run_cli("client --connect 127.0.0.1:1 stats").exit_code, 1);
  // Nothing is listening on a fresh ephemeral port's neighbour; a
  // connect failure is an error, not a hang.
  EXPECT_EQ(run_cli("serve --threads 0").exit_code, 1);
}

TEST(Cli, TopAndMetricsVerbRenderLiveTelemetry) {
  const std::string log_path = testing::TempDir() + "top_access.jsonl";
  std::remove(log_path.c_str());
  service::ServerOptions options;
  options.threads = 2;
  options.access_log = log_path;  // turns the telemetry plane on
  service::Server server(std::move(options));
  server.start();
  const std::string connect =
      "127.0.0.1:" + std::to_string(server.port());
  auto client = connect_to(server);  // seed some traffic to display
  client.run_lines({"plan system=barcode", "explore system=barcode",
                    "plan system=barcode"});

  const CliRun top = run_cli("top --connect " + connect +
                             " --iterations 2 --interval-ms 10");
  EXPECT_EQ(top.exit_code, 0) << top.output;
  EXPECT_NE(top.output.find("socet top"), std::string::npos) << top.output;
  EXPECT_NE(top.output.find("p95_us"), std::string::npos) << top.output;
  EXPECT_NE(top.output.find("1m"), std::string::npos) << top.output;
  EXPECT_NE(top.output.find("worker busy%: w1="), std::string::npos)
      << top.output;

  const CliRun metrics = run_cli("client --connect " + connect + " metrics");
  EXPECT_EQ(metrics.exit_code, 0);
  EXPECT_EQ(metrics.output.rfind("ok metrics", 0), 0u) << metrics.output;
  EXPECT_NE(metrics.output.find("socet_serve_up 1"), std::string::npos);
  std::remove(log_path.c_str());
}

TEST(Cli, BatchConnectTraceKeepsStdoutIdenticalAndWritesOneMergedTrace) {
  service::ServerOptions options;
  options.threads = 2;
  service::Server server(std::move(options));
  server.start();
  const std::string connect = "127.0.0.1:" + std::to_string(server.port());

  const std::string jobs_path = testing::TempDir() + "serve_trace_jobs.txt";
  {
    std::ofstream file(jobs_path);
    for (const std::string& line : kJobFile) file << line << "\n";
  }
  const std::string trace_path = testing::TempDir() + "serve_trace.json";
  std::remove(trace_path.c_str());

  const CliRun plain =
      run_cli("batch --connect " + connect + " --jobs " + jobs_path);
  const CliRun traced = run_cli("batch --connect " + connect + " --jobs " +
                                jobs_path + " --trace " + trace_path);
  // The acceptance pin: --trace never changes what batch prints.
  EXPECT_EQ(traced.exit_code, plain.exit_code);
  EXPECT_EQ(traced.output, plain.output);

  std::ifstream file(trace_path);
  ASSERT_TRUE(file.is_open()) << "no merged trace at " << trace_path;
  std::ostringstream raw;
  raw << file.rdbuf();
  const std::string merged = raw.str();
  // ONE document holding both halves of the trace, flows included.
  EXPECT_NE(merged.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(merged.find("\"socet client\""), std::string::npos);
  EXPECT_NE(merged.find("\"socet serve\""), std::string::npos);
  EXPECT_NE(merged.find("\"serve/job\""), std::string::npos);
  EXPECT_NE(merged.find("\"ph\":\"s\""), std::string::npos);
  std::remove(jobs_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Cli, TailFollowsTheLiveJournalOverTheWire) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  const std::string connect = "127.0.0.1:" + std::to_string(server.port());

  // Feed jobs until the tail below has seen enough; every replay uses
  // corr job-1, which is exactly what the watcher filters on.
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    while (!stop.load()) {
      auto client = connect_to(server);
      client.run_lines({"plan system=barcode"});
      std::this_thread::sleep_for(20ms);
    }
  });
  const CliRun tail =
      run_cli("tail --connect " + connect + " --corr job-1 --count 2");
  stop.store(true);
  feeder.join();
  EXPECT_EQ(tail.exit_code, 0) << tail.output;
  // Two JSONL lines, each a live journal event for the watched corr.
  EXPECT_NE(tail.output.find("\"corr\":\"job-1\""), std::string::npos)
      << tail.output;
  EXPECT_EQ(static_cast<int>(std::count(tail.output.begin(),
                                        tail.output.end(), '\n')),
            2)
      << tail.output;
}

TEST(Cli, TopPrintsAReconnectBannerWhenTheDaemonIsGone) {
  // Nothing listens on the discard port; top must not crash or hang —
  // it banners, backs off (500ms then 1000ms), and exits cleanly.
  const CliRun top =
      run_cli("top --connect 127.0.0.1:9 --iterations 2 --interval-ms 10");
  EXPECT_EQ(top.exit_code, 0) << top.output;
  EXPECT_NE(top.output.find("reconnecting in 500ms"), std::string::npos)
      << top.output;
  EXPECT_NE(top.output.find("reconnecting in 1000ms"), std::string::npos)
      << top.output;
}

TEST(Cli, TopShowsTheServerCountersWithoutTelemetry) {
  service::ServerOptions options;  // no telemetry flag
  options.threads = 1;  // the repeated plan deterministically hits
  service::Server server(std::move(options));
  server.start();
  const std::string connect = "127.0.0.1:" + std::to_string(server.port());
  auto client = connect_to(server);
  client.run_lines({"plan system=barcode", "explore system=barcode",
                    "plan system=barcode"});

  const CliRun top = run_cli("top --connect " + connect +
                             " --iterations 1 --interval-ms 10");
  EXPECT_EQ(top.exit_code, 0) << top.output;
  EXPECT_NE(top.output.find("workers=1 "), std::string::npos) << top.output;
  EXPECT_NE(top.output.find("draining=0"), std::string::npos) << top.output;
  EXPECT_NE(top.output.find("requests=3 "), std::string::npos) << top.output;
  EXPECT_NE(top.output.find("responses=3 "), std::string::npos)
      << top.output;
  EXPECT_NE(top.output.find("cache hits=1 misses=2 "), std::string::npos)
      << top.output;
}

}  // namespace
}  // namespace socet
