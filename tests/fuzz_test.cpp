// Robustness: the text parsers must reject arbitrary garbage with a
// util::Error (never crash, never accept), and survive structured
// mutations of valid inputs.  Every parser that takes bytes from the
// wire or from a file is mutation-fuzzed the same way: it accepts the
// input, or rejects it with util::Error or `false` — nothing else.
// (The HTTP request-line parser is private to httpd.cpp and is left
// out rather than exported only for this test.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "socet/core/serialize.hpp"
#include "socet/obs/explain.hpp"
#include "socet/obs/jsonin.hpp"
#include "socet/obs/traceanalyze.hpp"
#include "socet/obs/tracemerge.hpp"
#include "socet/rtl/text.hpp"
#include "socet/service/job.hpp"
#include "socet/service/protocol.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/rng.hpp"

namespace socet {
namespace {

std::string random_garbage(util::Rng& rng, std::size_t length) {
  static constexpr char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 :.->#\n\t_";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(alphabet[rng.next_below(sizeof(alphabet) - 1)]);
  }
  return out;
}

TEST(Fuzz, RtlParserNeverAcceptsGarbage) {
  util::Rng rng(0xF022);
  for (int trial = 0; trial < 200; ++trial) {
    const auto text = random_garbage(rng, 40 + rng.next_below(200));
    EXPECT_THROW(rtl::parse_netlist(text), util::Error) << text;
  }
}

TEST(Fuzz, InterfaceParserNeverAcceptsGarbage) {
  util::Rng rng(0xF023);
  for (int trial = 0; trial < 200; ++trial) {
    const auto text = random_garbage(rng, 40 + rng.next_below(200));
    EXPECT_THROW(core::parse_interface(text), util::Error) << text;
  }
}

TEST(Fuzz, MutatedValidRtlThrowsOrParses) {
  // Flip random characters in a valid dump: the parser must either accept
  // a (still well-formed) variant or throw — never crash or hang.
  const std::string valid = rtl::serialize_netlist(systems::make_gcd_rtl());
  util::Rng rng(0xF024);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<char>('0' + rng.next_below(75));
    }
    try {
      auto netlist = rtl::parse_netlist(mutated);
      ++accepted;
    } catch (const util::Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0) << "mutations never rejected - parser too lax?";
  EXPECT_EQ(accepted + rejected, 150);
}

TEST(Fuzz, MutatedValidInterfaceThrowsOrParses) {
  core::Core gcd = core::Core::prepare(systems::make_gcd_rtl());
  gcd.set_scan_vectors(10);
  const std::string valid = core::serialize_interface(gcd);
  util::Rng rng(0xF025);
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = valid;
    mutated[rng.next_below(mutated.size())] =
        static_cast<char>('0' + rng.next_below(75));
    try {
      auto parsed = core::parse_interface(mutated);
      // If it parsed, rebuilding a Core may still legitimately throw
      // (e.g. a version edge now names a missing port was caught at
      // parse; zero versions caught here).
      try {
        core::Core::from_interface(parsed);
      } catch (const util::Error&) {
      }
    } catch (const util::Error&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, TruncatedInputsAlwaysRejected) {
  const std::string valid = rtl::serialize_netlist(systems::make_gcd_rtl());
  // Any strict prefix misses "end" (and possibly more): must throw.
  for (std::size_t keep : {10u, 50u, 200u}) {
    if (keep >= valid.size()) continue;
    EXPECT_THROW(rtl::parse_netlist(valid.substr(0, keep)), util::Error);
  }
}

// ------------------------------------------- wire and file input parsers

/// One to four random edits of `text`: overwrite, insert or delete a
/// byte, or (rarely) truncate.  `any_byte` draws new bytes from the
/// whole 0..255 range (binary frames); otherwise from the punctuation,
/// digits and letters most likely to turn one valid token into another.
std::string mutate(util::Rng& rng, std::string text, bool any_byte) {
  static constexpr char kAlphabet[] =
      "{}[]\":,.-+eE0123456789 \\/ulnrtfasx=#\n\t";
  const auto byte = [&]() {
    return any_byte ? static_cast<char>(rng.next_below(256))
                    : kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
  };
  const auto edits = 1 + rng.next_below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.next_below(text.size() + 1);
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
        if (at < text.size()) text[at] = byte();
        break;
      case 3:
      case 4:
        text.insert(at, 1, byte());
        break;
      case 5:
      case 6:
        if (at < text.size()) text.erase(at, 1);
        break;
      default:
        text.resize(at);
        break;
    }
  }
  return text;
}

/// Feed every valid input, then `trials` mutations of each, to `parse`
/// (which returns whether it accepted).  util::Error counts as a
/// reject; any other exception escapes and fails the test.
template <typename Parse>
void fuzz_parser(std::uint64_t seed, const std::vector<std::string>& valid,
                 bool any_byte, Parse&& parse) {
  constexpr int kTrials = 1000;
  util::Rng rng(seed);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& input : valid) {
    ASSERT_TRUE(parse(input)) << "valid input rejected: " << input;
    for (int trial = 0; trial < kTrials; ++trial) {
      const std::string mutated = mutate(rng, input, any_byte);
      bool ok = false;
      try {
        ok = parse(mutated);
      } catch (const util::Error&) {
      }
      ++(ok ? accepted : rejected);
    }
  }
  EXPECT_GT(rejected, 0) << "no mutation was rejected: parser too lax?";
  EXPECT_GT(accepted, 0) << "no mutation was accepted: nothing got past "
                            "the first check";
  EXPECT_EQ(accepted + rejected,
            kTrials * static_cast<int>(valid.size()));
}

TEST(Fuzz, MutatedJobLinesThrowOrParse) {
  fuzz_parser(0xF026,
              {"plan system=barcode selection=1,2,1 pipelined",
               "optimize system=system2 tat-budget=600000",
               "optimize system=barcode w1=1.5 w2=0.25",
               "optimize system=barcode area-budget=100",
               "explore system=synthetic:777:6",
               "parallel system=barcode selection=2,2,2",
               "program system=barcode"},
              false, [](const std::string& line) {
                const service::Job job = service::parse_job_line(line);
                // Whatever was accepted has a canonical form that
                // parses back to the same job.
                EXPECT_EQ(service::parse_job_line(
                              service::canonical_job_line(job)),
                          job)
                    << line;
                return true;
              });
}

TEST(Fuzz, FrameReaderSurvivesMutatedStreamsInRandomSplits) {
  const service::FrameTrace trace{0x1234, 0x5678};
  const std::vector<std::string> payloads = {
      "plan system=barcode", "explore system=barcode",
      "program system=barcode", "metrics"};
  const std::string stream =
      service::encode_frame(payloads[0]) +
      service::encode_frame(payloads[1], "job-2") +
      service::encode_frame(payloads[2], "job-3", &trace) +
      service::encode_frame(payloads[3], {}, &trace);
  util::Rng splits(0xF027);
  // Feed the stream in random-sized pieces, draining complete frames
  // after each piece; accepted = the decoder never latched.
  const auto decode = [&](const std::string& bytes,
                          std::vector<service::FrameReader::Frame>* frames) {
    service::FrameReader reader;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t n = 1 + splits.next_below(bytes.size() - pos);
      reader.feed(bytes.data() + pos, n);
      pos += n;
      while (auto frame = reader.next_frame()) {
        EXPECT_LE(frame->payload.size(), bytes.size());
        frames->push_back(std::move(*frame));
      }
    }
    return !reader.overflowed();
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<service::FrameReader::Frame> frames;
    ASSERT_TRUE(decode(stream, &frames));
    ASSERT_EQ(frames.size(), payloads.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].payload, payloads[i]);
      EXPECT_EQ(frames[i].has_trace, i >= 2);
    }
    EXPECT_EQ(frames[1].corr, "job-2");
    EXPECT_EQ(frames[2].trace.parent_span, 0x5678u);
  }
  fuzz_parser(0xF028, {stream}, true, [&](const std::string& bytes) {
    std::vector<service::FrameReader::Frame> frames;
    const bool ok = decode(bytes, &frames);
    EXPECT_LE(frames.size(), bytes.size() / service::kFrameHeaderBytes);
    return ok;
  });
}

/// A merged client+daemon trace: two submit spans, each with a queued
/// and executed daemon job.
std::string sample_trace() {
  obs::MergeInput input;
  input.trace_id = 0xabc;
  input.clock_offset_ns = 500;
  for (std::uint64_t job = 0; job < 2; ++job) {
    const std::uint64_t submit = 0x10 + job;
    const std::uint64_t at = 1000 + job * 400;
    input.client_spans.push_back({"client/submit", 1, submit, 0, at, at + 900});
    input.daemon_spans.push_back(
        {"serve/queue", 0, 0x20 + job, submit, at + 600, at + 700});
    input.daemon_spans.push_back(
        {"serve/job", 2, 0x30 + job, submit, at + 700, at + 1200});
    input.daemon_spans.push_back(
        {"opt/minimize_tat", 2, 0x40 + job, 0x30 + job, at + 750, at + 1100});
  }
  return obs::merged_chrome_trace(input);
}

const char kJournal[] =
    R"({"schema":"socet-journal-v1","events":3})"
    "\n"
    R"({"seq":0,"ts_us":271.4,"tid":1,"type":"transparency/path",)"
    R"("core":"CPU","version":"Version 1","port":"AddrLo",)"
    R"("edge_class":"existing","latency":1})"
    "\n"
    R"({"seq":1,"ts_us":300.5,"tid":1,"type":"transparency/mux",)"
    R"("core":"CPU","port":"Data","cells":8})"
    "\n"
    R"({"seq":2,"ts_us":1283.6,"tid":1,"type":"ccg/route","core":"DISPLAY",)"
    R"("port":"ALo","arrival":11,"shift":5,"path":"PI:NUM -> CPU.Data"})"
    "\n";

TEST(Fuzz, MutatedJsonDocumentsParseOrFail) {
  fuzz_parser(0xF029,
              {sample_trace(),
               R"({"a":[1,-2.5e3,true,false,null,"x\"\\é"],"b":{}})",
               R"({"seq":1,"type":"transparency/mux","nested":[[{}],[]]})"},
              false, [](const std::string& text) {
                obs::JsonValue value;
                std::string error;
                const bool ok = obs::json_parse(text, &value, &error);
                EXPECT_EQ(ok, error.empty()) << text;
                return ok;
              });
}

TEST(Fuzz, MutatedTracesLoadOrFailAndStillAnalyze) {
  fuzz_parser(0xF02A, {sample_trace()}, false, [](const std::string& text) {
    obs::analyze::TraceData trace;
    std::string error;
    if (!obs::analyze::load_trace(text, &trace, &error)) {
      EXPECT_FALSE(error.empty()) << text;
      return false;
    }
    // Mutated ids may orphan or re-parent spans; the analyses must
    // still terminate on whatever forest was accepted.
    const auto paths = obs::analyze::critical_paths(trace);
    const auto aggregate = obs::analyze::aggregate({trace});
    EXPECT_FALSE(obs::analyze::analysis_json(paths, aggregate).empty());
    return true;
  });
}

TEST(Fuzz, MutatedJournalsLoadOrFailAndStillExplain) {
  fuzz_parser(0xF02B, {kJournal}, false, [](const std::string& text) {
    obs::JournalDoc doc;
    std::string error;
    if (!obs::load_journal(text, &doc, &error)) {
      EXPECT_FALSE(error.empty()) << text;
      return false;
    }
    EXPECT_FALSE(obs::explain_mux(doc, "").empty());
    EXPECT_FALSE(obs::explain_version(doc, "CPU").empty());
    EXPECT_FALSE(obs::explain_route(doc, "").empty());
    return true;
  });
}

TEST(Fuzz, OutOfRangeNumbersFallBackInsteadOfOverflowingACast) {
  // Casting a double outside an integer type's range is undefined, and
  // the mutations above rarely produce one; these do it on purpose.
  obs::analyze::TraceData trace;
  ASSERT_TRUE(obs::analyze::load_trace(
      R"({"traceEvents":[{"ph":"X","name":"a","ts":0,"dur":1,)"
      R"("pid":1e300,"tid":-1e300}]})",
      &trace));
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].pid, 1);
  EXPECT_EQ(trace.spans[0].tid, 0);

  std::vector<obs::SpanRecord> spans;
  ASSERT_TRUE(obs::parse_remote_spans_jsonl(
      "{\"name\":\"a\",\"tid\":-1}\n{\"name\":\"b\",\"tid\":5e9}\n", &spans));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].tid, 0u);
  EXPECT_EQ(spans[1].tid, 0u);

  obs::JournalDoc doc;
  ASSERT_TRUE(obs::load_journal(
      "{\"schema\":\"socet-journal-v1\"}\n"
      "{\"type\":\"transparency/mux\",\"seq\":1e300,\"cells\":-1e300}\n",
      &doc));
  const std::string answer = obs::explain_mux(doc, "");
  EXPECT_NE(answer.find("1 mux insertion(s)"), std::string::npos) << answer;
  EXPECT_NE(answer.find("total mux cost: 0 cell(s)"), std::string::npos)
      << answer;
}

TEST(Fuzz, MutatedRemoteSpanLinesParseOrFail) {
  const std::vector<obs::SpanRecord> spans = {
      {"serve/job", 3, 0x30, 0x10, 1000, 2000},
      {"serve/queue", 0, 0x31, 0x10, 900, 1000},
      {"opt/minimize_tat", 3, 0x32, 0x30, 1100, 1900}};
  fuzz_parser(0xF02C, {obs::remote_spans_jsonl(spans)}, false,
              [](const std::string& text) {
                std::vector<obs::SpanRecord> parsed;
                std::string error;
                const bool ok =
                    obs::parse_remote_spans_jsonl(text, &parsed, &error);
                EXPECT_EQ(ok, error.empty()) << text;
                return ok;
              });
}

}  // namespace
}  // namespace socet
