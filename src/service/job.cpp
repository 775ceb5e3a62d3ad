#include "socet/service/job.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "socet/util/error.hpp"

namespace socet::service {

namespace {

/// One whitespace-delimited token of a job line plus the 1-based column
/// it starts at, so parse errors can point at the offending spot —
/// essential once job lines arrive over a socket with no surrounding
/// file/line context.
struct LineToken {
  std::string text;
  std::size_t column = 0;  ///< 1-based offset of the first character
};

std::vector<LineToken> tokenize(const std::string& line) {
  std::vector<LineToken> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    if (pos >= line.size()) break;
    const std::size_t start = pos;
    while (pos < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    tokens.push_back({line.substr(start, pos - start), start + 1});
  }
  return tokens;
}

[[noreturn]] void fail_at(const std::string& message, std::size_t column) {
  util::raise(message + " (column " + std::to_string(column) + ")");
}

/// Run an option-value parser and re-raise its error with the option
/// token's column attached.
template <typename F>
auto at_column(std::size_t column, F&& parse) {
  try {
    return parse();
  } catch (const util::Error& error) {
    fail_at(error.what(), column);
  }
}

unsigned long long parse_count(const std::string& token,
                               const std::string& what) {
  unsigned long long value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    util::raise("bad " + what + " '" + token + "' (want a number)");
  }
  return value;
}

double parse_weight(const std::string& token, const std::string& what) {
  std::size_t consumed = 0;
  double value = 0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != token.size() || token.empty()) {
    util::raise("bad " + what + " '" + token + "' (want a number)");
  }
  return value;
}

std::string format_weight(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kPlan: return "plan";
    case Verb::kOptimize: return "optimize";
    case Verb::kExplore: return "explore";
    case Verb::kParallel: return "parallel";
    case Verb::kProgram: return "program";
  }
  return "?";
}

std::vector<unsigned> parse_selection_spec(const std::string& spec) {
  util::require(!spec.empty(), "empty selection (want e.g. 1,2,3)");
  std::vector<unsigned> selection;
  std::size_t pos = 0;
  while (true) {
    const auto comma = spec.find(',', pos);
    const std::string token = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (token.empty()) {
      util::raise("bad selection '" + spec + "' (empty token)");
    }
    const unsigned long long value = parse_count(token, "selection token");
    if (value < 1) {
      util::raise("bad selection token '" + token +
                  "' (version indices are 1-based)");
    }
    selection.push_back(static_cast<unsigned>(value - 1));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return selection;
}

Job parse_job_line(const std::string& line) {
  const auto tokens = tokenize(line);
  util::require(!tokens.empty(), "empty job line");

  Job job;
  const std::string& verb = tokens.front().text;
  if (verb == "plan") {
    job.verb = Verb::kPlan;
  } else if (verb == "optimize") {
    job.verb = Verb::kOptimize;
  } else if (verb == "explore") {
    job.verb = Verb::kExplore;
  } else if (verb == "parallel") {
    job.verb = Verb::kParallel;
  } else if (verb == "program") {
    job.verb = Verb::kProgram;
  } else {
    fail_at("unknown verb '" + verb +
                "' (want plan|optimize|explore|parallel|program)",
            tokens.front().column);
  }

  const bool takes_selection = job.verb == Verb::kPlan ||
                               job.verb == Verb::kParallel ||
                               job.verb == Verb::kProgram;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const std::string& token = tokens[t].text;
    const std::size_t column = tokens[t].column;
    const auto eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : token.substr(eq + 1);
    const bool has_value = eq != std::string::npos;

    if (key == "system" && has_value) {
      if (value.empty()) fail_at("empty system name", column);
      job.system = value;
    } else if (key == "selection" && has_value) {
      if (!takes_selection) {
        fail_at(std::string("'selection' does not apply to verb ") +
                    verb_name(job.verb),
                column);
      }
      job.selection =
          at_column(column, [&] { return parse_selection_spec(value); });
    } else if (key == "pipelined" && !has_value) {
      if (job.verb != Verb::kPlan) {
        fail_at("'pipelined' only applies to verb plan", column);
      }
      job.pipelined = true;
    } else if (key == "area-budget" && has_value) {
      if (job.verb != Verb::kOptimize) {
        fail_at("'area-budget' only applies to verb optimize", column);
      }
      if (job.objective != Job::Objective::kNone) {
        fail_at("optimize takes exactly one objective", column);
      }
      job.objective = Job::Objective::kAreaBudget;
      job.area_budget = static_cast<unsigned>(
          at_column(column, [&] { return parse_count(value, key); }));
    } else if (key == "tat-budget" && has_value) {
      if (job.verb != Verb::kOptimize) {
        fail_at("'tat-budget' only applies to verb optimize", column);
      }
      if (job.objective != Job::Objective::kNone) {
        fail_at("optimize takes exactly one objective", column);
      }
      job.objective = Job::Objective::kTatBudget;
      job.tat_budget =
          at_column(column, [&] { return parse_count(value, key); });
    } else if ((key == "w1" || key == "w2") && has_value) {
      if (job.verb != Verb::kOptimize) {
        fail_at("'" + key + "' only applies to verb optimize", column);
      }
      if (job.objective != Job::Objective::kNone &&
          job.objective != Job::Objective::kWeighted) {
        fail_at("optimize takes exactly one objective", column);
      }
      job.objective = Job::Objective::kWeighted;
      (key == "w1" ? job.w1 : job.w2) =
          at_column(column, [&] { return parse_weight(value, key); });
    } else {
      fail_at("bad job option '" + token + "'", column);
    }
  }

  util::require(job.verb != Verb::kOptimize ||
                    job.objective != Job::Objective::kNone,
                "optimize needs area-budget=N, tat-budget=N, or w1=X/w2=Y");
  return job;
}

std::string canonical_job_line(const Job& job) {
  std::string line = verb_name(job.verb);
  line += " system=" + job.system;
  if (!job.selection.empty()) {
    line += " selection=";
    for (std::size_t c = 0; c < job.selection.size(); ++c) {
      line += (c == 0 ? "" : ",") + std::to_string(job.selection[c] + 1);
    }
  }
  if (job.pipelined) line += " pipelined";
  switch (job.objective) {
    case Job::Objective::kNone:
      break;
    case Job::Objective::kAreaBudget:
      line += " area-budget=" + std::to_string(job.area_budget);
      break;
    case Job::Objective::kTatBudget:
      line += " tat-budget=" + std::to_string(job.tat_budget);
      break;
    case Job::Objective::kWeighted:
      line += " w1=" + format_weight(job.w1) + " w2=" + format_weight(job.w2);
      break;
  }
  return line;
}

}  // namespace socet::service
