// cqcs command-line tool: the library's public API over text files.
//
// Usage:
//   hom_tool solve A.struct B.struct [strategy...]   # hom(A -> B)?
//   hom_tool contains "Q1(...) :- ..." "Q2(...) :- ..."
//   hom_tool minimize "Q(...) :- ..."
//   hom_tool evaluate "Q(...) :- ..." D.struct
//   hom_tool classify B.struct              # Schaefer classes of Boolean B
//   hom_tool serve [serve flags] [strategy flags]    # line protocol, below
//
// Exit-code contract (asserted end-to-end by tests/hom_tool_exit_codes.sh;
// scripts branch on these, so every path must honor them):
//   0  "yes" / an answer was produced (homomorphism found, count or
//      enumeration completed, containment verdict computed, ...)
//   1  a definite "no" (no homomorphism exists), or a usage problem
//      (unknown subcommand, unknown or malformed flag)
//   2  an error: unreadable file, parse failure, engine refusal (e.g. an
//      explicitly requested backend that cannot serve the task)
//   3  a resource budget was exhausted before an answer (deadline, memory,
//      node limit): the question is open, not answered — retry bigger
//
// Strategy flags for `solve` (any order; defaults: MAC, MRV, lex values):
//   --fc --mac                  propagation strength
//   --lex --mrv --domwdeg       variable ordering
//   --lcv                       least-constraining value ordering
//   --cbj                       conflict-directed backjumping
//   --restarts                  Luby restarts
//   --threads=N                 parallel subtree search with N workers
//                               (0 = one per hardware thread; default 1)
//   --backend=NAME              auto | uniform | treewidth | acyclic |
//                               schaefer (default auto: route from the
//                               instance profile, falling back to uniform)
//   --task=NAME                 decide | witness | count | enumerate
//                               (default witness). On acyclic sources every
//                               task runs on the Yannakakis route; count and
//                               enumerate otherwise need the uniform search.
//   --limit=N                   cap for --task=count / --task=enumerate
//   --deadline-ms=N             wall-clock budget for the whole solve; an
//                               exhausted run prints a structured verdict
//                               and exits 3 (distinct from "no" and errors)
//   --memory-budget-mb=N        ceiling on backend table memory, same
//                               verdict/exit-code contract as the deadline
//   --explain                   print the routing decision + unified stats
//                               as one JSON object (machine-readable)
//
// Structure files use the core/io.h format:
//   universe 3
//   E/2: 0 1, 1 2
//
// `serve` flags (besides the strategy/governor flags above, which configure
// the per-request engine):
//   --plan-cache=N --result-cache=N     cache entry bounds (0 disables)
//   --max-queue-depth=N                 admission: shed past N in-flight
//   --max-inflight-mb=N                 admission: shed past N MiB of
//                                       in-flight size-bound estimates
//   --data-dir=PATH                     durable registry: WAL + snapshots
//                                       under PATH, recovered on startup
//                                       (startup fails, exit 2, if the
//                                       on-disk state is unrecoverable)
//   --fsync=always|interval|never       when acknowledged updates are
//                                       durable (default always)
//   --fsync-interval-ms=N               max ms between fsyncs (interval)
//   --snapshot-every=N                  snapshot + truncate the log every
//                                       N records (0 = never)
//   --poison-strikes=K                  quarantine a query text after K
//                                       consecutive budget trips (0 = off)
//
// `serve` then reads one command per line on stdin (responses on stdout,
// one line each, flushed per response; ';' in a db declaration stands for a
// newline). Lines over 1 MiB, or containing NUL bytes, get a protocol
// error; a trailing CR (CRLF input) is stripped; EOF mid-line processes the
// partial line, then exits:
//   db <name> universe 3; E/2: 0 1, 1 2    register/replace a database
//                                          (replacing invalidates results)
//   query <name> Q(X) :- E(X, Y).          register a query
//   run <task> <query-name> <db-name>      serve one request
//   drop <name>                            unregister a database
//   catalog                                registered name#version pairs
//   dump <name>                            a database's text (';' = newline)
//   stats                                  aggregate ServeStats as JSON
//   quit                                   exit 0 (as does EOF)
//
// Run without arguments for a demo over built-in inputs.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/engine.h"
#include "core/io.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "schaefer/boolean_relation.h"
#include "serve/serving.h"
#include "solver/backtracking.h"

using namespace cqcs;

namespace {

Result<Structure> LoadStructure(const char* path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound(std::string("cannot open ") + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseStructure(buffer.str());
}

bool ParseStrategyFlag(const char* arg, EngineOptions* engine_options,
                       HomTask* task, bool* explain) {
  SolveOptions* options = &engine_options->solve;
  std::string flag = arg;
  if (flag == "--explain") {
    *explain = true;
  } else if (flag.rfind("--backend=", 0) == 0) {
    auto backend = ParseBackendName(flag.substr(10));
    if (!backend.has_value()) return false;
    engine_options->backend = *backend;
  } else if (flag.rfind("--task=", 0) == 0) {
    auto parsed = ParseHomTaskName(flag.substr(7));
    // kProject needs a projection spec, which the structure-pair CLI has no
    // syntax for — `evaluate` is the projection entry point.
    if (!parsed.has_value() || *parsed == HomTask::kProject) return false;
    *task = *parsed;
  } else if (flag.rfind("--limit=", 0) == 0) {
    const std::string digits = flag.substr(8);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    const size_t n = std::strtoull(digits.c_str(), nullptr, 10);
    engine_options->count_limit = n;
    engine_options->max_results = n;
  } else if (flag == "--fc") {
    options->propagation = Propagation::kForwardChecking;
  } else if (flag == "--mac") {
    options->propagation = Propagation::kMac;
  } else if (flag == "--lex") {
    options->strategy.var_order = VarOrder::kLex;
  } else if (flag == "--mrv") {
    options->strategy.var_order = VarOrder::kMrv;
  } else if (flag == "--domwdeg") {
    options->strategy.var_order = VarOrder::kDomWdeg;
  } else if (flag == "--lcv") {
    options->strategy.val_order = ValOrder::kLeastConstraining;
  } else if (flag == "--cbj") {
    options->strategy.backjumping = true;
  } else if (flag == "--restarts") {
    options->strategy.restarts = true;
  } else if (flag.rfind("--deadline-ms=", 0) == 0) {
    const std::string digits = flag.substr(14);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    engine_options->deadline_ms = std::strtoull(digits.c_str(), nullptr, 10);
  } else if (flag.rfind("--memory-budget-mb=", 0) == 0) {
    const std::string digits = flag.substr(19);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    const size_t mb = std::strtoull(digits.c_str(), nullptr, 10);
    if (mb > (SIZE_MAX >> 20)) return false;
    engine_options->memory_budget_bytes = mb << 20;
  } else if (flag.rfind("--threads=", 0) == 0) {
    // Digits only (strtoul would happily eat "-1" as ULONG_MAX), nonempty,
    // and a sanity cap as input validation: workers run on the shared
    // pool, which caps its threads anyway, but each one still owns a
    // search context.
    const std::string digits = flag.substr(10);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    char* end = nullptr;
    const unsigned long n = std::strtoul(digits.c_str(), &end, 10);
    if (n > 1024) return false;
    options->num_threads = static_cast<unsigned>(n);
  } else {
    return false;
  }
  return true;
}

int Solve(const char* a_path, const char* b_path, int flag_count,
          char** flags) {
  auto a = LoadStructure(a_path);
  auto b = LoadStructure(b_path);
  if (!a.ok() || !b.ok()) {
    std::printf("error: %s %s\n", a.status().ToString().c_str(),
                b.status().ToString().c_str());
    return 2;
  }
  if (!a->vocabulary()->Equals(*b->vocabulary())) {
    std::printf("error: vocabularies differ (%s vs %s)\n",
                a->vocabulary()->ToString().c_str(),
                b->vocabulary()->ToString().c_str());
    return 2;
  }
  EngineOptions engine_options;
  HomTask task = HomTask::kWitness;
  bool explain = false;
  for (int i = 0; i < flag_count; ++i) {
    if (!ParseStrategyFlag(flags[i], &engine_options, &task, &explain)) {
      std::printf("error: unknown strategy flag %s\n", flags[i]);
      return 1;  // usage, not a runtime error (see the contract above)
    }
  }
  auto problem = HomProblem::FromStructures(*a, *b);
  if (!problem.ok()) {
    std::printf("error: %s\n", problem.status().ToString().c_str());
    return 2;
  }
  HomEngine engine(engine_options);
  auto result = engine.Run(*problem, task);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 2;
  }
  // 0 until a path below downgrades it: a definite "no" is 1, an
  // unanswered question (node limit, governed trip) is 3.
  int code = 0;
  switch (task) {
    case HomTask::kDecide:
    case HomTask::kWitness:
      if (!result->decided) {
        // A governed trip and a node-limit stop both leave the question
        // open (exit 3); everything else genuinely means "no" (exit 1).
        if (result->stats.governor.tripped) {
          std::printf("unknown (resource budget exhausted)\n");
        } else if (result->stats.search.limit_hit) {
          std::printf("unknown (node limit hit)\n");
          code = 3;
        } else {
          std::printf("no homomorphism\n");
          code = 1;
        }
      } else if (result->witness.has_value()) {
        std::printf("homomorphism found:\n");
        const Homomorphism& h = *result->witness;
        for (size_t e = 0; e < h.size(); ++e) {
          std::printf("  %zu -> %u\n", e, h[e]);
        }
      } else {
        std::printf("homomorphism exists\n");
      }
      break;
    case HomTask::kCount:
      std::printf(result->stats.governor.tripped
                      ? "count: >= %zu (resource budget exhausted)\n"
                  : result->stats.search.limit_hit
                      ? "count: >= %zu (node limit hit)\n"
                      : "count: %zu\n",
                  result->count);
      // A node-limit-truncated count is a lower bound, not an answer.
      if (!result->stats.governor.tripped && result->stats.search.limit_hit) {
        code = 3;
      }
      break;
    case HomTask::kEnumerate:
      std::printf("%zu homomorphism(s)\n", result->rows.size());
      for (const auto& row : result->rows) {
        std::printf(" ");
        for (Element e : row) std::printf(" %u", e);
        std::printf("\n");
      }
      break;
    case HomTask::kProject:
      break;  // unreachable: the flag parser rejects it
  }
  std::printf("backend: %s\n", BackendName(result->explain.chosen));
  if (result->stats.governor.tripped) {
    // Structured exhaustion verdict: exit 3 distinguishes "ran out of
    // budget" from "no homomorphism" (0), errors (1), and bad flags (2),
    // so scripts can retry with a larger budget instead of trusting a
    // partial answer.
    const GovernorRunStats& g = result->stats.governor;
    std::printf(
        "verdict: resource budget exhausted (%s) checks=%llu "
        "peak_bytes=%zu elapsed_ms=%llu\n",
        TripCauseName(g.cause), static_cast<unsigned long long>(g.checks),
        g.peak_bytes, static_cast<unsigned long long>(g.elapsed_ms));
    if (explain) std::printf("%s\n", result->ToJson().c_str());
    return 3;
  }
  if (explain) {
    std::printf("%s\n", result->ToJson().c_str());
    return code;
  }
  if (result->stats.used_acyclic) {
    const YannakakisStats& ys = result->stats.yannakakis;
    std::printf(
        "acyclic: tables=%llu rows=%llu max_table_rows=%llu semijoins=%llu "
        "pruned=%llu join_rows=%llu\n",
        static_cast<unsigned long long>(ys.atom_tables),
        static_cast<unsigned long long>(ys.rows_materialized),
        static_cast<unsigned long long>(ys.max_table_rows),
        static_cast<unsigned long long>(ys.semijoins),
        static_cast<unsigned long long>(ys.rows_pruned),
        static_cast<unsigned long long>(ys.join_rows));
  }
  // A polynomial backend leaves the search stats untouched; printing them
  // would look like a genuine zero-node measurement.
  if (!result->stats.used_search) return code;
  const SolveStats& stats = result->stats.search;
  std::printf(
      "stats: nodes=%llu backtracks=%llu backjumps=%llu "
      "longest_backjump=%llu restarts=%llu max_conflict_set=%llu\n",
      static_cast<unsigned long long>(stats.nodes),
      static_cast<unsigned long long>(stats.backtracks),
      static_cast<unsigned long long>(stats.backjumps),
      static_cast<unsigned long long>(stats.longest_backjump),
      static_cast<unsigned long long>(stats.restarts),
      static_cast<unsigned long long>(stats.max_conflict_set));
  if (stats.workers > 0) {
    std::printf("parallel: workers=%llu splits=%llu steals=%llu\n",
                static_cast<unsigned long long>(stats.workers),
                static_cast<unsigned long long>(stats.splits),
                static_cast<unsigned long long>(stats.steals));
  }
  return code;
}

int ContainsCmd(const char* q1_text, const char* q2_text) {
  auto q1 = ParseQuery(q1_text);
  if (!q1.ok()) {
    std::printf("Q1: %s\n", q1.status().ToString().c_str());
    return 2;
  }
  auto q2 = ParseQuery(q2_text, q1->vocabulary());
  if (!q2.ok()) {
    std::printf("Q2: %s\n", q2.status().ToString().c_str());
    return 2;
  }
  auto forward = IsContained(*q1, *q2);
  auto backward = IsContained(*q2, *q1);
  if (!forward.ok() || !backward.ok()) {
    std::printf("error: %s %s\n", forward.status().ToString().c_str(),
                backward.status().ToString().c_str());
    return 2;
  }
  std::printf("Q1 ⊆ Q2: %s\nQ2 ⊆ Q1: %s\nequivalent: %s\n",
              *forward ? "yes" : "no", *backward ? "yes" : "no",
              *forward && *backward ? "yes" : "no");
  return 0;
}

int MinimizeCmd(const char* q_text) {
  auto q = ParseQuery(q_text);
  if (!q.ok()) {
    std::printf("%s\n", q.status().ToString().c_str());
    return 2;
  }
  auto m = Minimize(*q);
  if (!m.ok()) {
    std::printf("%s\n", m.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", ToString(*m).c_str());
  return 0;
}

int EvaluateCmd(const char* q_text, const char* d_path) {
  auto q = ParseQuery(q_text);
  if (!q.ok()) {
    std::printf("%s\n", q.status().ToString().c_str());
    return 2;
  }
  std::ifstream in(d_path);
  if (!in) {
    // Without this check the parse below would blame an empty buffer
    // ("missing 'universe'") instead of the actual missing file.
    std::printf("error: cannot open %s\n", d_path);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto d = ParseStructure(buffer.str(), q->vocabulary());
  if (!d.ok()) {
    std::printf("%s\n", d.status().ToString().c_str());
    return 2;
  }
  auto rows = Evaluate(*q, *d);
  if (!rows.ok()) {
    std::printf("%s\n", rows.status().ToString().c_str());
    return 2;
  }
  std::printf("%zu answer(s)\n", rows->size());
  for (const auto& row : *rows) {
    std::printf(" ");
    for (Element e : row) std::printf(" %u", e);
    std::printf("\n");
  }
  return 0;
}

int ClassifyCmd(const char* b_path) {
  auto b = LoadStructure(b_path);
  if (!b.ok()) {
    std::printf("%s\n", b.status().ToString().c_str());
    return 2;
  }
  if (!IsBooleanStructure(*b)) {
    std::printf("not a Boolean structure (universe size %zu, need 2)\n",
                b->universe_size());
    return 2;
  }
  std::printf("Schaefer classes: %s\n",
              SchaeferClassSetToString(ClassifyBooleanStructure(*b)).c_str());
  return 0;
}

// One `run` response line: the answer plus the cache flags the request saw.
void PrintServeResult(const EngineResult& result, HomTask task) {
  const ServeRequestStats& s = result.stats.serve;
  std::string answer;
  switch (task) {
    case HomTask::kDecide:
    case HomTask::kWitness:
      if (result.decided) {
        answer = "yes";
      } else if (result.stats.governor.tripped ||
                 result.stats.search.limit_hit) {
        answer = "unknown";
      } else {
        answer = "no";
      }
      break;
    case HomTask::kCount:
      answer = "count=" + std::to_string(result.count);
      break;
    case HomTask::kEnumerate:
    case HomTask::kProject:
      answer = "rows=" + std::to_string(result.rows.size());
      break;
  }
  std::printf("ok %s backend=%s plan_hit=%d result_hit=%d\n", answer.c_str(),
              BackendName(result.explain.chosen), s.plan_cache_hit ? 1 : 0,
              s.result_cache_hit ? 1 : 0);
}

// Bounded protocol line reader. std::getline on a std::string has no
// length bound — one pathological line would balloon the process — so the
// serve loop reads through a fixed 1 MiB buffer instead and turns every
// degenerate input into a distinct, recoverable outcome.
enum class LineRead {
  kOk,       ///< a complete line (delimiter consumed, not included)
  kEof,      ///< end of input, nothing more to process
  kTooLong,  ///< line exceeded the bound; the rest was discarded
};

constexpr std::streamsize kMaxProtocolLine = 1 << 20;  // 1 MiB

LineRead ReadProtocolLine(std::istream& in, std::string* out) {
  static std::vector<char> buf(static_cast<size_t>(kMaxProtocolLine));
  in.getline(buf.data(), kMaxProtocolLine);
  const std::streamsize got = in.gcount();
  if (in.fail() && !in.eof()) {
    if (got == kMaxProtocolLine - 1) {
      // Buffer filled before a newline: discard the remainder of the line
      // so the protocol resynchronizes at the next one.
      in.clear();
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      return LineRead::kTooLong;
    }
    return LineRead::kEof;  // hard stream failure: treat as end of input
  }
  if (got == 0 && in.eof()) return LineRead::kEof;
  // gcount() includes the consumed delimiter; EOF mid-line has none, and
  // that partial line is still a command (the sender just died).
  std::streamsize len = got;
  if (!in.eof()) --len;
  // Length from gcount, NOT strlen: an embedded NUL would silently
  // truncate the line and make "db evil\0..." parse as "db evil".
  out->assign(buf.data(), static_cast<size_t>(len));
  return LineRead::kOk;
}

/// Handles one protocol line, printing exactly the response lines for it.
/// Returns false when the session should end (quit).
bool HandleServeLine(serve::ServingEngine& engine,
                     std::unordered_map<std::string, std::string>& queries,
                     bool explain, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd.empty()) return true;
  if (cmd == "quit") return false;
  if (cmd == "stats") {
    std::printf("%s\n", engine.stats().ToJson().c_str());
    return true;
  }
  if (cmd == "db") {
    std::string name;
    in >> name;
    std::string text;
    std::getline(in, text);
    for (char& c : text) {
      if (c == ';') c = '\n';
    }
    auto db = ParseStructure(text);
    if (!db.ok()) {
      std::printf("error: %s\n", db.status().ToString().c_str());
      return true;
    }
    auto status = engine.UpsertDatabase(name, *std::move(db));
    std::printf(status.ok() ? "ok db %s\n" : "error: %s\n",
                status.ok() ? name.c_str() : status.ToString().c_str());
    return true;
  }
  if (cmd == "query") {
    std::string name;
    in >> name;
    std::string text;
    std::getline(in, text);
    const size_t start = text.find_first_not_of(" \t");
    if (name.empty() || start == std::string::npos) {
      std::printf("error: usage: query <name> <CQ text>\n");
      return true;
    }
    queries[name] = text.substr(start);
    std::printf("ok query %s\n", name.c_str());
    return true;
  }
  if (cmd == "run") {
    std::string task_name, query_name, db_name;
    in >> task_name >> query_name >> db_name;
    auto task = ParseHomTaskName(task_name);
    if (!task.has_value()) {
      std::printf("error: unknown task %s\n", task_name.c_str());
      return true;
    }
    auto q = queries.find(query_name);
    if (q == queries.end()) {
      std::printf("error: no query named %s\n", query_name.c_str());
      return true;
    }
    serve::ServeRequest request;
    request.query = q->second;
    request.database = db_name;
    request.task = *task;
    auto result = engine.Serve(request);
    if (!result.ok()) {
      // Sheds are the admission policy working as designed; scripts watch
      // for the distinct prefix.
      std::printf(result.status().code() == StatusCode::kResourceExhausted
                      ? "shed: %s\n"
                      : "error: %s\n",
                  result.status().ToString().c_str());
      return true;
    }
    PrintServeResult(*result, *task);
    if (explain) std::printf("%s\n", result->ToJson().c_str());
    return true;
  }
  if (cmd == "drop") {
    std::string name;
    in >> name;
    auto status = engine.DropDatabase(name);
    std::printf(status.ok() ? "ok drop %s\n" : "error: %s\n",
                status.ok() ? name.c_str() : status.ToString().c_str());
    return true;
  }
  if (cmd == "catalog") {
    const auto dbs = engine.ListDatabases();
    std::string response = "ok catalog " + std::to_string(dbs.size());
    for (const auto& [name, version] : dbs) {
      response += " " + name + "#" + std::to_string(version);
    }
    std::printf("%s\n", response.c_str());
    return true;
  }
  if (cmd == "dump") {
    std::string name;
    in >> name;
    auto db = engine.GetDatabase(name);
    if (!db.ok()) {
      std::printf("error: %s\n", db.status().ToString().c_str());
      return true;
    }
    // One line per response: the inverse of the db command's encoding.
    std::string text = PrintStructure(**db);
    for (char& c : text) {
      if (c == '\n') c = ';';
    }
    std::printf("ok dump %s %s\n", name.c_str(), text.c_str());
    return true;
  }
  std::printf("error: unknown command %s\n", cmd.c_str());
  return true;
}

int ServeCmd(int flag_count, char** flags) {
  serve::ServeOptions serve_options;
  HomTask unused_task = HomTask::kDecide;
  bool explain = false;
  auto parse_size = [](const std::string& flag, size_t prefix, size_t* out) {
    const std::string digits = flag.substr(prefix);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    *out = std::strtoull(digits.c_str(), nullptr, 10);
    return true;
  };
  for (int i = 0; i < flag_count; ++i) {
    const std::string flag = flags[i];
    bool ok = true;
    if (flag.rfind("--plan-cache=", 0) == 0) {
      ok = parse_size(flag, 13, &serve_options.plan_cache_entries);
    } else if (flag.rfind("--result-cache=", 0) == 0) {
      ok = parse_size(flag, 15, &serve_options.result_cache_entries);
    } else if (flag.rfind("--max-queue-depth=", 0) == 0) {
      ok = parse_size(flag, 18, &serve_options.max_queue_depth);
    } else if (flag.rfind("--max-inflight-mb=", 0) == 0) {
      size_t mb = 0;
      ok = parse_size(flag, 18, &mb) && mb <= (SIZE_MAX >> 20);
      if (ok) serve_options.max_inflight_bytes = mb << 20;
    } else if (flag.rfind("--data-dir=", 0) == 0) {
      serve_options.durability.data_dir = flag.substr(11);
      ok = !serve_options.durability.data_dir.empty();
    } else if (flag.rfind("--fsync=", 0) == 0) {
      auto policy = serve::ParseFsyncPolicyName(flag.substr(8));
      ok = policy.has_value();
      if (ok) serve_options.durability.fsync = *policy;
    } else if (flag.rfind("--fsync-interval-ms=", 0) == 0) {
      size_t ms = 0;
      ok = parse_size(flag, 20, &ms);
      if (ok) serve_options.durability.fsync_interval_ms = ms;
    } else if (flag.rfind("--snapshot-every=", 0) == 0) {
      size_t n = 0;
      ok = parse_size(flag, 17, &n);
      if (ok) serve_options.durability.snapshot_every_records = n;
    } else if (flag.rfind("--poison-strikes=", 0) == 0) {
      size_t n = 0;
      ok = parse_size(flag, 17, &n) && n <= UINT32_MAX;
      if (ok) serve_options.poison_strikes = static_cast<uint32_t>(n);
    } else {
      ok = ParseStrategyFlag(flags[i], &serve_options.engine, &unused_task,
                             &explain);
    }
    if (!ok) {
      std::printf("error: unknown serve flag %s\n", flags[i]);
      return 1;  // usage
    }
  }
  serve::ServingEngine engine(serve_options);
  serve::RecoveryInfo recovery;
  Status opened = engine.Open(&recovery);
  if (!opened.ok()) {
    // Unrecoverable on-disk state: refusing to serve beats guessing at the
    // catalog. Exit 2 per the error contract above.
    std::printf("error: %s\n", opened.ToString().c_str());
    return 2;
  }
  if (!serve_options.durability.data_dir.empty()) {
    // The summary goes to stderr: stdout carries exactly one response line
    // per command (the crash harness counts acknowledgments there).
    std::fprintf(stderr,
                 "recovery: generation=%llu snapshot=%d databases=%zu "
                 "records_replayed=%llu tail_truncated=%d\n",
                 static_cast<unsigned long long>(recovery.generation),
                 recovery.snapshot_loaded ? 1 : 0,
                 engine.ListDatabases().size(),
                 static_cast<unsigned long long>(recovery.records_replayed),
                 recovery.tail_truncated ? 1 : 0);
    for (const std::string& warning : recovery.warnings) {
      std::fprintf(stderr, "recovery warning: %s\n", warning.c_str());
    }
  }
  std::unordered_map<std::string, std::string> queries;
  std::string line;
  for (;;) {
    const LineRead read = ReadProtocolLine(std::cin, &line);
    if (read == LineRead::kEof) break;
    bool keep_going = true;
    if (read == LineRead::kTooLong) {
      std::printf("error: protocol line exceeds %lld bytes\n",
                  static_cast<long long>(kMaxProtocolLine - 1));
    } else {
      if (line.find('\0') != std::string::npos) {
        std::printf("error: protocol line contains an embedded NUL byte\n");
      } else {
        if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
        keep_going = HandleServeLine(engine, queries, explain, line);
      }
    }
    // Flush per response: acknowledgments must be visible to the peer
    // before the next command is processed — a kill -9 between the flush
    // and the next line is exactly what the crash harness exercises.
    std::fflush(stdout);
    if (!keep_going) break;
  }
  return 0;
}

int Demo() {
  std::printf("demo (run with a subcommand for real use; see the header)\n\n");
  const char* q1 = "Q(X) :- E(X, Y), E(Y, Z), E(Z, X).";
  const char* q2 = "Q(X) :- E(X, Y).";
  std::printf("$ hom_tool contains \"%s\" \"%s\"\n", q1, q2);
  ContainsCmd(q1, q2);
  const char* redundant = "Q(X) :- E(X, Y), E(X, Z).";
  std::printf("\n$ hom_tool minimize \"%s\"\n", redundant);
  MinimizeCmd(redundant);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Demo();
  std::string cmd = argv[1];
  if (cmd == "solve" && argc >= 4) {
    return Solve(argv[2], argv[3], argc - 4, argv + 4);
  }
  if (cmd == "contains" && argc == 4) return ContainsCmd(argv[2], argv[3]);
  if (cmd == "minimize" && argc == 3) return MinimizeCmd(argv[2]);
  if (cmd == "evaluate" && argc == 4) return EvaluateCmd(argv[2], argv[3]);
  if (cmd == "classify" && argc == 3) return ClassifyCmd(argv[2]);
  if (cmd == "serve") return ServeCmd(argc - 2, argv + 2);
  std::printf("usage: see the comment at the top of examples/hom_tool.cpp\n");
  return 1;  // usage problems are 1, runtime errors are 2 (header contract)
}
