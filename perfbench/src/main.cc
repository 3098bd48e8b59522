// cqcs_perfbench: runs one workload of the end-to-end benchmark and prints
// its metrics. Usually launched through perfbench/run.py, which builds it.
//
//   cqcs_perfbench --workload serve_hot|serve_churn|engine_cyclic
//                  --seed N --seconds S --trace 0|1 --out-dir DIR [--git-sha X]
//
// stdout: a provenance line, human-readable notes, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics and writes
// the span file and layer summary under --out-dir. Exit code 0 when every
// request succeeded and every answer matched its oracle, 1 on a failed
// request (error, shed, quarantined) or a mismatch, 2 on a usage or set-up
// error (no result line).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "workloads.h"

#ifndef CQCS_PERFBENCH_BUILD_TYPE
#define CQCS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const std::string& why) {
  std::cerr << "cqcs_perfbench: " << why
            << "\nusage: cqcs_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--git-sha SHA]\n";
  return 2;
}

double LoadAverage() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

std::string Provenance(const RunConfig& c, const std::string& git_sha) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(c.workload) << ", \"seed\": " << c.seed
      << ", \"seconds\": " << c.seconds << ", \"trace\": " << (c.trace ? 1 : 0)
      << ", \"nproc\": " << c.nproc
      << ", \"compiler\": " << JsonString(__VERSION__)
      << ", \"build_type\": " << JsonString(CQCS_PERFBENCH_BUILD_TYPE)
      << ", \"git_sha\": " << JsonString(git_sha)
      << ", \"loadavg_1m\": " << LoadAverage() << "}";
  return out.str();
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  for (const char* required : {"workload", "seed", "seconds", "trace", "out-dir"}) {
    if (args.count(required) == 0) {
      return Usage(std::string("missing --") + required);
    }
  }
  if (std::string(CQCS_PERFBENCH_BUILD_TYPE) != "Release") {
    return Usage(std::string("refusing to measure a non-Release build (") +
                 CQCS_PERFBENCH_BUILD_TYPE + ")");
  }
  RunConfig config;
  config.workload = args["workload"];
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  config.trace = args["trace"] == "1";
  config.out_dir = args["out-dir"];
  config.nproc = Nproc();
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) return Usage("cannot create " + config.out_dir);

  const std::map<std::string, RunResult (*)(const RunConfig&)> workloads = {
      {"serve_hot", RunServeHot},
      {"serve_churn", RunServeChurn},
      {"engine_cyclic", RunEngineCyclic},
  };
  auto it = workloads.find(config.workload);
  if (it == workloads.end()) return Usage("unknown workload " + config.workload);

  const std::string provenance =
      Provenance(config, args.count("git-sha") ? args["git-sha"] : "unknown");
  std::cout << "provenance: " << provenance << std::endl;
  RunResult result;
  try {
    result = it->second(config);
  } catch (const std::exception& e) {
    std::cerr << "cqcs_perfbench: " << e.what() << "\n";
    return 2;
  }
  for (const std::string& line : result.log) std::cout << line << "\n";
  // A failed request is never checked by an oracle and is left out of the
  // latency samples, so a run with any counts as incorrect: shedding the
  // slow requests must not read as a speed-up.
  const bool correct = result.mismatches == 0 && result.failed == 0;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed
       << ", \"metrics\": " << result.metrics.ToJson() << "}";
  std::ofstream(config.out_dir + "/" + config.workload + "-seed" +
                std::to_string(config.seed) + "-trace" +
                (config.trace ? "1" : "0") + "-result.json")
      << "{\"provenance\": " << provenance << ", \"result\": " << line.str()
      << "}\n";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
