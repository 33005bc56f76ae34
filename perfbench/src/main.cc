// nestra end-to-end benchmark: one workload per run.
//
//   nestra_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>] [--git-sha <sha>]
//                    [--source-digest <digest>]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// With --out-dir, the run's provenance and metrics (and, traced, its spans)
// are also written there as JSON. Normally started through run.py, which
// builds this binary first.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

using perfbench::FormatNumber;

struct Args {
  perfbench::RunOptions run;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->run.seconds = std::strtod(value.c_str(), &end);
      if (!(args->run.seconds > 0)) {
        *error = "--seconds must be positive";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->run.trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload) *error = "--workload is required";
  return have_workload;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string ProvenanceJson(const Args& args,
                           const perfbench::RunReport& report) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::ostringstream o;
  o << "{\"git_sha\": " << Quote(args.git_sha)
    << ", \"source_digest\": " << Quote(args.source_digest)
    << ", \"build_type\": " << Quote(build_type)
    << ", \"release_build\": " << (build_type == "Release" ? "true" : "false")
    << ", \"compiler\": " << Quote(PERFBENCH_COMPILER)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"workload\": " << Quote(args.run.workload)
    << ", \"num_threads\": " << report.num_threads
    << ", \"scale\": " << FormatNumber(report.scale)
    << ", \"clients\": " << report.clients << ", \"seed\": " << args.run.seed
    << ", \"seconds\": " << FormatNumber(args.run.seconds)
    << ", \"trace\": " << (args.run.trace ? 1 : 0) << "}";
  return o.str();
}

std::string ResultJson(const perfbench::RunReport& report) {
  std::ostringstream o;
  o << "{\"correct\": " << (report.correct ? "true" : "false")
    << ", \"attempted\": " << report.attempted
    << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    o << (i ? ", " : "") << Quote(m.name)
      << ": {\"value\": " << FormatNumber(m.value)
      << ", \"unit\": " << Quote(m.unit) << "}";
  }
  o << "}}";
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "nestra_perfbench: %s\n", error.c_str());
    return 2;
  }
  nestra::Result<perfbench::RunReport> run = perfbench::RunWorkload(args.run);
  if (!run.ok()) {
    std::fprintf(stderr, "nestra_perfbench: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const perfbench::RunReport& report = *run;
  const std::string provenance = ProvenanceJson(args, report);
  const std::string result = ResultJson(report);

  std::cout << "nestra perfbench: workload " << args.run.workload << ", seed "
            << args.run.seed << ", " << FormatNumber(args.run.seconds)
            << " s, " << (args.run.trace ? "traced" : "untraced") << "\n";
  std::cout << "provenance " << provenance << "\n";
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cout << "WARNING: non-Release build (" << PERFBENCH_BUILD_TYPE
              << "); timings are not comparable\n";
  }
  for (const std::string& note : report.notes) std::cout << note << "\n";
  for (const perfbench::Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " " << FormatNumber(m.value) << " "
              << m.unit << "\n";
  }

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.run.workload + "-seed" +
                             std::to_string(args.run.seed) + "-trace" +
                             (args.run.trace ? "1" : "0");
    std::ofstream out(stem + ".json");
    out << "{\"provenance\": " << provenance << ", \"result\": " << result
        << "}\n";
    if (!out) {
      std::fprintf(stderr, "nestra_perfbench: cannot write %s.json\n",
                   stem.c_str());
      return 1;
    }
    if (args.run.trace &&
        !perfbench::WriteSpansJson(stem + "-spans.json", report.spans,
                                   provenance)) {
      std::fprintf(stderr, "nestra_perfbench: cannot write %s-spans.json\n",
                   stem.c_str());
      return 1;
    }
  }
  std::cout << result << std::endl;
  return 0;
}
