// Repository benchmark: runs one named workload on the shipped
// configuration and prints its metrics as a one-line JSON object, last.
//
//   perfbench --workload rollout|inverse|serve --seed N --seconds S
//             --trace 0|1 [--root DIR] [--commit ID]
//
// --trace 0 reports the end-to-end metrics of an uninstrumented run;
// --trace 1 reports the per-layer metrics of a separate traced run, timed
// around calls into each layer's public functions. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

/// Toggles that select a configuration other than the shipped one.
constexpr const char* kRefusedEnv[] = {
    "GNS_ARENA", "GNS_FUSED",        "GNS_SKIN",        "GNS_SIMD",
    "GNS_EXEC",  "GNS_EXEC_WORKERS", "GNS_NUM_THREADS", "GNS_TRACE"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rollout|inverse|serve --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--commit ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; the benchmark measures only the "
                   "shipped configuration. Unset it and rerun.\n",
                   name);
      return 2;
    }
  }

  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--root") {
      args.root = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (args.seconds <= 0.0) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    perfbench::print_fingerprint(args);
    if (args.workload == "rollout") {
      perfbench::run_rollout(args, report);
    } else if (args.workload == "inverse") {
      perfbench::run_inverse(args, report);
    } else if (args.workload == "serve") {
      perfbench::run_serve(args, report);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print_json();
  return 0;
}
