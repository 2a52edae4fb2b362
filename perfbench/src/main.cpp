// torex benchmark driver: one workload per process, one thread.
//
//   torex_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: alltoall_2d, checked_3d, svc_sessions (see workloads.hpp
// and each workload's file). Prints an environment block, a metric
// table, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 0 when every output checked correct, 3 when a check failed (the
// result line still says what was measured, with "correct": false), and
// 2 on bad flags or a refused (unoptimised) build.
#include <charconv>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;

bool parse_number(const std::string& text, double& out) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  return !text.empty() && ec == std::errc{} && ptr == last;
}

bool parse_args(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "flag " << flag << " needs a value\n";
      return false;
    }
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_number(value, number) && number >= 0) {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds" && parse_number(value, number) && number > 0) {
      options.seconds = number;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else {
      std::cerr << "bad flag or value: " << flag << " " << value << "\n";
      return false;
    }
  }
  if (!have_workload) std::cerr << "--workload is required\n";
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return 2;
  perfbench::Result result;
  try {
    bool ran = false;
    if (options.workload == "alltoall_2d") {
      ran = perfbench::run_alltoall_2d(options, result);
    } else if (options.workload == "checked_3d") {
      ran = perfbench::run_checked_3d(options, result);
    } else if (options.workload == "svc_sessions") {
      ran = perfbench::run_svc_sessions(options, result);
    } else {
      std::cerr << "unknown workload: " << options.workload << "\n";
      return 2;
    }
    if (!ran) return 2;
  } catch (const std::exception& error) {
    // A throw escaping a workload is a failed correctness check of the
    // run as a whole; the result line still reports what was measured.
    result.check(false, std::string("workload threw: ") + error.what());
    if (result.attempted == 0) result.attempted = 1;
    result.failed = result.attempted;
  }
  perfbench::finish(result, options.trace);
  perfbench::print_result(result);
  return result.correct ? 0 : 3;
}
