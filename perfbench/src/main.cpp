// xbench — one run of one workload (see workloads.cpp), started by run.py.
//
//   xbench --workload NAME --seed N --seconds S --trace 0|1
//          --server-bin PATH --workdir DIR [--setup-only]
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Exit code 0 when the run completed (its JSON says whether outputs were
// correct), 2 on bad arguments, 1 when the run could not complete.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

void print_json(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "xbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") opt.workload = val();
    else if (a == "--seed") opt.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::strtod(val().c_str(), nullptr);
    else if (a == "--trace") opt.trace = val() == "1";
    else if (a == "--server-bin") opt.server_bin = val();
    else if (a == "--workdir") opt.workdir = val();
    else if (a == "--setup-only") opt.setup_only = true;
    else {
      std::fprintf(stderr, "xbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.workdir.empty() || opt.server_bin.empty() ||
      !(opt.seconds > 0)) {
    std::fprintf(stderr, "xbench: --workload, --workdir, --server-bin and --seconds > 0 are required\n");
    return 2;
  }
  // A peer that drops a connection must fail the write, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const perfbench::Result r = perfbench::run_workload(opt);
    for (const auto& line : r.notes) std::printf("%s\n", line.c_str());
    print_json(r);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbench: %s\n", e.what());
    return 1;
  }
}
