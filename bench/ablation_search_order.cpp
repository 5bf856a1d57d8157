// Ablation: path-selection strategy (DESIGN.md design-choice #2).
//
// The paper's BinSym uses depth-first search. This harness compares every
// SearchStrategy implementation (DFS, BFS, random-path, coverage-guided) on
// the evaluation workloads: identical final path counts (completeness is
// search-order independent on fully-explorable programs), but different
// worklist footprints and different time-to-first-failure — the trade SE
// engines actually care about.
//
//   ablation_search_order [--quick] [--jobs N]
#include <cstdio>
#include <cstring>

#include "engines.hpp"

using namespace binsym;

namespace {

struct Run {
  uint64_t paths = 0;
  uint64_t first_failure_path = 0;  // 0 == none found
  uint64_t peak_frontier = 0;
  double seconds = 0;
};

Run explore(const bench::EngineSetup& setup, core::SearchKind kind,
            uint64_t max_paths, unsigned jobs) {
  core::EngineOptions options;
  options.max_paths = max_paths;
  options.search = kind;
  options.jobs = jobs;
  Run run;
  core::EngineStats stats = bench::explore_parallel(
      "binsym", setup, options, [&](const core::PathResult& path) {
        if (!path.trace.failures.empty() && run.first_failure_path == 0)
          run.first_failure_path = path.index + 1;
      });
  run.paths = stats.paths;
  run.peak_frontier = stats.peak_frontier;
  run.seconds = stats.seconds;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  unsigned jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc &&
             !bench::parse_jobs_arg(argv[++i], &jobs))
      return 2;
  }
  uint64_t max_paths = quick ? 150 : 2000;

  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);

  std::printf(
      "ABLATION: PATH SELECTION (BinSym engine, %llu-path budget, %u jobs)\n",
      static_cast<unsigned long long>(max_paths), jobs);
  std::printf("%-16s %-9s %10s %10s %10s %15s\n", "Benchmark", "strategy",
              "paths", "time(s)", "frontier", "first-failure");

  bool counts_agree = true;
  std::vector<std::string> names;
  for (const workloads::WorkloadInfo& info : workloads::table1_workloads())
    names.push_back(info.name);
  names.push_back("parse-word");  // has a reachable failure

  for (const std::string& name : names) {
    core::Program program = workloads::load_workload_or_exit(table, name);
    bench::EngineSetup setup{decoder, registry, program};

    uint64_t reference_paths = 0;
    for (core::SearchKind kind : core::all_search_kinds()) {
      Run run = explore(setup, kind, max_paths, jobs);
      std::printf("%-16s %-9s %10llu %10.3f %10llu", name.c_str(),
                  core::search_kind_name(kind),
                  static_cast<unsigned long long>(run.paths), run.seconds,
                  static_cast<unsigned long long>(run.peak_frontier));
      if (run.first_failure_path)
        std::printf(" %14llu",
                    static_cast<unsigned long long>(run.first_failure_path));
      std::printf("\n");
      if (reference_paths == 0) reference_paths = run.paths;
      counts_agree = counts_agree && run.paths == reference_paths;
    }
  }

  std::printf("\npath counts search-order independent: %s\n",
              counts_agree ? "yes" : "NO (bug!)");
  return counts_agree ? 0 : 1;
}
