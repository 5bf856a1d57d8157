// The binsym exploration benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--inject-wrong-count]
//
// Sets a workload up (assemble its targets, run the static analysis, and
// for store-warm fill a SolverStore with one cold pass), then explores all
// of its targets in passes until S seconds have gone by. The seed shuffles
// the target order of every pass and is the engine's rng_seed. Every
// exploration is gated: Table I targets must reach the paper's path count,
// buggy targets exactly their documented (oracle, pc) finding set, and no
// exploration may come back incomplete.
//
// --trace 0 measures untraced passes and reports the end-to-end metrics.
// --trace 1 alternates untraced and traced passes: the traced ones wrap
// every worker's executor and solver in the forwarding decorators of
// layers.hpp and report the per-layer metrics, and the untraced ones are
// the baseline for the tracing overhead and for the transparency check
// (jobs-1 traced passes must reproduce the untraced counters exactly).
//
// Human-readable metric lines go first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Workload choices
// and the metric -> layer mapping are documented in METRICS.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"
#include "engines.hpp"
#include "layers.hpp"
#include "smt/store.hpp"

namespace {

namespace analysis = binsym::analysis;
namespace bench = binsym::bench;
namespace isa = binsym::isa;
namespace spec = binsym::spec;
namespace workloads = binsym::workloads;
using namespace perfbench;

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> targets;
  unsigned jobs;
  core::SearchKind search;
  bool oracles;  // every oracle, with static candidate pruning
  bool store;    // explore over a warm persistent SolverStore
};

// Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"solver-heavy", {"insertion-sort", "bubble-sort"}, 1,
       core::SearchKind::kDepthFirst, false, false},
      {"exec-heavy", {"clif-parser", "uri-parser"}, 1,
       core::SearchKind::kDepthFirst, false, false},
      {"parallel-campaign",
       {"base64-encode", "clif-parser", "uri-parser", "buggy-assert",
        "buggy-div", "buggy-jump-table", "buggy-overflow",
        "buggy-stack-smash", "buggy-unaligned", "buggy-uri-parser"},
       4, core::SearchKind::kCoverageGuided, true, false},
      {"store-warm", {"insertion-sort", "bubble-sort"}, 1,
       core::SearchKind::kDepthFirst, false, true},
  };
  return specs;
}

using FindingSet = std::set<std::pair<std::string, uint32_t>>;

// The buggy corpus's bug sets, as (oracle, pc). Each is the set documented
// in the header of workloads/<target>.s; the pcs are those instructions'
// addresses in the assembled image.
const std::map<std::string, FindingSet>& buggy_findings() {
  static const std::map<std::string, FindingSet> expected = {
      {"buggy-assert", {{"assert-fail", 0x1038}, {"reach", 0x1044}}},
      {"buggy-div", {{"div-by-zero", 0x1084}}},
      {"buggy-jump-table", {{"bad-jump", 0x1080}}},
      {"buggy-overflow", {{"overflow", 0x1098}}},
      {"buggy-stack-smash", {{"stack-smash", 0x10bc}}},
      {"buggy-unaligned", {{"unaligned", 0x1080}}},
      {"buggy-uri-parser", {{"oob-load", 0x1090}, {"oob-store", 0x10ac}}},
  };
  return expected;
}

struct Toolchain {
  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;

  Toolchain() {
    spec::install_rv32im(registry, table);
    spec::install_custom_madd(table, registry);
    spec::install_zbb(table, registry);
  }
};

struct Target {
  std::string name;
  core::Program program;
  uint64_t expect_paths = 0;  // Table I count; 0 = not a Table I target
  FindingSet expect_findings;
  std::function<bool(const core::OracleCandidate&)> prune;
  std::shared_ptr<const core::CfgHints> hints;
};

/// Assemble and analyze every target of `w`; adds the time spent in each
/// step to *load_s and *analysis_s.
std::vector<Target> set_up_targets(const Toolchain& tc, const WorkloadSpec& w,
                                   double* load_s, double* analysis_s) {
  std::vector<Target> targets;
  targets.reserve(w.targets.size());
  for (const std::string& name : w.targets) {
    Target t;
    t.name = name;
    const Clock::time_point t0 = Clock::now();
    t.program = workloads::load_workload(tc.table, name);
    const Clock::time_point t1 = Clock::now();
    const bench::EngineSetup setup{tc.decoder, tc.registry, t.program};
    const analysis::StaticAnalysis sa = analysis::StaticAnalysis::run(
        t.program, tc.decoder, bench::make_memory_map("binsym", setup));
    t.prune = sa.make_prune();
    t.hints = sa.make_hints();
    const Clock::time_point t2 = Clock::now();
    *load_s += seconds_between(t0, t1);
    *analysis_s += seconds_between(t1, t2);
    for (const workloads::WorkloadInfo& info : workloads::table1_workloads())
      if (info.name == name) t.expect_paths = info.paper_paths;
    if (auto it = buggy_findings().find(name); it != buggy_findings().end())
      t.expect_findings = it->second;
    targets.push_back(std::move(t));
  }
  return targets;
}

struct ExploreResult {
  core::EngineStats stats;
  std::vector<core::Finding> findings;
  double wall_s = 0;
};

struct ExploreSpan {
  std::string target;
  Clock::time_point start, end;
  unsigned workers;
};

/// Everything the traced passes record; written to the Chrome trace file.
struct TraceState {
  std::vector<std::unique_ptr<WorkerTrace>> workers;
  std::vector<ExploreSpan> explores;
};

constexpr size_t kSpanBudget = 100'000;  // spans kept in memory, all workers

ExploreResult explore_target(const Toolchain& tc, const Target& t,
                             const WorkloadSpec& w, uint64_t seed,
                             std::shared_ptr<smt::SolverStore> store,
                             TraceState* trace, std::vector<double>* gaps_ms) {
  const bench::EngineSetup setup{tc.decoder, tc.registry, t.program};
  core::EngineOptions options;
  options.jobs = w.jobs;
  options.search = w.search;
  options.rng_seed = seed;
  options.cfg_hints = t.hints;
  if (w.oracles) options.candidate_prune = t.prune;
  options.solver_store = std::move(store);
  core::WorkerFactory factory =
      bench::make_worker_factory("binsym", setup, w.oracles ? "all" : "");
  if (trace) {
    for (auto& worker : trace->workers)
      worker->explore_id = static_cast<uint32_t>(trace->explores.size());
    factory = make_tracing_factory(std::move(factory), trace->workers);
  }
  core::DseEngine dse(std::move(factory), options);

  // A path gap is the time between two paths of the same worker (the first
  // from explore()'s start): per-path execution plus that worker's solver
  // bursts. With several workers the merged callback stream would instead
  // measure how their completions interleave, whose tail swings with
  // thread scheduling far more than with the engine's own work.
  ExploreResult r;
  const Clock::time_point start = Clock::now();
  std::vector<std::pair<std::thread::id, Clock::time_point>> last;
  r.stats = dse.explore([&](const core::PathResult&) {
    const Clock::time_point now = Clock::now();
    const std::thread::id worker = std::this_thread::get_id();
    auto it = std::find_if(last.begin(), last.end(),
                           [&](const auto& l) { return l.first == worker; });
    if (it == last.end()) it = last.insert(last.end(), {worker, start});
    gaps_ms->push_back(seconds_between(it->second, now) * 1e3);
    it->second = now;
  });
  const Clock::time_point end = Clock::now();
  r.wall_s = seconds_between(start, end);
  if (w.oracles) r.findings = dse.findings();
  if (trace) trace->explores.push_back(ExploreSpan{t.name, start, end, w.jobs});
  return r;
}

/// The correctness gate: empty when the exploration is right, else why not.
/// `inject` shifts every reference (one more path, one finding fewer) so
/// the gate can be shown to trip.
std::string gate(const Target& t, const WorkloadSpec& w,
                 const ExploreResult& r, bool inject) {
  if (r.stats.incomplete) return "incomplete: " + r.stats.incomplete_reason;
  if (t.expect_paths != 0) {
    const uint64_t want = t.expect_paths + (inject ? 1 : 0);
    if (r.stats.paths != want)
      return "paths " + std::to_string(r.stats.paths) + " != Table I " +
             std::to_string(want);
  }
  if (w.oracles) {
    FindingSet want = t.expect_findings;
    if (inject && !want.empty()) want.erase(want.begin());
    FindingSet got;
    for (const core::Finding& f : r.findings)
      got.emplace(core::oracle_kind_name(f.oracle), f.pc);
    if (got != want) {
      auto show = [](const FindingSet& set) {
        std::string text = "{";
        char buf[64];
        for (const auto& [oracle, pc] : set) {
          std::snprintf(buf, sizeof buf, " %s@0x%x", oracle.c_str(), pc);
          text += buf;
        }
        return text + " }";
      };
      return "findings " + show(got) + " != expected " + show(want);
    }
  }
  return {};
}

/// The jobs-1 transparency check: a traced exploration must be the same
/// exploration as the untraced one. Empty when it is.
std::string compare_untraced(const core::EngineStats& a,
                             const core::EngineStats& b) {
  std::string diff;
  auto same = [&diff](uint64_t x, uint64_t y, const char* what) {
    if (x != y)
      diff += std::string(" ") + what + " " + std::to_string(x) + "!=" +
              std::to_string(y);
  };
  same(a.paths, b.paths, "paths");
  same(a.instructions, b.instructions, "instructions");
  same(a.snapshot_hits, b.snapshot_hits, "snapshot_hits");
  same(a.flip_attempts, b.flip_attempts, "flip_attempts");
  const smt::SolverStats& s = a.solver;
  const smt::SolverStats& t = b.solver;
  same(s.queries, t.queries, "solver.queries");
  same(s.sat, t.sat, "solver.sat");
  same(s.unsat, t.unsat, "solver.unsat");
  same(s.unknown, t.unknown, "solver.unknown");
  same(s.cache_hits, t.cache_hits, "solver.cache_hits");
  same(s.cache_misses, t.cache_misses, "solver.cache_misses");
  same(s.incremental_checks, t.incremental_checks, "solver.incremental_checks");
  same(s.reused_assertions, t.reused_assertions, "solver.reused_assertions");
  same(s.failover_rescues, t.failover_rescues, "solver.failover_rescues");
  same(s.portfolio_races, t.portfolio_races, "solver.portfolio_races");
  same(s.portfolio_routed, t.portfolio_routed, "solver.portfolio_routed");
  same(s.portfolio_cancelled, t.portfolio_cancelled,
       "solver.portfolio_cancelled");
  if (s.portfolio_wins != t.portfolio_wins) diff += " solver.portfolio_wins";
  return diff;
}

/// The clock that end-to-end timings are reported at. A shared host moves
/// its core clock with its load, by a third within minutes on one VM, and
/// every timing moves with it; METRICS.md, "Steadiness", has the figures.
constexpr double kRefGhz = 3.0;

/// The core clock in GHz: the fastest of five timings of a chain of
/// dependent 64-bit multiply-adds, which take 4 cycles each (3 for the
/// multiply, 1 for the add) on current x86 cores. The fastest, because an
/// interrupt can only slow a timing down.
double measure_clock_ghz() {
  constexpr uint64_t kSteps = 1'000'000;
  double best_s = 0;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t x = rep;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      asm volatile("" : "+r"(x));  // keeps the chain as written
    }
    const double s = seconds_between(t0, Clock::now());
    if (rep == 0 || s < best_s) best_s = s;
  }
  return 4.0 * kSteps / best_s / 1e9;
}

/// Totals over a set of passes. Path gaps are summarized per pass (one
/// pass's samples at a time, so the buffer does not grow with the run and
/// show in peak_rss_mb) and reported as the median over passes.
struct Totals {
  uint64_t passes = 0;
  double explore_s = 0;
  double worker_s = 0;  // workers x wall, summed over explorations
  uint64_t peak_frontier = 0;
  uint64_t gap_samples = 0;
  core::EngineStats stats;
  std::vector<double> pass_gap_p50_ms, pass_gap_p99_ms;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Removes its directory tree on every exit path.
class WorkDir {
 public:
  explicit WorkDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/run-XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (!mkdtemp(buf.data()))
      throw std::runtime_error("cannot create a directory under " + parent);
    path_ = buf.data();
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void write_chrome_trace(const std::string& path, const TraceState& trace,
                        Clock::time_point epoch) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  auto us = [epoch](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  char buf[256];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto event = [&](const std::string& name, Clock::time_point start,
                   Clock::time_point end, unsigned tid, const char* args) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
                  first ? "" : ",", name.c_str(), tid, us(start),
                  us(end) - us(start), args);
    out << buf;
    first = false;
  };
  char args[64];
  for (size_t id = 0; id < trace.explores.size(); ++id) {
    const ExploreSpan& e = trace.explores[id];
    std::snprintf(args, sizeof args, "\"id\":%zu", id);
    for (unsigned w = 0; w < e.workers; ++w)
      event("explore " + e.target, e.start, e.end, w, args);
  }
  for (size_t w = 0; w < trace.workers.size(); ++w) {
    for (const Span& s : trace.workers[w]->spans) {
      std::snprintf(args, sizeof args, "\"parent\":%u", s.explore_id);
      event(span_name(s.kind), s.start, s.end, static_cast<unsigned>(w), args);
    }
  }
  out << "\n]}\n";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--inject-wrong-count]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, work_dir = ".bench_build/perfbench-work";
  uint64_t seed = 1;
  double seconds = 0;
  int trace_flag = -1;
  bool inject = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace_flag = std::atoi(argv[++i]);
    } else if (arg == "--work-dir" && has_value) {
      work_dir = argv[++i];
    } else if (arg == "--inject-wrong-count") {
      inject = true;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec_ptr = nullptr;
  for (const WorkloadSpec& w : workload_specs())
    if (w.name == workload_name) spec_ptr = &w;
  if (!spec_ptr || seconds <= 0 || (trace_flag != 0 && trace_flag != 1)) {
    if (!spec_ptr)
      std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return usage();
  }
  const WorkloadSpec& w = *spec_ptr;
  const bool traced_run = trace_flag == 1;
  const std::string trace_out = work_dir + "/trace-" + w.name + ".json";

  const Clock::time_point epoch = Clock::now();
  Toolchain tc;
  std::mt19937_64 rng(seed);
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  auto check = [&](const Target& t, const ExploreResult& r) {
    ++attempted;
    const std::string why = gate(t, w, r, inject);
    if (!why.empty()) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "gate: %s: %s\n", t.name.c_str(), why.c_str());
    }
  };

  // The core clock, measured before the set-up and before every measured
  // pass; the end-to-end timings are scaled by its mean to kRefGhz.
  std::vector<double> clock_ghz{measure_clock_ghz()};

  // -- Set-up. One set-up takes milliseconds while the machine's speed
  // drifts over seconds, so it runs 5 times here and once more after every
  // measured pass, and setup_s takes the median of all of them. The first
  // copy is the one explored.
  std::vector<double> load_samples, analysis_samples, setup_samples;
  auto set_up = [&] {
    double load_s = 0, analysis_s = 0;
    std::vector<Target> copy = set_up_targets(tc, w, &load_s, &analysis_s);
    load_samples.push_back(load_s);
    analysis_samples.push_back(analysis_s);
    setup_samples.push_back(load_s + analysis_s);
    return copy;
  };
  const std::vector<Target> targets = set_up();
  for (int k = 1; k < 5; ++k) set_up();

  WorkDir dir(work_dir);
  const std::string store_dir = dir.path() + "/store";
  std::vector<double> open_samples;
  auto open_store = [&]() -> std::shared_ptr<smt::SolverStore> {
    if (!w.store) return nullptr;
    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<smt::SolverStore> store = smt::SolverStore::open(store_dir);
    open_samples.push_back(seconds_between(t0, Clock::now()));
    if (!store->load_error().empty()) {
      std::fprintf(stderr, "store: %s\n", store->load_error().c_str());
      correct = false;
    }
    return store;
  };
  double store_setup_s = 0;
  if (w.store) {
    // The cold pass that fills the store is part of this workload's set-up.
    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<smt::SolverStore> store = open_store();
    std::vector<double> gaps;
    for (const Target& t : targets)
      check(t, explore_target(tc, t, w, seed, store, nullptr, &gaps));
    store_setup_s = seconds_between(t0, Clock::now());
  }

  // -- Measured passes. A traced run alternates untraced and traced passes.
  TraceState trace;
  if (traced_run) {
    for (unsigned i = 0; i < w.jobs; ++i) {
      trace.workers.push_back(std::make_unique<WorkerTrace>());
      trace.workers.back()->span_cap = kSpanBudget / w.jobs;
    }
  }
  Totals untraced, traced;
  std::string transparency;
  std::vector<size_t> order(targets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto run_pass = [&](Totals& totals, bool with_trace,
                      std::vector<core::EngineStats>* per_target) {
    std::shared_ptr<smt::SolverStore> store = open_store();
    std::vector<double> gaps_ms;
    for (size_t i : order) {
      const Target& t = targets[i];
      ExploreResult r = explore_target(tc, t, w, seed, store,
                                       with_trace ? &trace : nullptr, &gaps_ms);
      check(t, r);
      totals.explore_s += r.wall_s;
      totals.worker_s += r.wall_s * r.stats.workers;
      totals.peak_frontier =
          std::max(totals.peak_frontier, r.stats.peak_frontier);
      totals.stats.merge(r.stats);
      (*per_target)[i] = r.stats;
    }
    ++totals.passes;
    totals.gap_samples += gaps_ms.size();
    totals.pass_gap_p50_ms.push_back(percentile(gaps_ms, 0.50));
    totals.pass_gap_p99_ms.push_back(percentile(gaps_ms, 0.99));
  };
  const Clock::time_point measure_start = Clock::now();
  for (;;) {
    const Clock::time_point pass_start = Clock::now();
    clock_ghz.push_back(measure_clock_ghz());
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<core::EngineStats> plain(targets.size());
    std::vector<core::EngineStats> wrapped(targets.size());
    run_pass(untraced, false, &plain);
    if (traced_run) {
      run_pass(traced, true, &wrapped);
      for (size_t i = 0; w.jobs == 1 && i < targets.size(); ++i) {
        const std::string diff = compare_untraced(plain[i], wrapped[i]);
        if (!diff.empty())
          transparency += targets[i].name + ":" + diff + "; ";
      }
    }
    set_up();
    // Stop where the measured time comes nearest to S: one more pass only
    // if at least half of it fits. A solver-heavy pass takes seconds, and
    // always finishing the pass that crosses S would overrun it by one.
    const Clock::time_point now = Clock::now();
    if (seconds_between(measure_start, now) +
            seconds_between(pass_start, now) / 2 >=
        seconds)
      break;
  }
  // A time t measured at clock f takes t * f / kRefGhz at kRefGhz.
  double mean_ghz = 0;
  for (double ghz : clock_ghz) mean_ghz += ghz / clock_ghz.size();
  const double to_ref = mean_ghz / kRefGhz;
  const double setup_s = (median(setup_samples) + store_setup_s) * to_ref;

  std::vector<Metric> metrics;
  if (!traced_run) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"paths_per_s",
         ratio(untraced.stats.paths, untraced.explore_s * to_ref), "1/s"},
        {"path_gap_ms_p50", median(untraced.pass_gap_p50_ms) * to_ref, "ms"},
        {"path_gap_ms_p99", median(untraced.pass_gap_p99_ms) * to_ref, "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", usage.ru_maxrss / 1024.0, "MiB"},
    };
    std::printf("workload=%s seed=%llu passes=%llu paths=%llu "
                "path_gap_samples=%llu clock_ghz=%.3f (%.3f-%.3f) "
                "wall_paths_per_s=%.6g\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(untraced.passes),
                static_cast<unsigned long long>(untraced.stats.paths),
                static_cast<unsigned long long>(untraced.gap_samples),
                mean_ghz,
                *std::min_element(clock_ghz.begin(), clock_ghz.end()),
                *std::max_element(clock_ghz.begin(), clock_ghz.end()),
                ratio(untraced.stats.paths, untraced.explore_s));
  } else {
    // Per-layer numbers from the traced passes, per pass where they sum.
    const double passes = static_cast<double>(traced.passes);
    const core::EngineStats& s = traced.stats;
    WorkerTrace sum;
    std::vector<double> check_ms;
    for (const auto& wt : trace.workers) {
      sum.exec_s += wt->exec_s;
      sum.exec_calls += wt->exec_calls;
      sum.resume_calls += wt->resume_calls;
      sum.resume_ok += wt->resume_ok;
      sum.check_s += wt->check_s;
      sum.checks += wt->checks;
      sum.check_unsat += wt->check_unsat;
      sum.check_unknown += wt->check_unknown;
      sum.scope_s += wt->scope_s;
      sum.scope_calls += wt->scope_calls;
      sum.factory_s += wt->factory_s;
      sum.spans_dropped += wt->spans_dropped;
      check_ms.insert(check_ms.end(), wt->check_ms.begin(), wt->check_ms.end());
    }
    // The solver decorator must time what the backend itself reports.
    const double solve_s = s.solver.solve_seconds;
    if (std::fabs(sum.check_s - solve_s) > 0.05 * solve_s + 1e-3) {
      transparency += "solver.check_s " + std::to_string(sum.check_s) +
                      " disagrees with solve_seconds " +
                      std::to_string(solve_s) + "; ";
    }
    // Every virtual with an observable effect must reach the inner object.
    {
      std::vector<std::unique_ptr<WorkerTrace>> probe_trace;
      probe_trace.push_back(std::make_unique<WorkerTrace>());
      const bench::EngineSetup setup{tc.decoder, tc.registry,
                                     targets.front().program};
      core::WorkerResources probe = make_tracing_factory(
          bench::make_worker_factory("binsym", setup, w.oracles ? "all" : ""),
          probe_trace)(0);
      const std::string missing =
          check_forwarding(static_cast<TracingExecutor&>(*probe.executor),
                           static_cast<TracingSolver&>(*probe.solver));
      if (!missing.empty()) transparency += "not forwarded: " + missing + "; ";
    }
    if (!transparency.empty()) {
      correct = false;
      std::fprintf(stderr, "transparency: %s\n", transparency.c_str());
    }
    const double flips = static_cast<double>(s.flip_attempts);
    const double residual_s =
        traced.worker_s - sum.exec_s - sum.check_s - sum.scope_s;
    const double answered = static_cast<double>(s.solver.cache_hits) +
                            s.store_hits + s.presolve_hits + sum.checks;
    metrics = {
        {"setup.load_s", median(load_samples), "s"},
        {"analysis.run_s", median(analysis_samples), "s"},
        {"store.open_s", median(open_samples), "s"},
        {"engine.factory_s", sum.factory_s / passes, "s"},
        {"exec.busy_s", sum.exec_s / passes, "s"},
        {"exec.calls", sum.exec_calls / passes, "count"},
        {"exec.resume_frac", ratio(sum.resume_ok, sum.resume_calls), "ratio"},
        {"exec.instr", s.instructions / passes, "count"},
        {"exec.instr_per_path", ratio(s.instructions, s.paths), "count"},
        {"exec.instr_per_s", ratio(s.instructions, sum.exec_s), "1/s"},
        {"interp.uop_bail_frac", ratio(s.uop_guard_bails, s.uop_cache_hits),
         "ratio"},
        {"solver.check_s", sum.check_s / passes, "s"},
        {"solver.checks", sum.checks / passes, "count"},
        {"solver.check_ms_p50", percentile(check_ms, 0.50), "ms"},
        {"solver.check_ms_p99", percentile(check_ms, 0.99), "ms"},
        {"solver.unsat_frac", ratio(sum.check_unsat, sum.checks), "ratio"},
        {"solver.unknown", sum.check_unknown / passes, "count"},
        {"solver.scope_s", sum.scope_s / passes, "s"},
        {"solver.scope_calls", sum.scope_calls / passes, "count"},
        {"smt.cache_hit_frac", ratio(s.solver.cache_hits, flips), "ratio"},
        {"smt.presolve_hit_frac", ratio(s.presolve_hits, flips), "ratio"},
        {"smt.store_hit_frac", ratio(s.store_hits, flips), "ratio"},
        {"smt.backend_frac", ratio(sum.checks, flips + s.candidates_checked),
         "ratio"},
        {"smt.sliced_per_flip", ratio(s.sliced_constraints, flips), "count"},
        {"smt.intern_hit_frac",
         ratio(s.intern_hits, static_cast<double>(s.intern_hits) +
                                  s.exprs_interned),
         "ratio"},
        {"engine.residual_s", residual_s / passes, "s"},
        {"engine.residual_frac", ratio(residual_s, traced.worker_s), "ratio"},
        {"frontier.peak", static_cast<double>(traced.peak_frontier), "count"},
        {"engine.divergences", s.divergences / passes, "count"},
        {"core.snapshot_pages_copied", s.snapshot_pages_copied / passes,
         "count"},
        {"oracles.candidates_checked", s.candidates_checked / passes, "count"},
        {"oracles.static_proved", s.static_proved / passes, "count"},
        {"oracles.findings", s.findings / passes, "count"},
        {"engine.ledger_gap",
         std::fabs(static_cast<double>(s.solver.queries) - answered) / passes,
         "count"},
        {"trace.overhead_frac",
         ratio(traced.explore_s, untraced.explore_s) - 1, "ratio"},
    };
    write_chrome_trace(trace_out, trace, epoch);
    std::printf("workload=%s seed=%llu traced_passes=%llu spans_dropped=%llu "
                "check_samples=%zu trace=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(traced.passes),
                static_cast<unsigned long long>(sum.spans_dropped),
                check_ms.size(), trace_out.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
