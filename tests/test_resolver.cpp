// Engine-level tests of the resolver (smt/resolver.hpp), the one tier
// chain every flip and oracle candidate goes through:
//
//   * one ledger — every question is answered by exactly one tier, under
//     every solver-pipeline configuration and with oracles attached;
//   * a warm-store re-exploration never calls the backend: no check, and
//     no scope traffic either, because the scope opens only on demand;
//   * oracle candidates share the cache: a repeated unsat candidate is
//     answered from it, with an unchanged finding set;
//   * the scope never leaks, not even past a throwing backend check.
//
// Backend calls are counted by a forwarding CountingSolver under each
// worker's z3 backend (solver_test_util.hpp).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "elf/elf32.hpp"
#include "isa/decoder.hpp"
#include "oracles/manager.hpp"
#include "smt/solver.hpp"
#include "smt/store.hpp"
#include "solver_test_util.hpp"
#include "spec/registry.hpp"
#include "support/fault.hpp"
#include "workloads/workloads.hpp"

namespace binsym {
namespace {

namespace fs = std::filesystem;
using Counts = smt::CountingSolver::Counts;
using FindingKey = std::tuple<core::OracleKind, uint32_t, uint32_t>;

std::string fresh_dir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "binsym-resolver-" + tag + "-" +
                    std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

class ResolverEngineTest : public ::testing::Test {
 protected:
  ResolverEngineTest() {
    spec::install_rv32im(registry, table);
    spec::install_custom_madd(table, registry);
    spec::install_zbb(table, registry);
  }

  core::Program load_asm(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  /// Per-worker z3 backends behind one shared call counter, optionally with
  /// every oracle attached (the manager joins the keepalive).
  core::WorkerFactory factory(const core::Program& program,
                              std::shared_ptr<Counts> counts, bool oracles) {
    return [this, &program, counts, oracles](unsigned) {
      core::WorkerResources r;
      r.ctx = std::make_unique<smt::Context>();
      r.executor = std::make_unique<core::BinSymExecutor>(*r.ctx, decoder,
                                                          registry, program);
      r.solver = std::make_unique<smt::CountingSolver>(
          smt::make_z3_solver(*r.ctx), counts);
      if (oracles) {
        std::string error;
        std::shared_ptr<oracles::OracleManager> manager =
            oracles::OracleManager::make(
                *r.ctx,
                oracles::MemoryMap::for_program(
                    program, core::MachineConfig{}.stack_top),
                "all", &error);
        EXPECT_TRUE(manager) << error;
        r.executor->set_observer(manager.get());
        r.keepalive = std::move(manager);
      }
      return r;
    };
  }

  struct Run {
    core::EngineStats stats;
    std::set<std::string> path_keys;
    std::set<FindingKey> findings;
    uint64_t backend_checks = 0;
    uint64_t scope_calls = 0;
  };

  Run explore(const core::Program& program, const core::EngineOptions& options,
              bool oracles = false) {
    auto counts = std::make_shared<Counts>();
    core::DseEngine dse(factory(program, counts, oracles), options);
    Run run;
    run.stats = dse.explore([&run](const core::PathResult& path) {
      std::string key;
      for (const core::BranchRecord& b : path.trace.branches)
        key += b.taken ? '1' : '0';
      run.path_keys.insert(key);
    });
    for (const core::Finding& f : dse.findings())
      run.findings.emplace(f.oracle, f.pc, f.call_depth);
    run.backend_checks = counts->checks;
    run.scope_calls = counts->scope_calls;
    return run;
  }

  /// flip_attempts + candidates_checked == solver.queries == the sum of
  /// the four answering tiers, with the backend's share counted at the
  /// backend itself.
  static void expect_one_ledger(const Run& run, const std::string& label) {
    const core::EngineStats& s = run.stats;
    EXPECT_EQ(s.flip_attempts + s.candidates_checked, s.solver.queries)
        << label;
    EXPECT_EQ(s.solver.queries, s.solver.cache_hits + s.store_hits +
                                    s.presolve_hits + run.backend_checks)
        << label;
    EXPECT_EQ(s.solver.queries, s.solver.sat + s.solver.unsat +
                                    s.solver.unknown)
        << label;
    EXPECT_EQ(s.queries_unknown, s.solver.unknown) << label;
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

TEST_F(ResolverEngineTest, LedgerBalancesUnderEveryPipelineConfiguration) {
  // The SliceDeterminism configurations (tests/test_slice.cpp), each on a
  // truncated uri-parser exploration: the invariant holds for any prefix
  // of an exploration, so the budget only bounds the test's run time.
  core::Program program = workloads::load_workload(table, "uri-parser");
  struct Config {
    const char* name;
    bool incremental, slice, presolve;
    unsigned jobs;
    bool cache = true;
  };
  const Config configs[] = {
      {"all off", false, false, false, 1},
      {"slice only", false, true, false, 1},
      {"incremental only", true, false, false, 1},
      {"presolve only", false, false, true, 1},
      {"presolve only, no cache", false, false, true, 1, false},
      {"slice+presolve, no cache", false, true, true, 1, false},
      {"all on", true, true, true, 1},
      {"all on, 4 jobs", true, true, true, 4},
  };
  for (const Config& config : configs) {
    core::EngineOptions options;
    options.max_paths = 400;
    options.incremental_solving = config.incremental;
    options.slice_queries = config.slice;
    options.presolve_models = config.presolve;
    options.jobs = config.jobs;
    options.cache_queries = config.cache;
    Run run = explore(program, options);
    EXPECT_EQ(run.stats.paths, 400u) << config.name;
    EXPECT_GT(run.backend_checks, 0u) << config.name;
    expect_one_ledger(run, config.name);
  }

  // Oracle candidates are questions like flips: same ledger.
  core::Program buggy = workloads::load_workload(table, "buggy-uri-parser");
  core::EngineOptions options;
  options.jobs = 4;
  Run run = explore(buggy, options, /*oracles=*/true);
  EXPECT_GT(run.stats.candidates_checked, 0u);
  EXPECT_EQ(run.findings.size(), 2u);
  expect_one_ledger(run, "buggy-uri-parser, all oracles");
}

TEST_F(ResolverEngineTest, WarmStoreReexplorationNeverTouchesTheBackend) {
  // Every flip of the warm run is answered by a tier in front of the
  // backend, so the backend sees no check and — with the scope opened only
  // on demand — no push, pop or assert either.
  core::Program program = workloads::load_workload(table, "uri-parser");
  const std::string store_dir = fresh_dir("warm");
  core::EngineOptions options;
  options.solver_store = smt::SolverStore::open(store_dir);
  Run cold = explore(program, options);
  EXPECT_GT(cold.backend_checks, 0u);
  EXPECT_GT(cold.scope_calls, 0u);
  expect_one_ledger(cold, "cold");

  options.solver_store = smt::SolverStore::open(store_dir);
  ASSERT_TRUE(options.solver_store->load_error().empty());
  Run warm = explore(program, options);
  EXPECT_EQ(warm.path_keys, cold.path_keys);
  EXPECT_GT(warm.stats.store_hits, 0u);
  EXPECT_EQ(warm.backend_checks, 0u);
  EXPECT_EQ(warm.scope_calls, 0u);
  expect_one_ledger(warm, "warm");
}

// Two paths (byte 0 below / not below 50) reach the same two loads with the
// same byte-1 state. The masked load is always in bounds, so its oob-load
// candidate is unsat — and, once sliced, byte-for-byte the same query on
// both paths. The unmasked load runs up to 239 bytes past `tbl`: the one
// finding.
constexpr const char* kRepeatedCandidateGuest = R"(
_start:
    la a0, buf
    li a1, 2
    li a7, 2
    ecall
    la t0, buf
    lbu t1, 0(t0)
    lbu t2, 1(t0)
    li t3, 50
    bltu t1, t3, low
    nop
low:
    andi t4, t2, 15
    la t5, tbl
    add t5, t5, t4
    lbu t6, 0(t5)
    la t5, tbl
    add t5, t5, t2
    lbu t6, 0(t5)
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 2
tbl: .space 16
)";

TEST_F(ResolverEngineTest, RepeatedUnsatCandidateIsAnsweredFromTheCache) {
  core::Program program = load_asm(kRepeatedCandidateGuest);
  // No candidate_prune: every candidate reaches the resolver, as under
  // explore --no-static-prune.
  core::EngineOptions options;
  Run cached = explore(program, options, /*oracles=*/true);
  options.cache_queries = false;
  Run uncached = explore(program, options, /*oracles=*/true);

  EXPECT_EQ(cached.path_keys.size(), 2u);
  EXPECT_EQ(cached.path_keys, uncached.path_keys);
  EXPECT_EQ(cached.findings.size(), 1u);
  EXPECT_EQ(cached.findings, uncached.findings);
  // The one flip is the root's; every cache hit is a candidate's, and each
  // one saved a backend check.
  EXPECT_EQ(cached.stats.flip_attempts, 1u);
  EXPECT_GE(cached.stats.solver.cache_hits, 1u);
  EXPECT_EQ(cached.stats.candidates_checked, uncached.stats.candidates_checked);
  EXPECT_EQ(cached.backend_checks + cached.stats.solver.cache_hits,
            uncached.backend_checks);
  expect_one_ledger(cached, "cache on");
  expect_one_ledger(uncached, "cache off");
}

constexpr const char* kTwoBranchGuest = R"(
_start:
    la a0, buf
    li a1, 2
    li a7, 2
    ecall
    la t0, buf
    lbu t1, 0(t0)
    lbu t2, 1(t0)
    li t3, 50
    bltu t1, t3, half
    nop
half:
    bltu t1, t2, done
done:
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 2
)";

TEST_F(ResolverEngineTest, ScopeIsClosedOnEveryExitPathIncludingAThrow) {
  // The root trace's second flip reaches the backend inside the open flip
  // scope, and that check throws. The job is retried; the scope must not
  // leak into it (no scope is ever nested) nor outlive the exploration.
  core::Program program = load_asm(kTwoBranchGuest);
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  auto counts = std::make_shared<Counts>();
  auto counting =
      std::make_unique<smt::CountingSolver>(smt::make_z3_solver(ctx), counts);
  smt::Solver& backend = *counting;
  core::EngineOptions options;
  options.fault_plan = support::FaultPlan::parse("solver-throw@2");
  ASSERT_TRUE(options.fault_plan);
  core::DseEngine engine(executor, std::move(counting), options);
  const core::EngineStats stats = engine.explore();

  EXPECT_EQ(stats.worker_errors, 1u);
  EXPECT_EQ(stats.jobs_requeued, 1u);
  EXPECT_EQ(counts->max_scopes.load(), 1u);
  EXPECT_EQ(backend.num_scopes(), 0u);
  EXPECT_EQ(engine.solver().num_scopes(), 0u);
}

}  // namespace
}  // namespace binsym
