// Solver abstraction.
//
// The engine asks one question, many times: "is this conjunction of width-1
// expressions satisfiable, and if so under which variable assignment?". The
// abstraction allows swapping Z3 (the paper's solver) for the built-in
// bit-blasting backend, an external SMT-LIB process (pipe.hpp) or a racing
// portfolio (portfolio.hpp). The engine's Resolver (resolver.hpp) puts its
// slicing, cache, store and presolve tiers in front of the chosen backend,
// and composes fault injection, failover to a secondary backend and model
// validation around it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"

namespace binsym::smt {

/// Outcome of a satisfiability check (kUnknown covers backend resource
/// limits and theories the backend cannot decide).
enum class CheckResult { kSat, kUnsat, kUnknown };

/// Human-readable name for a CheckResult ("sat", "unsat", "unknown").
const char* check_result_name(CheckResult result);

/// Per-solver counters, accumulated across every check*() call.
/// Thread-safety: plain data owned by the (single-threaded) solver; the
/// engine merges per-worker copies after the workers join.
struct SolverStats {
  uint64_t queries = 0;
  uint64_t sat = 0;
  uint64_t unsat = 0;
  uint64_t unknown = 0;
  uint64_t cache_hits = 0;          // answered by the Resolver's cache
  uint64_t cache_misses = 0;        // Resolver cache lookups that missed
  uint64_t incremental_checks = 0;  // check_assuming() calls reaching a backend
  uint64_t reused_assertions = 0;   // scoped assertions live per such check,
                                    // summed (the assumption-reuse depth)
  uint64_t failover_rescues = 0;    // Resolver failover: queries the
                                    // primary backend gave up on (unknown/
                                    // timeout/exception) that the secondary
                                    // decided
  // -- PortfolioSolver (portfolio.hpp). Zero for every other stack.
  uint64_t portfolio_races = 0;      // checks decided by racing the members
  uint64_t portfolio_routed = 0;     // checks sent to one member by the router
  uint64_t portfolio_cancelled = 0;  // member checks cancelled (or skipped)
                                     // after another member won the race
  std::map<std::string, uint64_t> portfolio_wins;  // decided checks per
                                                   // winning member backend
  double solve_seconds = 0;         // wall time spent inside check*()

  /// Fold another solver's counters in (per-worker stats aggregation).
  void merge(const SolverStats& other) {
    queries += other.queries;
    sat += other.sat;
    unsat += other.unsat;
    unknown += other.unknown;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    incremental_checks += other.incremental_checks;
    reused_assertions += other.reused_assertions;
    failover_rescues += other.failover_rescues;
    portfolio_races += other.portfolio_races;
    portfolio_routed += other.portfolio_routed;
    portfolio_cancelled += other.portfolio_cancelled;
    for (const auto& [backend, wins] : other.portfolio_wins)
      portfolio_wins[backend] += wins;
    solve_seconds += other.solve_seconds;
  }
};

/// Thread-safety: a Solver (any backend) is single-threaded —
/// it is built over one smt::Context, which is itself confined to one
/// engine worker. Parallel exploration gives every worker its own solver;
/// nothing here locks.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Check satisfiability of the conjunction of `assertions` (each width 1).
  /// On kSat, `*model` (if non-null) receives values for at least every free
  /// variable occurring in the assertions; missing variables may take any
  /// value (the Assignment treats them as zero). Must only be called with no
  /// scopes open (stateless use; the scoped API below is the alternative).
  virtual CheckResult check(std::span<const ExprRef> assertions,
                            Assignment* model) = 0;

  // -- Scoped (incremental) API. --------------------------------------------
  //
  // The engine asserts a trace's branch-prefix constraints once and checks
  // each flip as an assumption on top, instead of re-sending the whole
  // conjunction per flip. The base-class implementation keeps the scoped
  // assertions client-side and answers check_assuming() via one stateless
  // check() over scoped + assumptions — a correct compatibility adapter for
  // any backend. Z3 overrides all four and keeps the assertion stack in the
  // solver, where learned clauses survive across flips. The bit-blaster
  // keeps the client-side stack and overrides only check_assuming(): it
  // solves scoped + assumptions as assumptions of one persistent CDCL
  // instance, whose learnt clauses survive every check.

  /// Open a new assertion scope.
  virtual void push();
  /// Discard every assertion made since the matching push().
  virtual void pop();
  /// Add a width-1 assertion to the current scope.
  virtual void assert_(ExprRef assertion);
  /// Check scoped assertions ∧ assumptions; assumptions are not retained.
  virtual CheckResult check_assuming(std::span<const ExprRef> assumptions,
                                     Assignment* model);

  /// Per-query wall-clock deadline in milliseconds; 0 disables (the
  /// default). Applies to every subsequent check*() call. A check that
  /// exceeds the deadline returns kUnknown — never a wrong verdict — so
  /// the engine treats it as an explicitly skipped query. Backends honor
  /// it natively (Z3: solver `timeout` param; bitblast: a periodic
  /// interrupt probe in the CDCL search loop); the portfolio forwards it.
  virtual void set_deadline_ms(uint32_t ms) { deadline_ms_ = ms; }
  uint32_t deadline_ms() const { return deadline_ms_; }

  // -- Cooperative cancellation (the portfolio's racing substrate). -----------
  //
  // cancel() asks the in-flight — or not-yet-started — check*() call to give
  // up and return kUnknown as soon as possible; like a deadline expiry it may
  // only weaken the verdict, never change it. Unlike every other method it is
  // safe to call from another thread while a check runs: Z3 interrupts the
  // active search, the bit-blaster probes the flag in its CDCL loop next to
  // the deadline, the pipe backend kills its child process. The request is
  // sticky until reset_cancel() so a cancel landing before the loser's check
  // even starts still takes effect (no lost-cancel race).

  /// Request cancellation (thread-safe; the portfolio forwards it to its
  /// members).
  virtual void cancel() { cancel_flag_.store(true, std::memory_order_relaxed); }
  /// Re-arm for the next check (called by the owner thread between checks).
  virtual void reset_cancel() {
    cancel_flag_.store(false, std::memory_order_relaxed);
  }
  bool cancel_requested() const {
    return cancel_flag_.load(std::memory_order_relaxed);
  }

  /// All currently live scoped assertions, oldest first.
  std::span<const ExprRef> scoped_assertions() const { return scoped_; }
  size_t num_scopes() const { return scope_marks_.size(); }

  /// Human-readable backend name for reports (the engine appends the
  /// tiers it composes around it, e.g. "z3+validate+cache").
  virtual std::string name() const = 0;

  /// Backend that decided the most recent definitive check — the race winner
  /// for a portfolio, name() for a plain backend. The persistent store
  /// records it per query.
  virtual std::string last_backend() const { return name(); }

  /// Counters accumulated so far (see SolverStats).
  const SolverStats& stats() const { return stats_; }
  /// Zero the counters (benchmark harnesses re-measuring one instance).
  void reset_stats() { stats_ = SolverStats{}; }

 protected:
  SolverStats stats_;
  std::vector<ExprRef> scoped_;      // live scoped assertions
  std::vector<size_t> scope_marks_;  // scoped_.size() at each push()
  uint32_t deadline_ms_ = 0;         // per-query deadline, 0 = none
  std::atomic<bool> cancel_flag_{false};  // sticky cancel request (the one
                                          // cross-thread-written member)
};

/// Construct the Z3-backed solver (see z3_solver.cpp).
std::unique_ptr<Solver> make_z3_solver(Context& ctx);

/// Construct the built-in bit-blasting solver, the default primary backend
/// (see sat/sat_solver_backend.cpp).
std::unique_ptr<Solver> make_bitblast_solver(Context& ctx);

/// Builds a backend on demand (the Resolver's lazily built failover
/// secondary).
using SolverFactory = std::function<std::unique_ptr<Solver>()>;

}  // namespace binsym::smt
