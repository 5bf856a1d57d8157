// The resolver: one tier chain for every satisfiability question the
// engine asks.
//
// A branch flip asks whether `prefix ∧ ¬cond` is satisfiable, where the
// trace prefix grows by a few constraints from one flip to the next; an
// oracle candidate asks the same of a one-off conjunction `prefix ∧
// violation`. Both go through the same tiers, cheapest first:
//
//   slice    — constraint-independence slicing (slice.hpp) defines the
//              effective query every tier below sees;
//   cache    — this resolver's QueryCache, keyed by the effective query;
//   store    — the persistent SolverStore (shared across workers and
//              processes), same key, with collision checks;
//   presolve — recently returned sat models, evaluated on the query;
//   backend  — the Solver. Incremental flips go through its scoped API; the
//              resolver owns the scope, opens it and asserts the pending
//              prefix only when a flip reaches the backend, and pops it on
//              reset_prefix(), before a candidate's stateless check, and on
//              destruction.
//
// The backend tier is composed here too, in this order:
//
//   faults   — the fault plan's solver sites stand in for the primary:
//              `solver` answers kUnknown, `solver-throw` throws;
//   primary  — the Solver above;
//   failover — when the primary answered kUnknown or threw (and no cancel
//              was requested), a lazily built secondary decides the
//              effective query in one stateless check, under the primary's
//              full per-query deadline;
//   validate — every sat model is evaluated on the conjunction its backend
//              was asked; a mismatch throws std::logic_error.
//
// Each question is answered by exactly one tier and counted there in the
// Ledger. A kUnknown verdict (only the backend gives one) is never cached,
// stored or pooled.
//
// Thread-safety: none. A Resolver is confined to one engine worker like the
// Context and Solver it is built over; only the store tier is shared (and
// internally locked).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "smt/cache.hpp"
#include "smt/eval.hpp"
#include "smt/slice.hpp"
#include "smt/solver.hpp"
#include "smt/store.hpp"
#include "support/fault.hpp"

namespace binsym::smt {

class Resolver {
 public:
  /// Which tiers run. None of them may change a decided verdict, only its
  /// cost: injected faults may only turn one into kUnknown, and failover
  /// may only decide what the primary left unknown.
  struct Options {
    bool slice = true;        // constraint-independence slicing
    bool cache = true;        // per-resolver in-memory QueryCache
    bool presolve = true;     // recent-model pool
    bool incremental = true;  // flips reach the backend through a scope
    bool validate = false;    // evaluate every backend sat model
    SolverStore* store = nullptr;         // persistent tier; null disables
    support::FaultPlan* faults = nullptr;  // injected primary failures
    SolverFactory failover;  // secondary backend, built on the first rescue
  };

  /// Recent sat models the presolve tier keeps.
  static constexpr size_t kPresolvePool = 8;

  /// Exactly one of cache_hits, store_hits, presolve_hits and
  /// backend_checks grows per question; a miss is a tier that was consulted
  /// and could not answer.
  struct Ledger {
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t store_hits = 0;
    uint64_t store_misses = 0;
    uint64_t presolve_hits = 0;
    uint64_t presolve_misses = 0;
    uint64_t backend_checks = 0;
    uint64_t rescues = 0;  // backend checks the failover secondary decided
    uint64_t sat = 0;
    uint64_t unsat = 0;
    uint64_t unknown = 0;
    uint64_t sliced_constraints = 0;  // prefix constraints slicing dropped

    uint64_t questions() const {
      return cache_hits + store_hits + presolve_hits + backend_checks;
    }
  };

  /// `ctx` and `solver` must outlive the resolver; `solver` must have no
  /// scope open and is used by nothing else while the resolver lives.
  Resolver(Context& ctx, Solver& solver, Options options);
  ~Resolver();  // closes the scope; so neither copyable nor movable
  Resolver(const Resolver&) = delete;
  Resolver& operator=(const Resolver&) = delete;

  // -- Flips: one growing prefix per trace. ---------------------------------

  /// End the current trace's flips — also after a throw: drop the prefix
  /// and close the backend scope.
  void reset_prefix();
  /// Append one constraint to the prefix. It reaches the backend only if a
  /// later flip of this trace does.
  void extend_prefix(ExprRef constraint) { prefix_.push_back(constraint); }
  /// Is `prefix ∧ negated` satisfiable? On kSat `*model` receives values
  /// for the effective query's variables (exactly those when slicing).
  CheckResult resolve_flip(ExprRef negated, Assignment* model);

  // -- Oracle candidates: stateless one-off conjunctions. -------------------

  /// Is `prefix ∧ target` satisfiable? Same tiers, same key and same model
  /// contract as resolve_flip.
  CheckResult resolve_candidate(std::span<const ExprRef> prefix,
                                ExprRef target, Assignment* model);

  /// The effective query of the most recent resolve.
  const std::vector<ExprRef>& query() const { return query_; }

  const Ledger& ledger() const { return ledger_; }
  /// The backend's counters, with the query and verdict counts replaced by
  /// the ledger's (every question, whichever tier answered it), plus the
  /// failover rescues and the secondary's solve time.
  SolverStats stats() const;

 private:
  struct PooledModel {
    Assignment model;
    CachingEvaluator eval;  // memo kept across questions; references
                            // `model`, so entries never move
    explicit PooledModel(const Assignment& m) : model(m), eval(model) {}
    PooledModel(const PooledModel&) = delete;
    PooledModel& operator=(const PooledModel&) = delete;
  };

  CheckResult resolve(std::span<const ExprRef> prefix, ExprRef target,
                      bool flip, Assignment* model);
  /// Walk the tiers for query_; fills *found on kSat.
  CheckResult answer(const QueryCache::Key& key, ExprRef target, bool flip,
                     Assignment* found);
  CheckResult check_backend(const QueryCache::Key& key, ExprRef target,
                            bool flip, Assignment* found);
  /// The fault plan's solver sites, then the primary: in the flip scope
  /// when `scoped`, else one stateless check of query_.
  CheckResult check_primary(ExprRef target, bool scoped, Assignment* found);
  /// Decide query_ on the failover secondary; kUnknown if it gives up too.
  CheckResult rescue(Assignment* found);
  bool lookup_store(const QueryCache::Key& key, CheckResult* verdict,
                    Assignment* found);
  const Assignment* find_pooled();
  /// Cache a decided verdict and pool a sat model.
  void remember(const QueryCache::Key& key, CheckResult result,
                const Assignment& model);
  const std::vector<uint32_t>& query_vars();
  void close_scope();

  Context& ctx_;
  Solver& solver_;
  Options options_;
  std::unique_ptr<Solver> secondary_;  // failover backend, built lazily
  QuerySlicer slicer_;
  std::optional<QueryCache> cache_;
  std::deque<PooledModel> pool_;  // newest last

  std::vector<ExprRef> prefix_;   // the current trace's flip prefix
  size_t asserted_ = 0;           // prefix_ entries asserted in the scope
  bool scope_open_ = false;

  std::vector<ExprRef> query_;    // effective query of the last resolve
  std::vector<uint32_t> vars_;    // its sorted distinct variables
  bool vars_ready_ = false;

  Ledger ledger_;
};

}  // namespace binsym::smt
