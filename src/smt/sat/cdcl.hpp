// CDCL SAT solver (MiniSat-style core).
//
// Backs the project's own bit-blasting solver backend: two-watched-literal
// propagation, first-UIP conflict analysis with clause learning and
// backjumping, VSIDS-like activity decisions (a binary heap) with phase
// saving, and geometric restarts. Small by design, but a real solver —
// property tests cross-check it against Z3 on engine-generated queries.
//
// Incremental in the MiniSat style (Eén & Sörensson, "An Extensible
// SAT-solver", SAT 2003): one instance answers many solve(assumptions)
// calls. Assumption literals are the first decisions, so a false one ends
// the call with kUnsat without touching the clause database; clauses may be
// added between calls, and learnt clauses (implied by the clauses alone,
// never by the assumptions) are kept for every later call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace binsym::smt::sat {

using Var = int32_t;
/// Literal encoding: 2*var + sign (sign bit set == negated).
using Lit = int32_t;

constexpr Lit make_lit(Var var, bool negated) { return 2 * var + negated; }
constexpr Var lit_var(Lit lit) { return lit >> 1; }
constexpr bool lit_negated(Lit lit) { return lit & 1; }
constexpr Lit lit_not(Lit lit) { return lit ^ 1; }

enum class SatResult : uint8_t { kSat, kUnsat, kUnknown /* deadline hit */ };

struct CdclStats {
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t conflicts = 0;
  uint64_t learned_clauses = 0;
  uint64_t restarts = 0;
};

class CdclSolver {
 public:
  Var new_var();
  int num_vars() const { return static_cast<int>(activity_.size()); }

  /// Add a clause, also between solve() calls; returns false if the
  /// formula became trivially unsat (empty clause after simplification
  /// against root-level assignments). Discards the last solve()'s model.
  bool add_clause(std::vector<Lit> lits);

  /// Abandon the search (returning kUnknown) once this instant passes;
  /// nullopt removes the deadline. Probed every few hundred search-loop
  /// iterations, so the overrun is bounded by one propagation burst, not by
  /// total query hardness.
  void set_deadline(
      std::optional<std::chrono::steady_clock::time_point> deadline) {
    deadline_ = deadline;
  }

  /// Cooperative interrupt: abandon the search (returning kUnknown) once
  /// *flag becomes true. Probed alongside the deadline; the flag is owned
  /// by the caller (another thread may set it — smt::Solver::cancel()) and
  /// must outlive every solve().
  void set_interrupt(const std::atomic<bool>* flag) { interrupt_ = flag; }

  /// Is the clause set satisfiable with every literal of `assumptions` true?
  /// kUnsat under assumptions says nothing about the clauses alone. A
  /// kUnknown (deadline or interrupt) leaves the instance valid for the
  /// next call.
  SatResult solve(std::span<const Lit> assumptions = {});

  /// Model access: valid after solve() returned kSat, until the next
  /// add_clause() or solve().
  bool value(Var var) const { return assigns_[var] == 1; }

  const CdclStats& stats() const { return stats_; }

 private:
  static constexpr int kUndef = -1;

  struct Clause {
    std::vector<Lit> lits;
    bool learned = false;
  };
  /// A watch of a clause, with one of its other literals as the blocker
  /// (MiniSat 2.2): while the blocker is true the clause is satisfied and
  /// propagation skips it without reading the clause.
  struct Watch {
    int clause;
    Lit blocker;
  };

  // -1 unassigned, 0 false, 1 true (per variable).
  int8_t lit_value(Lit lit) const {
    int8_t v = assigns_[lit_var(lit)];
    if (v < 0) return -1;
    return lit_negated(lit) ? static_cast<int8_t>(1 - v) : v;
  }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void enqueue(Lit lit, int reason);
  int propagate();  // returns conflicting clause index or kUndef
  void analyze(int conflict, std::vector<Lit>* learned, int* backjump_level);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(Var var);
  void decay_activities();
  void attach(int clause_index);

  // Decision order: a binary max-heap of variables by (activity desc, var
  // asc) — the same choice a linear scan for the most active unassigned
  // variable makes, at O(log n) per decision.
  bool heap_before(Var a, Var b) const {
    return activity_[a] > activity_[b] ||
           (activity_[a] == activity_[b] && a < b);
  }
  void heap_insert(Var var);
  void heap_up(size_t pos);
  void heap_down(size_t pos);
  Var heap_pop();

  std::vector<Clause> clauses_;
  std::vector<std::vector<Watch>> watches_;  // per literal
  std::vector<int8_t> assigns_;              // per var
  std::vector<int> reason_;                  // per var: clause index or kUndef
  std::vector<int> level_;                   // per var
  std::vector<double> activity_;             // per var
  std::vector<bool> phase_;                  // per var: saved polarity
  std::vector<char> seen_;                   // per var: analyze() scratch
  std::vector<Var> heap_;                    // decision order
  std::vector<int> heap_pos_;                // per var: index in heap_ or -1
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t propagate_head_ = 0;
  double activity_inc_ = 1.0;
  bool unsat_ = false;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  const std::atomic<bool>* interrupt_ = nullptr;
  CdclStats stats_;
};

}  // namespace binsym::smt::sat
