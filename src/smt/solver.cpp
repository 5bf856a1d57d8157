#include "smt/solver.hpp"

#include <stdexcept>

namespace binsym::smt {

const char* check_result_name(CheckResult result) {
  switch (result) {
    case CheckResult::kSat:     return "sat";
    case CheckResult::kUnsat:   return "unsat";
    case CheckResult::kUnknown: return "unknown";
  }
  return "?";
}

// -- Base-class scoped API: the compatibility adapter. ------------------------
//
// Assertions stay client-side; check_assuming() replays scoped ∧ assumptions
// through one stateless check(). Correct for every backend; no reuse across
// checks beyond whatever the backend does internally.

void Solver::push() { scope_marks_.push_back(scoped_.size()); }

void Solver::pop() {
  if (scope_marks_.empty())
    throw std::logic_error("Solver::pop() without matching push()");
  scoped_.resize(scope_marks_.back());
  scope_marks_.pop_back();
}

void Solver::assert_(ExprRef assertion) { scoped_.push_back(assertion); }

CheckResult Solver::check_assuming(std::span<const ExprRef> assumptions,
                                   Assignment* model) {
  std::vector<ExprRef> all(scoped_.begin(), scoped_.end());
  all.insert(all.end(), assumptions.begin(), assumptions.end());
  // check() does its own accounting (queries/sat/unsat/solve_seconds); the
  // incremental counters record that this went through the scoped API.
  CheckResult result = check(all, model);
  ++stats_.incremental_checks;
  stats_.reused_assertions += scoped_.size();
  return result;
}

}  // namespace binsym::smt
