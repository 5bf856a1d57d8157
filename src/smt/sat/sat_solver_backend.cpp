// smt::Solver backend over the in-tree bit-blaster + CDCL solver.
//
// Incremental in the MiniSat style: a CdclSolver and its BitBlaster live
// as long as the backend, so each expression node is blasted once per
// instance (nodes are hash-consed and the blaster memoizes by node id) and
// learnt clauses carry over from one check to the next. The CNF holds only
// definitions (bitblast.hpp), so nothing a query asks is ever a clause:
// check() and check_assuming() each become one CdclSolver::solve() under
// the root literals of the scoped assertions and the query as assumptions.
// The base class's client-side scope stack is therefore the whole scope
// machinery — push/pop/assert_ need no override and no activation literals.
//
// The default primary backend; also the differential oracle for the SMT
// layer, where the property tests require it and Z3 to agree on sat/unsat
// for engine-generated queries.
#include <chrono>
#include <memory>

#include "smt/sat/bitblast.hpp"
#include "smt/solver.hpp"

namespace binsym::smt {

namespace {

class BitblastSolver final : public Solver {
 public:
  explicit BitblastSolver(Context& ctx) : ctx_(ctx) {
    scoped_instance_.cdcl.set_interrupt(&cancel_flag_);
    stateless_instance_.cdcl.set_interrupt(&cancel_flag_);
  }

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override {
    return solve(stateless_instance_, {}, assertions, model);
  }

  CheckResult check_assuming(std::span<const ExprRef> assumptions,
                             Assignment* model) override {
    ++stats_.incremental_checks;
    stats_.reused_assertions += scoped_.size();
    return solve(scoped_instance_, scoped_, assumptions, model);
  }

  std::string name() const override { return "bitblast+cdcl"; }

 private:
  struct Instance {
    sat::CdclSolver cdcl;
    sat::BitBlaster blaster{cdcl};
  };

  /// One solve of `instance` under the root literals of `scoped` ∧ `query`.
  CheckResult solve(Instance& instance, std::span<const ExprRef> scoped,
                    std::span<const ExprRef> query, Assignment* model) {
    auto start = std::chrono::steady_clock::now();
    ++stats_.queries;

    // A cancel that landed before the check started (a portfolio race
    // already decided) skips the work entirely.
    if (cancel_requested()) {
      ++stats_.unknown;
      return CheckResult::kUnknown;
    }

    // The per-query deadline covers the whole check (blasting + search);
    // only the CDCL loop probes it and the cancel flag, but blasting is
    // polynomial in the new nodes so the search dominates every hard query.
    instance.cdcl.set_deadline(
        deadline_ms_ > 0
            ? std::optional(start + std::chrono::milliseconds(deadline_ms_))
            : std::nullopt);
    roots_.clear();
    for (ExprRef root : scoped) roots_.push_back(instance.blaster.literal(root));
    for (ExprRef root : query) roots_.push_back(instance.blaster.literal(root));

    CheckResult result = CheckResult::kUnknown;
    switch (instance.cdcl.solve(roots_)) {
      case sat::SatResult::kSat:     result = CheckResult::kSat; break;
      case sat::SatResult::kUnsat:   result = CheckResult::kUnsat; break;
      case sat::SatResult::kUnknown: result = CheckResult::kUnknown; break;
    }

    if (result == CheckResult::kSat) {
      ++stats_.sat;
      // Every variable blasted so far gets a value, like the Z3 backend's
      // models over its persistent variable registry.
      if (model) {
        for (const auto& [var_id, bits] : instance.blaster.vars()) {
          (void)bits;
          model->set(var_id, instance.blaster.var_value(
                                 var_id, ctx_.var_info(var_id).width));
        }
      }
    } else if (result == CheckResult::kUnsat) {
      ++stats_.unsat;
    } else {
      ++stats_.unknown;
    }

    stats_.solve_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return result;
  }

  Context& ctx_;
  // Flips (check_assuming) and stateless checks (oracle candidates, failover
  // rescues, portfolio races) solve on separate instances, so a flip's
  // model depends only on the flips before it: a cost-only toggle that
  // removes candidate checks (static pruning) then leaves even a capped
  // exploration's path set unchanged.
  Instance scoped_instance_;
  Instance stateless_instance_;
  std::vector<sat::Lit> roots_;  // scratch: this check's assumptions
};

}  // namespace

std::unique_ptr<Solver> make_bitblast_solver(Context& ctx) {
  return std::make_unique<BitblastSolver>(ctx);
}

}  // namespace binsym::smt
