#include "smt/resolver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace binsym::smt {

namespace {

bool satisfies(std::span<const ExprRef> conjunction, const Assignment& model) {
  return std::all_of(conjunction.begin(), conjunction.end(),
                     [&model](ExprRef c) { return evaluate(c, model) == 1; });
}

/// Throws std::logic_error unless `model` satisfies `asked` and, when
/// non-null, `target`: the conjunction `backend` was asked.
void validate(const Solver& backend, std::span<const ExprRef> asked,
              ExprRef target, const Assignment& model) {
  if (satisfies(asked, model) && (!target || evaluate(target, model) == 1))
    return;
  throw std::logic_error("solver '" + backend.name() +
                         "' returned a model that does not satisfy the query");
}

}  // namespace

Resolver::Resolver(Context& ctx, Solver& solver, Options options)
    : ctx_(ctx), solver_(solver), options_(options) {
  if (options_.cache) cache_.emplace(/*shards=*/1);
}

Resolver::~Resolver() { close_scope(); }

void Resolver::close_scope() {
  if (!scope_open_) return;
  scope_open_ = false;
  solver_.pop();
}

void Resolver::reset_prefix() {
  close_scope();
  prefix_.clear();
}

CheckResult Resolver::resolve_flip(ExprRef negated, Assignment* model) {
  return resolve(prefix_, negated, /*flip=*/true, model);
}

CheckResult Resolver::resolve_candidate(std::span<const ExprRef> prefix,
                                        ExprRef target, Assignment* model) {
  close_scope();  // stateless checks need every scope closed
  return resolve(prefix, target, /*flip=*/false, model);
}

const std::vector<uint32_t>& Resolver::query_vars() {
  if (!vars_ready_) {
    vars_ = collect_vars(query_);
    vars_ready_ = true;
  }
  return vars_;
}

CheckResult Resolver::resolve(std::span<const ExprRef> prefix, ExprRef target,
                              bool flip, Assignment* model) {
  // The effective query: the target's variable-connected component(s) of
  // the prefix when slicing, the whole conjunction otherwise.
  if (options_.slice) {
    QuerySlicer::Result sliced = slicer_.slice(prefix, target);
    ledger_.sliced_constraints += sliced.dropped;
    query_ = std::move(sliced.query);
    vars_ = std::move(sliced.vars);
    vars_ready_ = true;
  } else {
    query_.assign(prefix.begin(), prefix.end());
    query_.push_back(target);
    vars_ready_ = false;
  }
  QueryCache::Key key;
  if (cache_ || options_.store) key = QueryCache::key_for(query_);

  Assignment found;
  const CheckResult result = answer(key, target, flip, &found);
  switch (result) {
    case CheckResult::kSat:     ++ledger_.sat; break;
    case CheckResult::kUnsat:   ++ledger_.unsat; break;
    case CheckResult::kUnknown: ++ledger_.unknown; break;
  }
  if (result == CheckResult::kSat && model) {
    // A sliced query's model must not leak values for sliced-out
    // variables: those constraints were never asked, and the caller's seed
    // is the witness that satisfies them.
    if (options_.slice) restrict_to_vars(&found, vars_);
    *model = std::move(found);
  }
  return result;
}

CheckResult Resolver::answer(const QueryCache::Key& key, ExprRef target,
                             bool flip, Assignment* found) {
  if (cache_) {
    QueryCache::Entry entry;
    if (cache_->lookup(key, &entry)) {
      ++ledger_.cache_hits;
      *found = std::move(entry.model);
      return entry.result;
    }
    ++ledger_.cache_misses;
  }
  if (options_.store) {
    CheckResult verdict;
    if (lookup_store(key, &verdict, found)) {
      ++ledger_.store_hits;
      // Cached so repeats skip the store's lock, and pooled: a prior run's
      // models pre-answer this run's questions like fresh ones.
      remember(key, verdict, *found);
      return verdict;
    }
    ++ledger_.store_misses;
  }
  if (options_.presolve) {
    if (const Assignment* pooled = find_pooled()) {
      ++ledger_.presolve_hits;
      // The pre-check evaluated variables the pooled model does not assign
      // as zero (Assignment::get's completion); materialize a value for
      // *every* query variable so the caller's seed merge reproduces
      // exactly the assignment that was judged.
      for (uint32_t var : query_vars()) found->set(var, pooled->get(var));
      return CheckResult::kSat;
    }
    ++ledger_.presolve_misses;
  }
  return check_backend(key, target, flip, found);
}

CheckResult Resolver::check_backend(const QueryCache::Key& key, ExprRef target,
                                    bool flip, Assignment* found) {
  ++ledger_.backend_checks;
  const auto start = std::chrono::steady_clock::now();
  const bool scoped = flip && options_.incremental;
  CheckResult result = CheckResult::kUnknown;
  try {
    result = check_primary(target, scoped, found);
  } catch (const std::exception&) {
    if (!options_.failover) throw;
  }
  if (result == CheckResult::kSat && options_.validate)
    validate(solver_, scoped ? prefix_ : query_, scoped ? target : nullptr,
             *found);
  // A cancelled check's kUnknown is the caller's request, not a backend
  // failure: retrying it on the secondary would defeat the cancellation.
  const bool rescued = result == CheckResult::kUnknown && options_.failover &&
                       !solver_.cancel_requested();
  if (rescued) result = rescue(found);
  if (result == CheckResult::kUnknown) return result;
  remember(key, result, *found);
  if (options_.store) {
    // Recorded for future processes. Models go in by variable name;
    // var_ids are meaningless outside this context.
    SolverStore::Entry persisted;
    persisted.verdict = result;
    persisted.backend =
        rescued ? secondary_->last_backend() : solver_.last_backend();
    persisted.var_count = static_cast<uint32_t>(query_vars().size());
    persisted.solve_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    if (result == CheckResult::kSat) {
      persisted.model.reserve(found->values.size());
      for (const auto& [var, value] : found->values)
        persisted.model.emplace_back(ctx_.var_info(var).name, value);
    }
    options_.store->insert(key, std::move(persisted));
  }
  return result;
}

CheckResult Resolver::check_primary(ExprRef target, bool scoped,
                                    Assignment* found) {
  if (options_.faults) {
    if (options_.faults->fire(support::FaultSite::kSolverThrow))
      throw support::FaultInjected("injected solver backend failure");
    if (options_.faults->fire(support::FaultSite::kSolverUnknown))
      return CheckResult::kUnknown;
  }
  if (!scoped) return solver_.check(query_, found);
  // Prefix constraints appended since the last backend flip are asserted
  // now, so flips the tiers above answer cost no scope traffic at all.
  if (!scope_open_) {
    solver_.push();
    scope_open_ = true;
    asserted_ = 0;
  }
  for (; asserted_ < prefix_.size(); ++asserted_)
    solver_.assert_(prefix_[asserted_]);
  return solver_.check_assuming(std::span(&target, 1), found);
}

CheckResult Resolver::rescue(Assignment* found) {
  if (!secondary_) secondary_ = options_.failover();
  if (!secondary_) return CheckResult::kUnknown;
  // The full per-query deadline, not what the primary left of it: after a
  // primary timeout nothing would remain.
  secondary_->set_deadline_ms(solver_.deadline_ms());
  // Sliced-out prefix constraints are independent of the target and the
  // seed satisfies them, so query_ has the verdict of the full conjunction.
  found->values.clear();
  CheckResult result;
  try {
    result = secondary_->check(query_, found);
  } catch (const std::exception&) {
    return CheckResult::kUnknown;
  }
  if (result == CheckResult::kUnknown) return result;
  ++ledger_.rescues;
  if (result == CheckResult::kSat && options_.validate)
    validate(*secondary_, query_, nullptr, *found);
  return result;
}

bool Resolver::lookup_store(const QueryCache::Key& key, CheckResult* verdict,
                            Assignment* found) {
  // The key is a content hash, and a persisted keyspace shared across
  // targets and runs widens the collision exposure, so a hit is never
  // trusted blindly: the lookup rejects entries whose recorded variable
  // count differs, and a kSat entry's translated model must satisfy the
  // query under concrete evaluation. Either mismatch is a colliding key
  // from a different query — a miss, and the backend decides (a wrong
  // unsat would prune feasible paths; a wrong model would corrupt a seed).
  SolverStore::Entry stored;
  if (!options_.store->lookup(
          key, static_cast<uint32_t>(query_vars().size()), &stored))
    return false;
  if (stored.verdict == CheckResult::kSat) {
    // Stored models are name-keyed. Every variable of a query is declared
    // in this context by the time the query exists, so an unknown name can
    // only come from a colliding key, which the evaluation rejects.
    for (const auto& [name, value] : stored.model)
      if (ExprRef var = ctx_.lookup_var(name)) found->set(var->var_id, value);
    if (!satisfies(query_, *found)) {
      found->values.clear();
      return false;
    }
  }
  *verdict = stored.verdict;
  return true;
}

const Assignment* Resolver::find_pooled() {
  for (auto it = pool_.rbegin(); it != pool_.rend(); ++it) {
    CachingEvaluator& eval = it->eval;
    if (std::all_of(query_.begin(), query_.end(),
                    [&eval](ExprRef c) { return eval.evaluate(c) == 1; }))
      return &it->model;
  }
  return nullptr;
}

void Resolver::remember(const QueryCache::Key& key, CheckResult result,
                        const Assignment& model) {
  if (cache_) cache_->insert(key, QueryCache::Entry{result, model});
  if (result != CheckResult::kSat || !options_.presolve) return;
  if (pool_.size() == kPresolvePool) pool_.pop_front();
  pool_.emplace_back(model);
}

SolverStats Resolver::stats() const {
  SolverStats s = solver_.stats();
  s.queries = ledger_.questions();
  s.sat = ledger_.sat;
  s.unsat = ledger_.unsat;
  s.unknown = ledger_.unknown;
  s.cache_hits = ledger_.cache_hits;
  s.cache_misses = ledger_.cache_misses;
  s.failover_rescues = ledger_.rescues;
  if (secondary_) s.solve_seconds += secondary_->stats().solve_seconds;
  return s;
}

}  // namespace binsym::smt
