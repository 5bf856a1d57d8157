#include "smt/resolver.hpp"

#include <algorithm>
#include <chrono>

namespace binsym::smt {

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
  CheckResult result;
  if (flip && options_.incremental) {
    // Prefix constraints appended since the last backend flip are asserted
    // now, so flips the tiers above answer cost no scope traffic at all.
    if (!scope_open_) {
      solver_.push();
      scope_open_ = true;
      asserted_ = 0;
    }
    for (; asserted_ < prefix_.size(); ++asserted_)
      solver_.assert_(prefix_[asserted_]);
    result = solver_.check_assuming(std::span(&target, 1), found);
  } else {
    result = solver_.check(query_, found);
  }
  if (result == CheckResult::kUnknown) return result;
  remember(key, result, *found);
  if (options_.store) {
    // Recorded for future processes. Models go in by variable name;
    // var_ids are meaningless outside this context.
    SolverStore::Entry persisted;
    persisted.verdict = result;
    persisted.backend = solver_.last_backend();
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
    for (ExprRef assertion : query_) {
      if (evaluate(assertion, *found) != 1) {
        found->values.clear();
        return false;
      }
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
  return s;
}

}  // namespace binsym::smt
