// Tests for the solver stack: Z3 backend, model extraction, the query
// cache and the resolver's tiers, including the backend tier it composes
// (fault injection, failover, model validation).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "smt/cache.hpp"
#include "smt/eval.hpp"
#include "smt/resolver.hpp"
#include "smt/solver.hpp"
#include "solver_test_util.hpp"
#include "support/rng.hpp"

namespace binsym::smt {
namespace {

TEST(Z3Solver, TrivialSatUnsat) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  ExprRef x = ctx.var("x", 32);

  std::vector<ExprRef> sat_query = {ctx.eq(x, ctx.constant(42, 32))};
  EXPECT_EQ(solver->check(sat_query, nullptr), CheckResult::kSat);

  std::vector<ExprRef> unsat_query = {ctx.eq(x, ctx.constant(1, 32)),
                                      ctx.eq(x, ctx.constant(2, 32))};
  EXPECT_EQ(solver->check(unsat_query, nullptr), CheckResult::kUnsat);
  EXPECT_EQ(solver->stats().queries, 2u);
  EXPECT_EQ(solver->stats().sat, 1u);
  EXPECT_EQ(solver->stats().unsat, 1u);
}

TEST(Z3Solver, ModelSatisfiesQuery) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  ExprRef x = ctx.var("x", 32);
  ExprRef y = ctx.var("y", 32);
  // x * 3 == y + 7 and y > 100
  std::vector<ExprRef> query = {
      ctx.eq(ctx.mul(x, ctx.constant(3, 32)), ctx.add(y, ctx.constant(7, 32))),
      ctx.ugt(y, ctx.constant(100, 32))};
  Assignment model;
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  for (ExprRef assertion : query)
    EXPECT_EQ(evaluate(assertion, model), 1u);
}

TEST(Z3Solver, DivisionEdgeCases) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  ExprRef x = ctx.var("x", 32);
  // The Fig. 2 insight: x udiv 0 == all-ones is satisfiable (it's the
  // *definition*), so "z > x" after DIVU is reachable with divisor 0.
  std::vector<ExprRef> query = {
      ctx.eq(ctx.udiv(x, ctx.constant(0, 32)), ctx.constant(0xffffffff, 32))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kSat);
}

TEST(Z3Solver, WideWidths) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  ExprRef a = ctx.var("a", 64);
  std::vector<ExprRef> query = {
      ctx.eq(ctx.mul(a, a), ctx.constant(0x8e45445c9b6f9b39ull, 64))};
  Assignment model;
  // Some 64-bit square; solver decides — just ensure no crash and a valid
  // model on sat.
  CheckResult result = solver->check(query, &model);
  if (result == CheckResult::kSat) {
    EXPECT_EQ(evaluate(query[0], model), 1u);
  }
}

/// A resolver over a call-counting z3 backend, with the tiers chosen.
struct ResolverRig {
  explicit ResolverRig(Resolver::Options options)
      : counts(std::make_shared<CountingSolver::Counts>()),
        solver(std::make_unique<CountingSolver>(make_z3_solver(ctx), counts)),
        resolver(ctx, *solver, options) {}

  Context ctx;
  std::shared_ptr<CountingSolver::Counts> counts;
  std::unique_ptr<Solver> solver;
  Resolver resolver;
};

Resolver::Options tiers(bool slice, bool presolve) {
  Resolver::Options options;
  options.slice = slice;
  options.presolve = presolve;
  return options;
}

TEST(Resolver, HitsOnRepeatedQueries) {
  ResolverRig rig(tiers(/*slice=*/true, /*presolve=*/true));
  Context& ctx = rig.ctx;
  ExprRef x = ctx.var("x", 8);
  ExprRef q = ctx.ult(x, ctx.constant(10, 8));

  Assignment m1, m2;
  EXPECT_EQ(rig.resolver.resolve_candidate({}, q, &m1), CheckResult::kSat);
  EXPECT_EQ(rig.resolver.ledger().cache_hits, 0u);
  EXPECT_EQ(rig.resolver.resolve_candidate({}, q, &m2), CheckResult::kSat);
  EXPECT_EQ(rig.resolver.ledger().cache_hits, 1u);
  EXPECT_EQ(m1.get(x->var_id), m2.get(x->var_id));  // cached model replayed
  EXPECT_EQ(rig.counts->checks.load(), 1u);
  EXPECT_EQ(rig.resolver.stats().queries, 2u);
}

TEST(Resolver, KeyIgnoresOrderDuplicatesAndTrueAssertions) {
  // Unsliced, so the duplicate and the `true` reach the key.
  ResolverRig rig(tiers(/*slice=*/false, /*presolve=*/false));
  Context& ctx = rig.ctx;
  ExprRef x = ctx.var("x", 8);
  ExprRef a = ctx.ult(x, ctx.constant(10, 8));
  ExprRef b = ctx.ugt(x, ctx.constant(3, 8));

  std::vector<ExprRef> q1_prefix = {a};
  std::vector<ExprRef> q2_prefix = {b, a, ctx.bool_const(true)};
  EXPECT_EQ(rig.resolver.resolve_candidate(q1_prefix, b, nullptr),
            CheckResult::kSat);
  EXPECT_EQ(rig.resolver.resolve_candidate(q2_prefix, a, nullptr),
            CheckResult::kSat);
  EXPECT_EQ(rig.resolver.ledger().cache_hits, 1u);
  EXPECT_EQ(rig.counts->checks.load(), 1u);
}

/// Resolver options with model validation on.
Resolver::Options validating() {
  Resolver::Options options;
  options.validate = true;
  return options;
}

TEST(ValidatingSolver, PassesThroughCorrectModels) {
  Context ctx;
  auto backend = make_z3_solver(ctx);
  Resolver resolver(ctx, *backend, validating());
  ExprRef x = ctx.var("x", 16);
  Assignment model;
  EXPECT_EQ(resolver.resolve_candidate(
                {}, ctx.eq(ctx.add(x, ctx.constant(1, 16)), ctx.constant(0, 16)),
                &model),
            CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 0xffffu);
}

TEST(ValidatingSolver, RejectsAModelThatDoesNotSatisfyTheQuery) {
  // A stub "sat" assigns 0 to every variable, which violates x > 100.
  Context ctx;
  StubSolver backend(StubSolver::Mode::kSat);
  Resolver resolver(ctx, backend, validating());
  ExprRef x = ctx.var("x", 16);
  resolver.extend_prefix(ctx.ugt(x, ctx.constant(100, 16)));
  EXPECT_THROW(resolver.resolve_flip(ctx.ult(x, ctx.constant(200, 16)), nullptr),
               std::logic_error);
  EXPECT_THROW(resolver.resolve_candidate({}, ctx.ugt(x, ctx.constant(7, 16)),
                                          nullptr),
               std::logic_error);
}

TEST(QueryCache, RepeatedPrefixQuerySequenceHits) {
  // The engine's characteristic query stream: growing prefixes re-checked
  // across sibling flips. Pin the exact hit/miss accounting of the
  // resolver's cache tier, and that a hit costs no backend traffic.
  ResolverRig rig(tiers(/*slice=*/false, /*presolve=*/false));
  Context& ctx = rig.ctx;
  ExprRef x = ctx.var("x", 8);
  ExprRef a = ctx.ult(x, ctx.constant(100, 8));
  ExprRef b = ctx.ugt(x, ctx.constant(10, 8));
  ExprRef c = ctx.eq(x, ctx.constant(50, 8));
  Resolver& resolver = rig.resolver;

  // First descent, one trace: {a}, {a, b}, {a, b, c} — three misses.
  resolver.reset_prefix();
  EXPECT_EQ(resolver.resolve_flip(a, nullptr), CheckResult::kSat);
  resolver.extend_prefix(a);
  EXPECT_EQ(resolver.resolve_flip(b, nullptr), CheckResult::kSat);
  resolver.extend_prefix(b);
  EXPECT_EQ(resolver.resolve_flip(c, nullptr), CheckResult::kSat);
  const uint64_t scope_calls = rig.counts->scope_calls.load();
  EXPECT_GT(scope_calls, 0u);

  // Sibling re-check {a, b}, back at the root {a}, deepest again
  // {a, b, c}: three hits, none of which opens a scope.
  resolver.reset_prefix();
  resolver.extend_prefix(a);
  EXPECT_EQ(resolver.resolve_flip(b, nullptr), CheckResult::kSat);
  resolver.reset_prefix();
  EXPECT_EQ(resolver.resolve_flip(a, nullptr), CheckResult::kSat);
  resolver.reset_prefix();
  resolver.extend_prefix(a);
  resolver.extend_prefix(b);
  EXPECT_EQ(resolver.resolve_flip(c, nullptr), CheckResult::kSat);
  resolver.reset_prefix();

  EXPECT_EQ(resolver.ledger().cache_hits, 3u);
  EXPECT_EQ(resolver.ledger().cache_misses, 3u);
  EXPECT_EQ(resolver.stats().queries, 6u);
  EXPECT_EQ(resolver.stats().cache_hits, 3u);
  // The backend only ever saw the misses, and the hits left the scope
  // shut: the second trace's only scope call is the reset's pop.
  EXPECT_EQ(rig.counts->checks.load(), 3u);
  EXPECT_EQ(rig.counts->scope_calls.load(), scope_calls + 1);
  EXPECT_EQ(rig.solver->num_scopes(), 0u);
}

TEST(QueryCache, SharedAcrossSolversOverOneContext) {
  // One solver's verdict answers the same query for another solver: the
  // content-hash key does not depend on who built or solved the query.
  Context ctx;
  auto shared = std::make_shared<QueryCache>(/*shards=*/4);
  auto first = make_z3_solver(ctx);
  auto second = make_z3_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> query = {ctx.ult(x, ctx.constant(10, 8))};
  const QueryCache::Key key = QueryCache::key_for(query);

  QueryCache::Entry entry;
  ASSERT_FALSE(shared->lookup(key, &entry));
  Assignment m1;
  ASSERT_EQ(first->check(query, &m1), CheckResult::kSat);
  shared->insert(key, QueryCache::Entry{CheckResult::kSat, m1});

  ASSERT_TRUE(shared->lookup(key, &entry));
  EXPECT_EQ(entry.result, CheckResult::kSat);
  EXPECT_EQ(entry.model.get(x->var_id), m1.get(x->var_id));
  EXPECT_EQ(second->stats().queries, 0u);  // answered without solving
  EXPECT_EQ(shared->hits(), 1u);
  EXPECT_EQ(shared->misses(), 1u);
}

TEST(QueryCache, ConcurrentLookupsAndInsertsAreConsistent) {
  QueryCache cache(/*shards=*/8);
  constexpr int kThreads = 4;
  constexpr uint32_t kKeys = 64;
  constexpr int kRounds = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&cache] {
      for (int round = 0; round < kRounds; ++round) {
        for (uint32_t k = 0; k < kKeys; ++k) {
          QueryCache::Key key = {k, k + 1000};
          QueryCache::Entry entry;
          if (!cache.lookup(key, &entry)) {
            entry.result = CheckResult::kSat;
            entry.model.set(k, k);
            cache.insert(key, entry);
          } else {
            EXPECT_EQ(entry.result, CheckResult::kSat);
            EXPECT_EQ(entry.model.get(k), k);
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(cache.size(), kKeys);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads) * kRounds * kKeys);
  EXPECT_GE(cache.misses(), kKeys);  // at least one miss per distinct key
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// -- Scoped (incremental) API: native Z3 and assumption-based bitblast, both
// -- against the same script. -------------------------------------------------

/// A backend under test. Printed by name, so the discovered test names stay
/// the same across builds (a bare function pointer prints as its address).
struct Backend {
  const char* name;
  std::unique_ptr<Solver> (*make)(Context&);
};

void PrintTo(const Backend& backend, std::ostream* os) { *os << backend.name; }

class ScopedSolverApi : public ::testing::TestWithParam<Backend> {};

TEST_P(ScopedSolverApi, PrefixAssertedOnceAnswersEveryAssumption) {
  Context ctx;
  auto solver = GetParam().make(ctx);
  ExprRef x = ctx.var("x", 8);
  ExprRef y = ctx.var("y", 8);

  solver->push();
  solver->assert_(ctx.ult(x, ctx.constant(10, 8)));   // x < 10
  solver->assert_(ctx.eq(y, ctx.add(x, ctx.constant(1, 8))));  // y == x + 1
  EXPECT_EQ(solver->scoped_assertions().size(), 2u);

  // Assumption consistent with the prefix.
  Assignment model;
  std::vector<ExprRef> sat_assumption = {ctx.eq(y, ctx.constant(5, 8))};
  ASSERT_EQ(solver->check_assuming(sat_assumption, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 4u);
  EXPECT_EQ(model.get(y->var_id), 5u);

  // Assumption contradicting the prefix; the prefix itself stays sat.
  std::vector<ExprRef> unsat_assumption = {ctx.eq(x, ctx.constant(200, 8))};
  EXPECT_EQ(solver->check_assuming(unsat_assumption, nullptr),
            CheckResult::kUnsat);
  EXPECT_EQ(solver->check_assuming({}, nullptr), CheckResult::kSat);
  EXPECT_GE(solver->stats().incremental_checks, 3u);
  EXPECT_GE(solver->stats().reused_assertions, 6u);  // 2 live per check

  solver->pop();
  EXPECT_EQ(solver->scoped_assertions().size(), 0u);
  // After the pop the prefix is gone: x == 200 is satisfiable again.
  EXPECT_EQ(solver->check_assuming(unsat_assumption, nullptr),
            CheckResult::kSat);
}

TEST_P(ScopedSolverApi, NestedScopesUnwindIndependently) {
  Context ctx;
  auto solver = GetParam().make(ctx);
  ExprRef x = ctx.var("x", 8);

  solver->push();
  solver->assert_(ctx.ult(x, ctx.constant(100, 8)));
  solver->push();
  solver->assert_(ctx.ugt(x, ctx.constant(50, 8)));
  EXPECT_EQ(solver->num_scopes(), 2u);
  EXPECT_EQ(solver->scoped_assertions().size(), 2u);

  std::vector<ExprRef> probe = {ctx.eq(x, ctx.constant(10, 8))};
  EXPECT_EQ(solver->check_assuming(probe, nullptr), CheckResult::kUnsat);
  solver->pop();  // drops x > 50
  EXPECT_EQ(solver->check_assuming(probe, nullptr), CheckResult::kSat);
  solver->pop();
  EXPECT_EQ(solver->num_scopes(), 0u);
}

TEST_P(ScopedSolverApi, PopWithoutPushThrows) {
  Context ctx;
  auto solver = GetParam().make(ctx);
  EXPECT_THROW(solver->pop(), std::logic_error);
}

namespace factories {
std::unique_ptr<Solver> z3(Context& ctx) { return make_z3_solver(ctx); }
std::unique_ptr<Solver> bitblast(Context& ctx) {
  return make_bitblast_solver(ctx);  // client-side scope, CDCL assumptions
}
}  // namespace factories

INSTANTIATE_TEST_SUITE_P(
    Backends, ScopedSolverApi,
    ::testing::Values(Backend{"z3", &factories::z3},
                      Backend{"bitblast", &factories::bitblast}));

// -- The bit-blaster keeps its CNFs for its lifetime and passes every query
// -- root as an assumption. Each test below fails if a root were ever added
// -- as a permanent unit clause instead. ---------------------------------------

TEST(BitblastIncremental, StatelessQueryRootsDoNotOutliveTheirCheck) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> one = {ctx.eq(x, ctx.constant(1, 8))};
  std::vector<ExprRef> two = {ctx.eq(x, ctx.constant(2, 8))};
  for (int repeat = 0; repeat < 2; ++repeat) {
    Assignment model;
    ASSERT_EQ(solver->check(one, &model), CheckResult::kSat);
    EXPECT_EQ(model.get(x->var_id), 1u);
    ASSERT_EQ(solver->check(two, &model), CheckResult::kSat);
    EXPECT_EQ(model.get(x->var_id), 2u);
  }
}

TEST(BitblastIncremental, PoppedConstraintStopsRestricting) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> is_200 = {ctx.eq(x, ctx.constant(200, 8))};
  for (int repeat = 0; repeat < 2; ++repeat) {
    solver->push();
    solver->assert_(ctx.ult(x, ctx.constant(10, 8)));
    EXPECT_EQ(solver->check_assuming(is_200, nullptr), CheckResult::kUnsat);
    solver->pop();
    Assignment model;
    ASSERT_EQ(solver->check_assuming(is_200, &model), CheckResult::kSat);
    EXPECT_EQ(model.get(x->var_id), 200u);
    ASSERT_EQ(solver->check(is_200, &model), CheckResult::kSat);
    EXPECT_EQ(model.get(x->var_id), 200u);
  }
}

TEST(BitblastIncremental, ScopedFlipsInterleavedWithCandidatesMatchZ3) {
  // The Resolver's traffic: each trace's prefix goes into a scope and its
  // flips are checked as assumptions; oracle candidates are stateless
  // checks with every scope closed. One bit-blaster serves the whole mix
  // and must give Z3's verdict, with valid models, on every check.
  Context ctx;
  auto bb = make_bitblast_solver(ctx);
  auto z3 = make_z3_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  ExprRef y = ctx.var("y", 8);
  Rng rng(11);
  auto random_constraint = [&]() -> ExprRef {
    ExprRef lhs = rng.flip() ? x : ctx.add(x, y);
    ExprRef rhs = ctx.constant(rng.below(256), 8);
    switch (rng.below(4)) {
      case 0: return ctx.ult(lhs, rhs);
      case 1: return ctx.ugt(lhs, rhs);
      case 2: return ctx.eq(ctx.and_(y, ctx.constant(0x0f, 8)), rhs);
      default: return ctx.not_(ctx.eq(lhs, rhs));
    }
  };
  auto expect_valid = [](std::span<const ExprRef> query, const Assignment& m) {
    for (ExprRef assertion : query) EXPECT_EQ(evaluate(assertion, m), 1u);
  };
  int sat = 0, unsat = 0;
  for (int trace = 0; trace < 30; ++trace) {
    std::vector<ExprRef> prefix;
    bb->push();
    for (int depth = 0; depth < 4; ++depth) {
      ExprRef constraint = random_constraint();
      bb->assert_(constraint);
      prefix.push_back(constraint);
      ExprRef flip = random_constraint();
      std::vector<ExprRef> query = prefix;
      query.push_back(flip);
      Assignment model;
      const CheckResult got = bb->check_assuming(std::span(&flip, 1), &model);
      ASSERT_EQ(got, z3->check(query, nullptr)) << "trace " << trace;
      if (got == CheckResult::kSat) expect_valid(query, model);
      (got == CheckResult::kSat ? sat : unsat)++;
    }
    bb->pop();
    std::vector<ExprRef> candidate = {random_constraint(), random_constraint()};
    Assignment model;
    const CheckResult got = bb->check(candidate, &model);
    ASSERT_EQ(got, z3->check(candidate, nullptr)) << "trace " << trace;
    if (got == CheckResult::kSat) expect_valid(candidate, model);
  }
  EXPECT_GT(sat, 10);
  EXPECT_GT(unsat, 10);
}

TEST(BitblastIncremental, DivisionByZeroThenNonzeroBothSat) {
  // The division circuit's functional constraints are guarded by
  // "divisor != 0"; a query pinning the divisor to 0 must leave the next
  // query's nonzero divisor free, and the other way round.
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  ExprRef d = ctx.var("d", 8);
  ExprRef q = ctx.udiv(x, d);
  ExprRef r = ctx.urem(x, d);
  std::vector<ExprRef> by_zero = {ctx.eq(d, ctx.constant(0, 8)),
                                  ctx.eq(x, ctx.constant(5, 8)),
                                  ctx.eq(q, ctx.constant(0xff, 8)),
                                  ctx.eq(r, x)};
  std::vector<ExprRef> by_three = {ctx.eq(d, ctx.constant(3, 8)),
                                   ctx.eq(q, ctx.constant(1, 8)),
                                   ctx.eq(r, ctx.constant(2, 8))};
  for (int repeat = 0; repeat < 2; ++repeat) {
    Assignment model;
    ASSERT_EQ(solver->check(by_zero, &model), CheckResult::kSat);
    EXPECT_EQ(model.get(d->var_id), 0u);
    ASSERT_EQ(solver->check(by_three, &model), CheckResult::kSat);
    EXPECT_EQ(model.get(x->var_id), 5u);
    EXPECT_EQ(model.get(d->var_id), 3u);
  }
}

TEST(Resolver, IncrementalChecksShareKeysWithStatelessChecks) {
  // A flip answered through the scoped API (prefix asserted, target as an
  // assumption) and a candidate over the same conjunction share one key.
  ResolverRig rig(tiers(/*slice=*/true, /*presolve=*/false));
  Context& ctx = rig.ctx;
  ExprRef x = ctx.var("x", 8);
  ExprRef a = ctx.ult(x, ctx.constant(10, 8));
  ExprRef b = ctx.ugt(x, ctx.constant(3, 8));

  rig.resolver.reset_prefix();
  rig.resolver.extend_prefix(a);
  EXPECT_EQ(rig.resolver.resolve_flip(b, nullptr), CheckResult::kSat);
  EXPECT_EQ(rig.solver->stats().incremental_checks, 1u);

  std::vector<ExprRef> prefix = {a};
  EXPECT_EQ(rig.resolver.resolve_candidate(prefix, b, nullptr),
            CheckResult::kSat);
  EXPECT_EQ(rig.resolver.ledger().cache_hits, 1u);
  EXPECT_EQ(rig.counts->checks.load(), 1u);
  // The candidate needed the stateless API, so the flip scope is shut.
  EXPECT_EQ(rig.solver->num_scopes(), 0u);
}

TEST(ValidatingSolver, ValidatesScopedAssertionsToo) {
  // A flip reaches the backend through the scope: the prefix is asserted,
  // the negated branch is the assumption, and the model must satisfy both.
  Context ctx;
  auto backend = make_z3_solver(ctx);
  Resolver resolver(ctx, *backend, validating());
  ExprRef x = ctx.var("x", 16);
  resolver.extend_prefix(ctx.ugt(x, ctx.constant(100, 16)));
  Assignment model;
  EXPECT_EQ(resolver.resolve_flip(ctx.ult(x, ctx.constant(200, 16)), &model),
            CheckResult::kSat);
  EXPECT_EQ(backend->num_scopes(), 1u);
  EXPECT_GT(model.get(x->var_id), 100u);
  EXPECT_LT(model.get(x->var_id), 200u);
  resolver.reset_prefix();
}

TEST(Assignment, DefaultsToZero) {
  Assignment a;
  EXPECT_EQ(a.get(123), 0u);
  a.set(123, 7);
  EXPECT_EQ(a.get(123), 7u);
}

// -- Robustness: unknown verdicts, deadlines, and backend failover. ----------

// StubSolver (solver_test_util.hpp) stands in for a backend that gives up
// (deadline hit) or crashes outright. check_assuming() goes through the
// base-class adapter, so it funnels into check() there.

TEST(Resolver, UnknownVerdictsAreNeverCached) {
  // A deadline-induced unknown must not poison the cache: the same query
  // re-asked later (more time, another backend) must reach a backend again.
  Context ctx;
  StubSolver backend(StubSolver::Mode::kUnknown);
  Resolver resolver(ctx, backend, Resolver::Options{});
  ExprRef x = ctx.var("x", 8);
  ExprRef q = ctx.ult(x, ctx.constant(10, 8));

  EXPECT_EQ(resolver.resolve_candidate({}, q, nullptr), CheckResult::kUnknown);
  EXPECT_EQ(resolver.resolve_flip(q, nullptr), CheckResult::kUnknown);
  EXPECT_EQ(resolver.ledger().cache_hits, 0u);
  EXPECT_EQ(resolver.ledger().cache_misses, 2u);
  EXPECT_EQ(resolver.ledger().unknown, 2u);
  EXPECT_EQ(backend.stats().queries, 2u);  // both reached the backend
  EXPECT_EQ(resolver.stats().unknown, 2u);
}

/// Resolver options whose failover secondary is built by `make`.
Resolver::Options failover_to(SolverFactory make) {
  Resolver::Options options;
  options.failover = std::move(make);
  return options;
}

TEST(FailoverSolver, SecondaryRescuesUnknownPrimary) {
  Context ctx;
  StubSolver primary(StubSolver::Mode::kUnknown);
  Resolver resolver(ctx, primary,
                    failover_to([&ctx] { return make_z3_solver(ctx); }));
  ExprRef x = ctx.var("x", 8);
  Assignment model;
  EXPECT_EQ(resolver.resolve_candidate({}, ctx.eq(x, ctx.constant(42, 8)),
                                       &model),
            CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 42u);
  // One question, one backend check, classified by the rescued verdict.
  EXPECT_EQ(resolver.stats().queries, 1u);
  EXPECT_EQ(resolver.ledger().backend_checks, 1u);
  EXPECT_EQ(resolver.stats().sat, 1u);
  EXPECT_EQ(resolver.stats().unknown, 0u);
  EXPECT_EQ(resolver.stats().failover_rescues, 1u);
}

TEST(FailoverSolver, ThrowingPrimaryIsRescuedToo) {
  Context ctx;
  StubSolver primary(StubSolver::Mode::kThrow);
  Resolver resolver(ctx, primary,
                    failover_to([&ctx] { return make_z3_solver(ctx); }));
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> prefix = {ctx.eq(x, ctx.constant(1, 8))};
  EXPECT_EQ(resolver.resolve_candidate(prefix, ctx.eq(x, ctx.constant(2, 8)),
                                       nullptr),
            CheckResult::kUnsat);
  EXPECT_EQ(resolver.stats().unsat, 1u);
  EXPECT_EQ(resolver.stats().failover_rescues, 1u);
}

TEST(FailoverSolver, UnknownWhenBothBackendsGiveUp) {
  Context ctx;
  StubSolver primary(StubSolver::Mode::kUnknown);
  Resolver resolver(ctx, primary, failover_to([] {
                      return std::unique_ptr<Solver>(
                          new StubSolver(StubSolver::Mode::kThrow));
                    }));
  ExprRef x = ctx.var("x", 8);
  EXPECT_EQ(resolver.resolve_candidate({}, ctx.ult(x, ctx.constant(10, 8)),
                                       nullptr),
            CheckResult::kUnknown);
  EXPECT_EQ(resolver.stats().unknown, 1u);
  EXPECT_EQ(resolver.stats().failover_rescues, 0u);  // nothing was rescued
}

TEST(FailoverSolver, RescueSeesScopedAssertions) {
  // The secondary has no scope of its own; the resolver hands it the
  // effective query, which holds the flip prefix alongside the target.
  Context ctx;
  StubSolver primary(StubSolver::Mode::kUnknown);
  Resolver resolver(ctx, primary,
                    failover_to([&ctx] { return make_z3_solver(ctx); }));
  ExprRef x = ctx.var("x", 8);
  resolver.extend_prefix(ctx.ult(x, ctx.constant(10, 8)));
  Assignment model;
  ASSERT_EQ(resolver.resolve_flip(ctx.ugt(x, ctx.constant(3, 8)), &model),
            CheckResult::kSat);
  EXPECT_EQ(primary.num_scopes(), 1u);  // the primary was asked in the scope
  EXPECT_GT(model.get(x->var_id), 3u);
  EXPECT_LT(model.get(x->var_id), 10u);
  resolver.reset_prefix();
  EXPECT_EQ(resolver.stats().failover_rescues, 1u);
}

TEST(FailoverSolver, RescueGetsTheFullDeadlineAfterThePrimaryTimedOut) {
  // The primary spends its whole 40 ms deadline and gives up. The rescue
  // runs after that deadline has expired, under the full deadline again
  // rather than the (empty) remainder, and decides.
  Context ctx;
  constexpr uint32_t kDeadlineMs = 40;
  StubSolver primary(StubSolver::Mode::kUnknown,
                     std::chrono::milliseconds(kDeadlineMs));
  primary.set_deadline_ms(kDeadlineMs);
  Solver* secondary = nullptr;
  Resolver resolver(ctx, primary, failover_to([&] {
                      auto built = make_bitblast_solver(ctx);
                      EXPECT_EQ(built->deadline_ms(), 0u);  // none yet
                      secondary = built.get();
                      return built;
                    }));
  ExprRef x = ctx.var("x", 8);
  const auto start = std::chrono::steady_clock::now();
  Assignment model;
  ASSERT_EQ(resolver.resolve_candidate({}, ctx.eq(x, ctx.constant(9, 8)),
                                       &model),
            CheckResult::kSat);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(kDeadlineMs));
  ASSERT_NE(secondary, nullptr);
  EXPECT_EQ(secondary->deadline_ms(), kDeadlineMs);
  EXPECT_EQ(model.get(x->var_id), 9u);
  EXPECT_EQ(resolver.stats().failover_rescues, 1u);
}

TEST(FailoverSolver, CancelledPrimaryIsNotRescued) {
  // A cancelled check's kUnknown is the caller's request, not a failure.
  Context ctx;
  StubSolver primary(StubSolver::Mode::kSat);
  bool built = false;
  Resolver resolver(ctx, primary, failover_to([&] {
                      built = true;
                      return make_z3_solver(ctx);
                    }));
  primary.cancel();
  ExprRef x = ctx.var("x", 8);
  EXPECT_EQ(resolver.resolve_candidate({}, ctx.ult(x, ctx.constant(10, 8)),
                                       nullptr),
            CheckResult::kUnknown);
  EXPECT_FALSE(built);
  EXPECT_EQ(resolver.stats().failover_rescues, 0u);
}

TEST(SolverDeadline, BitblastHonorsExpiredDeadline) {
  // A deadline already in the past forces the CDCL loop's periodic probe
  // to give up on the first batch of conflicts — the check must come back
  // kUnknown, never a wrong verdict and never a hang.
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  solver->set_deadline_ms(1);
  // A multiply chain is hard enough that the search cannot finish within
  // a millisecond-scale budget (and certainly not before the first probe).
  ExprRef x = ctx.var("x", 32);
  ExprRef y = ctx.var("y", 32);
  ExprRef product = ctx.mul(ctx.mul(x, y), ctx.mul(y, x));
  std::vector<ExprRef> query = {
      ctx.eq(product, ctx.constant(0xdeadbeef, 32)),
      ctx.ugt(x, ctx.constant(2, 32)), ctx.ugt(y, ctx.constant(2, 32))};
  CheckResult result = solver->check(query, nullptr);
  if (result == CheckResult::kUnknown) {
    EXPECT_EQ(solver->stats().unknown, 1u);
  }
  // Either verdict must be reached quickly; the deadline machinery makes
  // this test terminate rather than proving which side wins on fast CI.
}

TEST(SolverDeadline, Z3AcceptsAndClearsDeadline) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  solver->set_deadline_ms(10'000);
  EXPECT_EQ(solver->deadline_ms(), 10'000u);
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> query = {ctx.eq(x, ctx.constant(7, 8))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kSat);
  solver->set_deadline_ms(0);  // back to unlimited
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kSat);
}

}  // namespace
}  // namespace binsym::smt
