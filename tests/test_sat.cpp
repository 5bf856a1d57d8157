// Tests for the in-tree SAT solver and bit-blasting backend: CDCL unit
// behaviour, hand-built CNF instances, and differential properties against
// both the concrete evaluator and Z3 on random expression queries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "smt/eval.hpp"
#include "smt/sat/bitblast.hpp"
#include "smt/sat/cdcl.hpp"
#include "smt/solver.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace binsym::smt {
namespace {

using sat::CdclSolver;
using sat::Lit;
using sat::lit_not;
using sat::make_lit;
using sat::SatResult;
using sat::Var;

TEST(Cdcl, TrivialSat) {
  CdclSolver solver;
  Var a = solver.new_var();
  EXPECT_TRUE(solver.add_clause({make_lit(a, false)}));
  EXPECT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_TRUE(solver.value(a));
}

TEST(Cdcl, TrivialUnsat) {
  CdclSolver solver;
  Var a = solver.new_var();
  solver.add_clause({make_lit(a, false)});
  EXPECT_FALSE(solver.add_clause({make_lit(a, true)}));
  EXPECT_EQ(solver.solve(), SatResult::kUnsat);
}

TEST(Cdcl, PropagationChain) {
  // (a) & (~a | b) & (~b | c)  =>  a, b, c all true.
  CdclSolver solver;
  Var a = solver.new_var(), b = solver.new_var(), c = solver.new_var();
  solver.add_clause({make_lit(a, false)});
  solver.add_clause({make_lit(a, true), make_lit(b, false)});
  solver.add_clause({make_lit(b, true), make_lit(c, false)});
  ASSERT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_TRUE(solver.value(a));
  EXPECT_TRUE(solver.value(b));
  EXPECT_TRUE(solver.value(c));
}

TEST(Cdcl, RequiresConflictAnalysis) {
  // Pigeonhole PHP(3,2): 3 pigeons, 2 holes — classic small unsat that
  // forces learning. Variables p[i][j] = pigeon i in hole j.
  CdclSolver solver;
  Var p[3][2];
  for (auto& row : p)
    for (Var& v : row) v = solver.new_var();
  for (int i = 0; i < 3; ++i)
    solver.add_clause({make_lit(p[i][0], false), make_lit(p[i][1], false)});
  for (int j = 0; j < 2; ++j)
    for (int i1 = 0; i1 < 3; ++i1)
      for (int i2 = i1 + 1; i2 < 3; ++i2)
        solver.add_clause({make_lit(p[i1][j], true), make_lit(p[i2][j], true)});
  EXPECT_EQ(solver.solve(), SatResult::kUnsat);
  EXPECT_GT(solver.stats().conflicts, 0u);
}

TEST(Cdcl, TautologyAndDuplicatesHandled) {
  CdclSolver solver;
  Var a = solver.new_var(), b = solver.new_var();
  EXPECT_TRUE(solver.add_clause(
      {make_lit(a, false), make_lit(a, true)}));  // tautology dropped
  EXPECT_TRUE(solver.add_clause(
      {make_lit(b, false), make_lit(b, false)}));  // dedup -> unit
  EXPECT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_TRUE(solver.value(b));
}

TEST(Cdcl, RandomInstancesAgreeWithBruteForce) {
  // Random 3-CNF over 10 vars; compare against exhaustive enumeration.
  Rng rng(2024);
  for (int round = 0; round < 40; ++round) {
    const int num_vars = 10;
    const int num_clauses = 35 + static_cast<int>(rng.below(20));
    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < num_clauses; ++i) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k)
        clause.push_back(make_lit(static_cast<Var>(rng.below(num_vars)),
                                  rng.flip()));
      clauses.push_back(clause);
    }

    bool brute_sat = false;
    for (uint32_t model = 0; model < (1u << num_vars) && !brute_sat; ++model) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (Lit lit : clause)
          any |= (((model >> sat::lit_var(lit)) & 1) != 0) !=
                 sat::lit_negated(lit);
        all &= any;
      }
      brute_sat = all;
    }

    CdclSolver solver;
    for (int v = 0; v < num_vars; ++v) solver.new_var();
    bool consistent = true;
    for (auto& clause : clauses)
      consistent = solver.add_clause(std::move(clause)) && consistent;
    bool cdcl_sat = consistent && solver.solve() == SatResult::kSat;
    EXPECT_EQ(cdcl_sat, brute_sat) << "round " << round;
  }
}

// -- Incremental solving under assumptions. -------------------------------------

using Cnf = std::vector<std::vector<Lit>>;

bool holds(const CdclSolver& solver, Lit lit) {
  return solver.value(sat::lit_var(lit)) != sat::lit_negated(lit);
}

/// Does the solver's current model satisfy every clause of `cnf`?
bool satisfies(const CdclSolver& solver, const Cnf& cnf) {
  for (const auto& clause : cnf) {
    bool any = false;
    for (Lit lit : clause) any |= holds(solver, lit);
    if (!any) return false;
  }
  return true;
}

std::vector<Lit> random_clause(Rng& rng, int num_vars) {
  std::vector<Lit> clause;
  for (int k = 0; k < 3; ++k)
    clause.push_back(make_lit(static_cast<Var>(rng.below(num_vars)), rng.flip()));
  return clause;
}

/// A fresh solver's verdict on `cnf` with every assumption as a unit clause.
SatResult fresh_verdict(int num_vars, const Cnf& cnf,
                        const std::vector<Lit>& assumptions) {
  CdclSolver fresh;
  for (int v = 0; v < num_vars; ++v) fresh.new_var();
  bool consistent = true;
  for (const auto& clause : cnf) consistent = fresh.add_clause(clause) && consistent;
  for (Lit lit : assumptions) consistent = fresh.add_clause({lit}) && consistent;
  return consistent ? fresh.solve() : SatResult::kUnsat;
}

TEST(Cdcl, PersistentInstanceAgreesWithFreshSolversUnderAssumptions) {
  // One instance answers hundreds of assumption sets, with clauses added
  // between solves; every verdict must match a fresh solver given the same
  // CNF plus the assumptions as unit clauses, and every model must satisfy
  // both. Learnt clauses from earlier calls must never leak an assumption.
  Rng rng(7);
  const int num_vars = 14;
  Cnf cnf;
  for (int i = 0; i < 36; ++i) cnf.push_back(random_clause(rng, num_vars));
  CdclSolver persistent;
  for (int v = 0; v < num_vars; ++v) persistent.new_var();
  for (const auto& clause : cnf) ASSERT_TRUE(persistent.add_clause(clause));

  int sat = 0, unsat = 0;
  for (int round = 0; round < 400; ++round) {
    if (round % 100 == 99) {
      cnf.push_back(random_clause(rng, num_vars));
      ASSERT_TRUE(persistent.add_clause(cnf.back())) << "round " << round;
    }
    std::vector<Lit> assumptions;
    for (uint64_t n = 1 + rng.below(6); n > 0; --n)
      assumptions.push_back(make_lit(static_cast<Var>(rng.below(num_vars)),
                                     rng.flip()));
    const SatResult got = persistent.solve(assumptions);
    ASSERT_EQ(got, fresh_verdict(num_vars, cnf, assumptions))
        << "round " << round;
    if (got == SatResult::kSat) {
      ++sat;
      EXPECT_TRUE(satisfies(persistent, cnf)) << "round " << round;
      for (Lit lit : assumptions)
        EXPECT_TRUE(holds(persistent, lit)) << "round " << round;
    } else {
      ++unsat;
    }
  }
  // Both verdicts are well represented, so neither path is vacuous.
  EXPECT_GT(sat, 100);
  EXPECT_GT(unsat, 100);
  EXPECT_GT(persistent.stats().learned_clauses, 0u);
}

/// Pigeonhole PHP(holes + 1, holes) with every "one pigeon per hole" clause
/// relaxed by a selector variable: unsat under ¬selector, and hard enough
/// that refuting it takes many conflicts; sat under selector.
struct RelaxedPigeonhole {
  Cnf cnf;
  Lit selector;
};

RelaxedPigeonhole relaxed_pigeonhole(CdclSolver& solver, int holes) {
  RelaxedPigeonhole php;
  php.selector = make_lit(solver.new_var(), false);
  std::vector<std::vector<Var>> p(holes + 1, std::vector<Var>(holes));
  for (auto& row : p)
    for (Var& v : row) v = solver.new_var();
  for (const auto& row : p) {
    std::vector<Lit> some_hole;
    for (Var v : row) some_hole.push_back(make_lit(v, false));
    php.cnf.push_back(some_hole);
  }
  for (int j = 0; j < holes; ++j)
    for (int i1 = 0; i1 <= holes; ++i1)
      for (int i2 = i1 + 1; i2 <= holes; ++i2)
        php.cnf.push_back({make_lit(p[i1][j], true), make_lit(p[i2][j], true),
                           php.selector});
  for (const auto& clause : php.cnf) solver.add_clause(clause);
  return php;
}

TEST(Cdcl, SatAnswerAfterUnsatUnderAssumptionsIsCorrect) {
  CdclSolver solver;
  RelaxedPigeonhole php = relaxed_pigeonhole(solver, 4);
  const std::vector<Lit> strict = {lit_not(php.selector)};
  const std::vector<Lit> relaxed = {php.selector};
  for (int repeat = 0; repeat < 3; ++repeat) {
    ASSERT_EQ(solver.solve(strict), SatResult::kUnsat) << "repeat " << repeat;
    ASSERT_EQ(solver.solve(relaxed), SatResult::kSat) << "repeat " << repeat;
    EXPECT_TRUE(satisfies(solver, php.cnf));
    EXPECT_TRUE(holds(solver, php.selector));
    // No assumptions at all: the clauses alone are satisfiable.
    ASSERT_EQ(solver.solve(), SatResult::kSat) << "repeat " << repeat;
    EXPECT_TRUE(satisfies(solver, php.cnf));
  }
  EXPECT_GT(solver.stats().conflicts, 0u);
}

TEST(Cdcl, FalseAssumptionAtRootIsUnsatWithoutPoisoningTheInstance) {
  CdclSolver solver;
  Var a = solver.new_var(), b = solver.new_var();
  ASSERT_TRUE(solver.add_clause({make_lit(a, false)}));  // a at the root
  const std::vector<Lit> not_a = {make_lit(a, true)};
  EXPECT_EQ(solver.solve(not_a), SatResult::kUnsat);
  // Contradictory assumptions over a free variable.
  const std::vector<Lit> b_and_not_b = {make_lit(b, false), make_lit(b, true)};
  EXPECT_EQ(solver.solve(b_and_not_b), SatResult::kUnsat);
  const std::vector<Lit> not_b = {make_lit(b, true)};
  ASSERT_EQ(solver.solve(not_b), SatResult::kSat);
  EXPECT_TRUE(solver.value(a));
  EXPECT_FALSE(solver.value(b));
}

TEST(Cdcl, StoppedSolveLeavesTheInstanceUsable) {
  // A deadline or an interrupt stops the search mid-way (kUnknown proves it
  // had not finished); the next solve on the same instance must still give
  // the right verdict, sat or unsat.
  CdclSolver solver;
  RelaxedPigeonhole php = relaxed_pigeonhole(solver, 5);
  const std::vector<Lit> strict = {lit_not(php.selector)};
  const std::vector<Lit> relaxed = {php.selector};

  std::atomic<bool> interrupt{true};
  solver.set_interrupt(&interrupt);
  ASSERT_EQ(solver.solve(strict), SatResult::kUnknown);
  interrupt = false;
  ASSERT_EQ(solver.solve(relaxed), SatResult::kSat);
  EXPECT_TRUE(satisfies(solver, php.cnf));
  interrupt = true;
  ASSERT_EQ(solver.solve(strict), SatResult::kUnknown);
  interrupt = false;
  EXPECT_EQ(solver.solve(strict), SatResult::kUnsat);

  CdclSolver timed;
  RelaxedPigeonhole timed_php = relaxed_pigeonhole(timed, 5);
  timed.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  const std::vector<Lit> timed_strict = {lit_not(timed_php.selector)};
  ASSERT_EQ(timed.solve(timed_strict), SatResult::kUnknown);
  timed.set_deadline(std::nullopt);
  EXPECT_EQ(timed.solve(timed_strict), SatResult::kUnsat);
  const std::vector<Lit> timed_relaxed = {timed_php.selector};
  ASSERT_EQ(timed.solve(timed_relaxed), SatResult::kSat);
  EXPECT_TRUE(satisfies(timed, timed_php.cnf));
}

// -- Bit-blasting backend. ------------------------------------------------------

TEST(Bitblast, SimpleArithmetic) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  // x + 3 == 10 has the unique solution x == 7.
  std::vector<ExprRef> query = {
      ctx.eq(ctx.add(x, ctx.constant(3, 8)), ctx.constant(10, 8))};
  Assignment model;
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 7u);
  // ... and x must not also be 8.
  query.push_back(ctx.eq(x, ctx.constant(8, 8)));
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kUnsat);
}

TEST(Bitblast, MultiplicationInverse) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 16);
  std::vector<ExprRef> query = {
      ctx.eq(ctx.mul(x, ctx.constant(7, 16)), ctx.constant(49, 16)),
      ctx.ult(x, ctx.constant(100, 16))};
  Assignment model;
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id) * 7 % 65536, 49u);
}

TEST(Bitblast, DivisionSemantics) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  // x / 0 == 0xff for every x (bvudiv), so asserting != is unsat.
  std::vector<ExprRef> query = {ctx.not_(
      ctx.eq(ctx.udiv(x, ctx.constant(0, 8)), ctx.constant(0xff, 8)))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kUnsat);
  // x % 0 == x.
  query = {ctx.not_(ctx.eq(ctx.urem(x, ctx.constant(0, 8)), x))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kUnsat);
}

TEST(Bitblast, ShiftSaturation) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  ExprRef amount = ctx.var("n", 8);
  // n >= 8 -> x << n == 0 (SMT saturation): its negation with n == 9 is
  // unsat.
  std::vector<ExprRef> query = {
      ctx.eq(amount, ctx.constant(9, 8)),
      ctx.not_(ctx.eq(ctx.shl(x, amount), ctx.constant(0, 8)))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kUnsat);
}

class BitblastVsZ3 : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitblastVsZ3, AgreeOnRandomQueries) {
  // Random small expressions, checked for sat/unsat agreement between the
  // in-tree backend and Z3; sat models are validated by evaluation.
  Rng rng(GetParam());
  Context ctx;
  auto z3 = make_z3_solver(ctx);
  auto bb = make_bitblast_solver(ctx);

  ExprRef x = ctx.var("x", 8);
  ExprRef y = ctx.var("y", 8);
  for (int round = 0; round < 12; ++round) {
    // Build a random constraint pair over x, y.
    auto random_term = [&](ExprRef a, ExprRef b) -> ExprRef {
      switch (rng.below(7)) {
        case 0: return ctx.add(a, b);
        case 1: return ctx.mul(a, b);
        case 2: return ctx.xor_(a, b);
        case 3: return ctx.shl(a, ctx.constant(rng.below(10), 8));
        case 4: return ctx.udiv(a, b);
        case 5: return ctx.srem(a, b);
        default: return ctx.sub(a, b);
      }
    };
    ExprRef t1 = random_term(x, y);
    ExprRef t2 = random_term(y, x);
    std::vector<ExprRef> query = {
        ctx.eq(t1, ctx.constant(rng.next(), 8)),
        ctx.ule(t2, ctx.constant(rng.next(), 8)),
    };
    Assignment z3_model, bb_model;
    CheckResult z3_result = z3->check(query, &z3_model);
    CheckResult bb_result = bb->check(query, &bb_model);
    ASSERT_EQ(z3_result, bb_result) << "round " << round;
    if (bb_result == CheckResult::kSat) {
      for (ExprRef assertion : query)
        EXPECT_EQ(evaluate(assertion, bb_model), 1u) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitblastVsZ3, ::testing::Range<uint64_t>(1, 9));

TEST(Bitblast, SignedDivisionCorners) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  // INT_MIN / -1 wraps to INT_MIN (8-bit: -128 / -1 == -128).
  ExprRef int_min = ctx.constant(0x80, 8);
  ExprRef minus1 = ctx.constant(0xff, 8);
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> query = {ctx.eq(x, ctx.sdiv(int_min, minus1))};
  Assignment model;
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 0x80u);
  // -7 srem 3 == -1 (sign follows dividend).
  query = {ctx.eq(x, ctx.srem(ctx.constant(0xf9, 8), ctx.constant(3, 8)))};
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 0xffu);
}

}  // namespace
}  // namespace binsym::smt
