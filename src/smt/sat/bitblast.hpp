// Bit-blasting: expression DAGs -> CNF over the CDCL solver.
//
// Tseitin encoding with structural memoization per node. Arithmetic uses
// ripple-carry adders and shift-add multipliers; shifts are barrel
// networks with SMT saturation semantics; division introduces fresh
// quotient/remainder vectors constrained by the multiplication identity
// (guarded for the divisor==0 special cases); signed division/remainder
// are built from the unsigned circuits via sign/magnitude conversion,
// matching SMT-LIB exactly.
//
// The clauses are definitions only: Tseitin gates, the division circuit's
// functional constraints and the constant-true unit. Every input
// assignment extends to a model of them, so one BitBlaster can serve every
// query of a solver's lifetime: a query's roots become solve assumptions,
// and each node is blasted once, on first use.
#pragma once

#include <unordered_map>
#include <vector>

#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"
#include "smt/sat/cdcl.hpp"

namespace binsym::smt::sat {

class BitBlaster {
 public:
  explicit BitBlaster(CdclSolver& solver);

  /// The literal that is true exactly when the width-1 `expr` is; blasts
  /// the nodes of `expr` not blasted before.
  Lit literal(ExprRef expr);

  /// After a kSat solve(): read back the value of a context variable.
  uint64_t var_value(uint32_t var_id, unsigned width) const;

  /// Variables that received CNF bits (for model extraction).
  const std::unordered_map<uint32_t, std::vector<Lit>>& vars() const {
    return var_bits_;
  }

 private:
  using Bits = std::vector<Lit>;  // LSB first

  // -- gate layer -------------------------------------------------------------

  Lit lit_true() const { return true_lit_; }
  Lit lit_false() const { return lit_not(true_lit_); }
  bool is_const(Lit lit, bool value) const {
    return lit == (value ? true_lit_ : lit_not(true_lit_));
  }

  Lit fresh();
  void clause(std::vector<Lit> lits);

  Lit g_and(Lit a, Lit b);
  Lit g_or(Lit a, Lit b);
  Lit g_xor(Lit a, Lit b);
  Lit g_mux(Lit sel, Lit then_lit, Lit else_lit);
  Lit g_and_all(const Bits& lits);
  Lit g_or_all(const Bits& lits);

  // -- word layer -------------------------------------------------------------

  Bits constant_bits(uint64_t value, unsigned width);
  Bits adder(const Bits& a, const Bits& b, Lit carry_in, Lit* carry_out);
  Bits negate(const Bits& a);
  Bits multiply(const Bits& a, const Bits& b);
  Bits mux_word(Lit sel, const Bits& then_bits, const Bits& else_bits);
  Lit equals(const Bits& a, const Bits& b);
  Lit unsigned_less(const Bits& a, const Bits& b);   // a < b
  Lit signed_less(const Bits& a, const Bits& b);
  Bits shift(const Bits& a, const Bits& amount, Kind kind);
  void divide(const Bits& a, const Bits& b, Bits* quotient, Bits* remainder);

  // -- expression layer ---------------------------------------------------------

  bool blasted(ExprRef expr) const {
    return expr->id < memo_.size() && !memo_[expr->id].empty();
  }
  void blast(ExprRef root);
  Bits blast_node(ExprRef expr);

  CdclSolver& solver_;
  Lit true_lit_;
  std::vector<Bits> memo_;  // expr id (dense per context) -> bits; empty
                            // until blasted
  std::unordered_map<uint32_t, Bits> var_bits_;  // context var id -> bits
};

}  // namespace binsym::smt::sat
