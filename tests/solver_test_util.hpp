// Shared scripted solver backends for the solver-stack tests.
//
// StubSolver stands in for a backend with a known, controllable behavior:
// a fixed verdict, an always-unknown backend (deadline stand-in), a
// crashing backend, optionally with artificial latency — during which it
// polls the cooperative cancel flag like a real backend, so races and
// cancellation can be tested deterministically without timing luck.
// It is the primary (and failing secondary) behind a Resolver in the
// failover and validation tests (test_solver.cpp) and a member in the
// portfolio race tests (test_portfolio.cpp). CountingSolver wraps a real
// backend and counts the calls that reach it (test_solver.cpp,
// test_resolver.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "smt/solver.hpp"

namespace binsym::smt {

class StubSolver final : public Solver {
 public:
  enum class Mode { kUnknown, kThrow, kSat, kUnsat };

  explicit StubSolver(Mode mode, std::chrono::milliseconds delay = {},
                      std::string label = "stub")
      : mode_(mode), delay_(delay), label_(std::move(label)) {}

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override {
    ++stats_.queries;
    if (mode_ == Mode::kThrow) throw std::runtime_error("stub backend crash");
    // Simulated solve time, polling the cancel flag like a real backend's
    // search loop does.
    const auto end = std::chrono::steady_clock::now() + delay_;
    for (;;) {
      if (cancel_requested()) {
        ++cancelled_checks_;
        ++stats_.unknown;
        return CheckResult::kUnknown;
      }
      if (std::chrono::steady_clock::now() >= end) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    switch (mode_) {
      case Mode::kSat:
        ++stats_.sat;
        // A stub has no theory: it assigns `model_value_` to every query
        // variable. Callers that need *valid* models use a real backend.
        if (model)
          for (uint32_t var : collect_vars(
                   std::vector<ExprRef>(assertions.begin(), assertions.end())))
            model->set(var, model_value_);
        return CheckResult::kSat;
      case Mode::kUnsat:
        ++stats_.unsat;
        return CheckResult::kUnsat;
      default:
        ++stats_.unknown;
        return CheckResult::kUnknown;
    }
  }

  std::string name() const override { return label_; }

  /// Checks that bailed out on an observed cancel request.
  uint64_t cancelled_checks() const { return cancelled_checks_; }
  void set_model_value(uint64_t value) { model_value_ = value; }

 private:
  Mode mode_;
  std::chrono::milliseconds delay_;
  std::string label_;
  uint64_t model_value_ = 0;
  uint64_t cancelled_checks_ = 0;
};

/// Forwards the checks and the scope calls (push/pop/assert_) to `inner`
/// and counts them: the backend traffic a Resolver generates. The counters
/// are shared and atomic so one set can total the solvers of every worker
/// of a parallel exploration.
class CountingSolver final : public Solver {
 public:
  struct Counts {
    std::atomic<uint64_t> checks{0};
    std::atomic<uint64_t> scope_calls{0};
    std::atomic<uint64_t> max_scopes{0};  // deepest nesting of one solver
  };

  CountingSolver(std::unique_ptr<Solver> inner, std::shared_ptr<Counts> counts)
      : inner_(std::move(inner)), counts_(std::move(counts)) {}

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override {
    ++counts_->checks;
    CheckResult result = inner_->check(assertions, model);
    stats_ = inner_->stats();
    return result;
  }
  CheckResult check_assuming(std::span<const ExprRef> assumptions,
                             Assignment* model) override {
    ++counts_->checks;
    CheckResult result = inner_->check_assuming(assumptions, model);
    stats_ = inner_->stats();
    return result;
  }
  void push() override {
    ++counts_->scope_calls;
    Solver::push();
    inner_->push();
    if (num_scopes() > counts_->max_scopes) counts_->max_scopes = num_scopes();
  }
  void pop() override {
    ++counts_->scope_calls;
    Solver::pop();
    inner_->pop();
  }
  void assert_(ExprRef assertion) override {
    ++counts_->scope_calls;
    Solver::assert_(assertion);
    inner_->assert_(assertion);
  }
  std::string name() const override { return inner_->name(); }
  std::string last_backend() const override { return inner_->last_backend(); }

 private:
  std::unique_ptr<Solver> inner_;
  std::shared_ptr<Counts> counts_;
};

}  // namespace binsym::smt
