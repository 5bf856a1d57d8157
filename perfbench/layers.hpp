// Outside-in layer tracing for the exploration benchmark.
//
// The engine builds every worker from a core::WorkerFactory, so the
// benchmark can wrap each worker's executor and solver in forwarding
// decorators without touching src/. The decorators time every call into
// the interpretation layer (run / run_with_snapshots / resume) and into
// the solver backend (check / check_assuming and the scope calls
// push / pop / assert_) and record one span per call.
//
// Each worker owns one WorkerTrace, written only by that worker's thread
// (the factory runs on the engine's thread before the pool starts, and the
// benchmark reads the traces after explore() joins the pool), so the hot
// path takes no lock: a mutex per call measurably slows the workers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/executor.hpp"
#include "smt/solver.hpp"

namespace perfbench {

namespace core = binsym::core;
namespace interp = binsym::interp;
namespace smt = binsym::smt;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class SpanKind : uint8_t {
  kRun,
  kRunWithSnapshots,
  kResume,
  kCheck,
  kCheckAssuming,
  kPush,
  kPop,
  kAssert,
};

inline const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun: return "exec.run";
    case SpanKind::kRunWithSnapshots: return "exec.run_with_snapshots";
    case SpanKind::kResume: return "exec.resume";
    case SpanKind::kCheck: return "solver.check";
    case SpanKind::kCheckAssuming: return "solver.check_assuming";
    case SpanKind::kPush: return "solver.push";
    case SpanKind::kPop: return "solver.pop";
    case SpanKind::kAssert: return "solver.assert";
  }
  return "?";
}

struct Span {
  Clock::time_point start;
  Clock::time_point end;
  uint32_t explore_id;  // parent: the explore span of the target
  SpanKind kind;
};

/// One worker's counters and span buffer. Aggregates cover every call;
/// spans stop at `span_cap` so a long traced run keeps bounded memory.
struct WorkerTrace {
  double exec_s = 0;
  uint64_t exec_calls = 0;
  uint64_t resume_calls = 0;
  uint64_t resume_ok = 0;
  double check_s = 0;
  uint64_t checks = 0;
  uint64_t check_unsat = 0;
  uint64_t check_unknown = 0;
  std::vector<double> check_ms;  // latency of every check, for percentiles
  double scope_s = 0;
  uint64_t scope_calls = 0;
  double factory_s = 0;

  uint32_t explore_id = 0;
  size_t span_cap = 0;
  uint64_t spans_dropped = 0;
  std::vector<Span> spans;

  void record(SpanKind kind, Clock::time_point start, Clock::time_point end) {
    if (spans.size() < span_cap) {
      spans.push_back(Span{start, end, explore_id, kind});
    } else {
      ++spans_dropped;
    }
  }

  void record_check(SpanKind kind, Clock::time_point start,
                    Clock::time_point end, smt::CheckResult result) {
    const double s = seconds_between(start, end);
    check_s += s;
    ++checks;
    check_ms.push_back(s * 1e3);
    if (result == smt::CheckResult::kUnsat) ++check_unsat;
    if (result == smt::CheckResult::kUnknown) ++check_unknown;
    record(kind, start, end);
  }

  void record_scope(SpanKind kind, Clock::time_point start,
                    Clock::time_point end) {
    scope_s += seconds_between(start, end);
    ++scope_calls;
    record(kind, start, end);
  }

  void record_exec(SpanKind kind, Clock::time_point start,
                   Clock::time_point end) {
    exec_s += seconds_between(start, end);
    ++exec_calls;
    record(kind, start, end);
  }
};

/// Forwards every core::Executor virtual to `inner`. A virtual left to the
/// base default would silently change the program under measurement (the
/// defaults turn off snapshots and oracles), so each one is overridden.
class TracingExecutor final : public core::Executor {
 public:
  TracingExecutor(std::unique_ptr<core::Executor> inner,
                  WorkerTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string name() const override { return inner_->name(); }
  smt::Context& context() override { return inner_->context(); }

  void run(const smt::Assignment& seed,
           core::PathTrace& trace) override {
    const Clock::time_point start = Clock::now();
    inner_->run(seed, trace);
    trace_.record_exec(SpanKind::kRun, start, Clock::now());
  }

  uint64_t instructions_retired() const override {
    return inner_->instructions_retired();
  }

  bool supports_observer() const override {
    return inner_->supports_observer();
  }
  void set_observer(core::ExecObserver* observer) override {
    inner_->set_observer(observer);
  }

  bool supports_snapshots() const override {
    return inner_->supports_snapshots();
  }

  void run_with_snapshots(const smt::Assignment& seed,
                          core::PathTrace& trace,
                          const core::SnapshotPlan& plan) override {
    const Clock::time_point start = Clock::now();
    inner_->run_with_snapshots(seed, trace, plan);
    trace_.record_exec(SpanKind::kRunWithSnapshots, start, Clock::now());
  }

  bool resume(const core::Snapshot& snap,
              const smt::Assignment& seed,
              core::PathTrace& trace,
              const core::SnapshotPlan& plan) override {
    const Clock::time_point start = Clock::now();
    const bool resumed = inner_->resume(snap, seed, trace, plan);
    trace_.record_exec(SpanKind::kResume, start, Clock::now());
    ++trace_.resume_calls;
    if (resumed) ++trace_.resume_ok;
    return resumed;
  }

  uint64_t pages_copied() const override { return inner_->pages_copied(); }
  interp::UopCounters uop_counters() const override {
    return inner_->uop_counters();
  }

  core::Executor& inner() { return *inner_; }

 private:
  std::unique_ptr<core::Executor> inner_;
  WorkerTrace& trace_;
};

/// Forwards every smt::Solver virtual to `inner`. Solver::stats() is not
/// virtual and the engine reads it when a worker exits, so the inner
/// backend's counters are copied into this wrapper after every call. The
/// base-class scope bookkeeping is kept too, so scoped_assertions() and
/// num_scopes() read the same through the wrapper.
class TracingSolver final : public smt::Solver {
 public:
  TracingSolver(std::unique_ptr<smt::Solver> inner, WorkerTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {
    stats_ = inner_->stats();
    deadline_ms_ = inner_->deadline_ms();
  }

  smt::CheckResult check(
      std::span<const smt::ExprRef> assertions,
      smt::Assignment* model) override {
    const Clock::time_point start = Clock::now();
    const smt::CheckResult result = inner_->check(assertions, model);
    trace_.record_check(SpanKind::kCheck, start, Clock::now(), result);
    stats_ = inner_->stats();
    return result;
  }

  void push() override {
    const Clock::time_point start = Clock::now();
    inner_->push();
    trace_.record_scope(SpanKind::kPush, start, Clock::now());
    Solver::push();
    stats_ = inner_->stats();
  }

  void pop() override {
    const Clock::time_point start = Clock::now();
    inner_->pop();
    trace_.record_scope(SpanKind::kPop, start, Clock::now());
    Solver::pop();
    stats_ = inner_->stats();
  }

  void assert_(smt::ExprRef assertion) override {
    const Clock::time_point start = Clock::now();
    inner_->assert_(assertion);
    trace_.record_scope(SpanKind::kAssert, start, Clock::now());
    Solver::assert_(assertion);
    stats_ = inner_->stats();
  }

  smt::CheckResult check_assuming(
      std::span<const smt::ExprRef> assumptions,
      smt::Assignment* model) override {
    const Clock::time_point start = Clock::now();
    const smt::CheckResult result =
        inner_->check_assuming(assumptions, model);
    trace_.record_check(SpanKind::kCheckAssuming, start, Clock::now(), result);
    stats_ = inner_->stats();
    return result;
  }

  void set_deadline_ms(uint32_t ms) override {
    Solver::set_deadline_ms(ms);
    inner_->set_deadline_ms(ms);
  }
  void cancel() override {
    Solver::cancel();
    inner_->cancel();
  }
  void reset_cancel() override {
    Solver::reset_cancel();
    inner_->reset_cancel();
  }

  std::string name() const override { return inner_->name(); }
  std::string last_backend() const override { return inner_->last_backend(); }

  smt::Solver& inner() { return *inner_; }

 private:
  std::unique_ptr<smt::Solver> inner_;
  WorkerTrace& trace_;
};

/// Wrap a worker factory so each built worker's executor and solver report
/// into traces[index]. The time spent building the worker (context,
/// executor, backend, oracle attach) counts into that worker's factory_s.
inline core::WorkerFactory make_tracing_factory(
    core::WorkerFactory inner,
    std::vector<std::unique_ptr<WorkerTrace>>& traces) {
  return [inner = std::move(inner), &traces](unsigned index) {
    WorkerTrace& trace = *traces.at(index);
    const Clock::time_point start = Clock::now();
    core::WorkerResources r = inner(index);
    trace.factory_s += seconds_between(start, Clock::now());
    r.executor =
        std::make_unique<TracingExecutor>(std::move(r.executor), trace);
    r.solver = std::make_unique<TracingSolver>(std::move(r.solver), trace);
    return r;
  };
}

/// Probe that every virtual with an observable effect reaches the inner
/// object. Returns an empty string on success, else what did not forward.
/// Run on a throwaway worker: the probes set a deadline and a cancel flag.
inline std::string check_forwarding(TracingExecutor& exec,
                                    TracingSolver& solver) {
  std::string errors;
  auto expect = [&errors](bool ok, const char* what) {
    if (!ok) errors += std::string(errors.empty() ? "" : ", ") + what;
  };
  core::Executor& ie = exec.inner();
  expect(exec.name() == ie.name(), "Executor::name");
  expect(&exec.context() == &ie.context(), "Executor::context");
  expect(exec.supports_snapshots() == ie.supports_snapshots(),
         "Executor::supports_snapshots");
  expect(exec.supports_observer() == ie.supports_observer(),
         "Executor::supports_observer");
  expect(exec.instructions_retired() == ie.instructions_retired(),
         "Executor::instructions_retired");
  expect(exec.pages_copied() == ie.pages_copied(), "Executor::pages_copied");
  const interp::UopCounters a = exec.uop_counters();
  const interp::UopCounters b = ie.uop_counters();
  expect(a.blocks_compiled == b.blocks_compiled &&
             a.cache_hits == b.cache_hits && a.guard_bails == b.guard_bails,
         "Executor::uop_counters");

  smt::Solver& is = solver.inner();
  expect(solver.name() == is.name(), "Solver::name");
  expect(solver.last_backend() == is.last_backend(), "Solver::last_backend");
  solver.set_deadline_ms(4321);
  expect(is.deadline_ms() == 4321 && solver.deadline_ms() == 4321,
         "Solver::set_deadline_ms");
  solver.set_deadline_ms(0);
  solver.cancel();
  expect(is.cancel_requested(), "Solver::cancel");
  solver.reset_cancel();
  expect(!is.cancel_requested(), "Solver::reset_cancel");
  solver.push();
  expect(is.num_scopes() == 1 && solver.num_scopes() == 1, "Solver::push");
  solver.pop();
  expect(is.num_scopes() == 0 && solver.num_scopes() == 0, "Solver::pop");
  return errors;
}

}  // namespace perfbench
