// Ablation: micro-op block compilation vs per-instruction spec walking.
//
// The interpreters classically walk the formal semantics AST for every
// retired instruction; the micro-op layer (interp/uop.hpp) lowers
// straight-line runs once into flat blocks and executes them with threaded
// dispatch. This harness measures both halves of that claim:
//
//   1. Micro throughput: a tight concrete loop and its taint-tracking twin,
//      interpreted with the fast path off and on. The concrete speedup must
//      reach 3.0x (the subsystem's acceptance bar) — the harness exits
//      non-zero below it.
//   2. Table I explorations: the binsym engine over every evaluation
//      workload with the fast path off and on. Path counts are checked for
//      drift (the fast path may only change cost, never the explored path
//      set); wall-clock and the uop counters are reported.
//
// Each row is emitted as a JSON line into BENCH_interp.json (cwd), the
// trajectory file CI's perf-smoke step archives.
//
//   bench_ablation_interp [--quick] [--jobs N]
//
// --quick caps paths per exploration and shortens the micro loops (CI
// smoke); scheduling is identical with the fast path on and off, so the
// drift check stays exact even under a path budget.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "asm/assembler.hpp"
#include "elf/elf32.hpp"
#include "engines.hpp"
#include "interp/concrete.hpp"
#include "interp/taint.hpp"

using namespace binsym;

namespace {

constexpr const char* kLoopSource = R"(
_start:
    li t0, %ITER%
loop:
    addi t1, t1, 3
    slli t2, t1, 4
    xor t3, t2, t1
    sltu t4, t3, t2
    add t5, t5, t4
    mul t6, t5, t3
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
)";

std::string loop_source(unsigned iterations) {
  std::string source = kLoopSource;
  size_t pos = source.find("%ITER%");
  source.replace(pos, 6, std::to_string(iterations));
  return source;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct MicroResult {
  uint64_t instructions = 0;
  double seconds = 0;
  double instr_per_sec = 0;
};

/// Run `run_once` (which returns retired instructions) repeatedly for at
/// least `min_seconds`, returning aggregate throughput.
template <typename F>
MicroResult measure(F run_once, double min_seconds) {
  MicroResult r;
  auto start = std::chrono::steady_clock::now();
  do {
    r.instructions += run_once();
    r.seconds = seconds_since(start);
  } while (r.seconds < min_seconds);
  r.instr_per_sec = r.instructions / r.seconds;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  unsigned jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      if (!bench::parse_jobs_arg(argv[++i], &jobs)) return 2;
    }
  }
  const uint64_t max_paths = quick ? 400 : UINT64_MAX;
  const double min_seconds = quick ? 0.2 : 1.0;
  const unsigned loop_iterations = quick ? 20'000 : 200'000;

  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);

  std::FILE* json = std::fopen("BENCH_interp.json", "w");
  int failures = 0;
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };

  // -- Part 1: interpreter micro throughput. --------------------------------

  std::printf(
      "ABLATION: MICRO-OP BLOCK COMPILATION — spec walk vs threaded "
      "dispatch%s\n\n",
      quick ? " (quick)" : "");

  rvasm::AsmResult assembled =
      rvasm::assemble_or_die(table, loop_source(loop_iterations));

  auto concrete_once = [&](bool uop) {
    interp::Iss iss(decoder, registry, uop);
    for (const elf::Segment& seg : assembled.image.segments)
      for (size_t i = 0; i < seg.bytes.size(); ++i)
        iss.machine().memory_.write8(seg.addr + static_cast<uint32_t>(i),
                                     seg.bytes[i]);
    iss.machine().pc_ = assembled.image.entry;
    return iss.run();
  };
  auto taint_once = [&](bool uop) {
    interp::TaintTracker tracker(decoder, registry, uop);
    for (const elf::Segment& seg : assembled.image.segments)
      for (size_t i = 0; i < seg.bytes.size(); ++i)
        tracker.machine().memory_[seg.addr + static_cast<uint32_t>(i)] =
            seg.bytes[i];
    tracker.machine().pc_ = assembled.image.entry;
    return tracker.run(100'000'000);
  };

  std::printf("%-10s %-6s %14s %10s %9s\n", "Interp", "config", "instructions",
              "instr/s", "speedup");
  struct MicroRow {
    const char* name;
    double min_speedup;  // acceptance bar (0 = report only)
  };
  for (const MicroRow& row : {MicroRow{"concrete", 3.0}, MicroRow{"taint", 0}}) {
    const bool concrete = std::strcmp(row.name, "concrete") == 0;
    MicroResult spec = measure(
        [&] { return concrete ? concrete_once(false) : taint_once(false); },
        min_seconds);
    MicroResult block = measure(
        [&] { return concrete ? concrete_once(true) : taint_once(true); },
        min_seconds);
    double speedup = block.instr_per_sec / spec.instr_per_sec;
    bool below_bar = row.min_speedup > 0 && speedup < row.min_speedup;
    if (below_bar) ++failures;
    std::printf("%-10s %-6s %14llu %10.0f %8.2fx%s\n", row.name, "spec",
                u(spec.instructions), spec.instr_per_sec, 1.0, "");
    std::printf("%-10s %-6s %14llu %10.0f %8.2fx%s\n", row.name, "block",
                u(block.instructions), block.instr_per_sec, speedup,
                below_bar ? "  <- BELOW 3.0x BAR" : "");
    if (json) {
      std::fprintf(json,
                   "{\"bench\":\"micro\",\"interp\":\"%s\",\"quick\":%s,"
                   "\"spec_instr_per_sec\":%.0f,\"block_instr_per_sec\":%.0f,"
                   "\"speedup\":%.3f,\"min_speedup\":%.1f}\n",
                   row.name, quick ? "true" : "false", spec.instr_per_sec,
                   block.instr_per_sec, speedup, row.min_speedup);
    }
  }

  // -- Part 2: Table I explorations, fast path off vs on. -------------------

  std::printf("\n%-16s %-6s %8s %12s %8s %9s %8s %8s %7s %8s\n", "Benchmark",
              "config", "paths", "instructions", "speedup", "seconds",
              "blocks", "hits", "bails", "invalid");
  for (const workloads::WorkloadInfo& info : workloads::table1_workloads()) {
    core::Program program = workloads::load_workload_or_exit(table, info.name);

    uint64_t spec_paths = 0;
    double spec_seconds = 0;
    for (bool uop : {false, true}) {
      core::MachineConfig mconfig;
      mconfig.uop_fastpath = uop;
      bench::EngineSetup setup{decoder, registry, program, mconfig};
      core::EngineOptions options;
      options.max_paths = max_paths;
      options.jobs = jobs;
      core::EngineStats s = bench::explore_parallel("binsym", setup, options);

      if (!uop) {
        spec_paths = s.paths;
        spec_seconds = s.seconds;
      }
      if (s.paths != spec_paths) ++failures;
      double speedup = s.seconds > 0 ? spec_seconds / s.seconds : 0.0;
      std::printf(
          "%-16s %-6s %8llu %12llu %7.2fx %9.3f %8llu %8llu %7llu %8llu%s\n",
          info.name.c_str(), uop ? "block" : "spec", u(s.paths),
          u(s.instructions), speedup, s.seconds, u(s.uop_blocks_compiled),
          u(s.uop_cache_hits), u(s.uop_guard_bails), u(s.uop_invalidations),
          s.paths != spec_paths ? "  <- PATH-COUNT DRIFT" : "");
      if (json) {
        std::fprintf(
            json,
            "{\"bench\":\"table1\",\"workload\":\"%s\",\"config\":\"%s\","
            "\"quick\":%s,\"jobs\":%u,\"paths\":%llu,\"instructions\":%llu,"
            "\"speedup_seconds\":%.3f,\"seconds\":%.6f,"
            "\"uop_blocks_compiled\":%llu,\"uop_cache_hits\":%llu,"
            "\"uop_guard_bails\":%llu,\"uop_invalidations\":%llu,"
            "\"pages_clean_skipped\":%llu}\n",
            info.name.c_str(), uop ? "block" : "spec",
            quick ? "true" : "false", jobs, u(s.paths), u(s.instructions),
            speedup, s.seconds, u(s.uop_blocks_compiled), u(s.uop_cache_hits),
            u(s.uop_guard_bails), u(s.uop_invalidations),
            u(s.pages_clean_skipped));
      }
    }
  }
  if (json) std::fclose(json);

  std::printf(
      "\nNotes: the micro rows pin raw interpreter throughput (the concrete "
      "block path must clear 3.0x over the spec walk); the Table I rows show "
      "what survives end-to-end, where solver time and symbolic branches "
      "(which bail to the spec path) dilute the win. Path counts must not "
      "move between configs. JSON lines: BENCH_interp.json\n");
  if (failures) {
    std::printf("FAIL: %d check(s) failed (speedup bar or path drift)\n",
                failures);
    return 1;
  }
  return 0;
}
