#include "vm/executor.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "vm/deque.hpp"

namespace parcm::vm {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15uLL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9uLL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBuLL;
  return x ^ (x >> 31);
}

// Mirrors semantics/state.cpp exactly: wrapping arithmetic, division by
// zero yields 0, INT64_MIN / -1 wraps, comparisons yield 1/0. Load is
// how a variable is read (plain vector in the deterministic machine,
// seq_cst atomic in the parallel one).
template <class Load>
std::int64_t eval_with(const Rhs& rhs, Load&& load) {
  auto operand = [&load](const Operand& op) {
    return op.is_var() ? load(op.var_id()) : op.const_value();
  };
  if (rhs.is_trivial()) return operand(rhs.trivial());
  const Term& t = rhs.term();
  std::int64_t a = operand(t.lhs);
  std::int64_t b = operand(t.rhs);
  switch (t.op) {
    case BinOp::kAdd: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
    case BinOp::kSub: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
    case BinOp::kMul: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
    case BinOp::kDiv:
      if (b == 0) return 0;
      if (b == -1) return static_cast<std::int64_t>(
          -static_cast<std::uint64_t>(a));
      return a / b;
    case BinOp::kLt: return a < b;
    case BinOp::kLe: return a <= b;
    case BinOp::kGt: return a > b;
    case BinOp::kGe: return a >= b;
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
  }
  PARCM_CHECK(false, "unknown BinOp in vm eval");
}

enum class StepOutcome : std::uint8_t { kContinue, kParked, kHalted };

// ---------------------------------------------------------------------------
// Deterministic machine: one OS thread, every instruction a schedule point.
// Shared by the seeded mode (rng picks the next runnable task) and the
// cost mode (oracle picks branches, phase algebra accumulates the paper's
// bottleneck time).
// ---------------------------------------------------------------------------

class DetMachine {
 public:
  explicit DetMachine(const VmProgram& p) : p_(p) {}

  // One registry update per machine, not per run: SeededRunner executes
  // hundreds of schedules per differential check, and the registry's
  // mutex+lookup would otherwise show up in the oracle's throughput.
  ~DetMachine() {
    if (instrs_total_ > 0) PARCM_OBS_COUNT("vm.instrs_executed", instrs_total_);
  }

  // Reusable: every run reassigns the full machine state (the vectors keep
  // their capacity, which is what makes SeededRunner cheap per run).
  ExecResult run(Rng* rng, BranchOracle* oracle, const ExecLimits& limits) {
    rng_ = rng;
    oracle_ = oracle;
    limits_ = limits;
    ExecResult res;
    store_.assign(p_.num_vars, 0);
    tasks_.assign(p_.num_regions, Task{});
    stmts_.assign(p_.par_stmts.size(), StmtState{});
    ready_.clear();
    if (!visits_.empty()) visits_.clear();
    const bool cost = oracle_ != nullptr;
    tasks_[0].pc = p_.root_entry();
    if (cost) tasks_[0].phases.assign(1, 0);
    ready_.push_back(RegionId(0));
    bool root_halted = false;

    while (!ready_.empty()) {
      if (res.instrs >= limits_.max_steps) {
        res.store = store_;  // partial store: diagnostics only
        instrs_total_ += res.instrs;
        return res;  // ok stays false: budget exhausted
      }
      std::size_t pick = 0;
      if (rng_ != nullptr && ready_.size() > 1) {
        if (limits_.schedule_bias == 0 || rng_->below(8) == 0) {
          pick = rng_->below(ready_.size());
        } else if (limits_.schedule_bias > 0) {
          pick = ready_.size() - 1;
        }
      }
      RegionId r = ready_[pick];
      if (tasks_[r.index()].pc == kHaltPc) {
        // Resumed past its last instruction: a barrier that was the final
        // statement of its component pre-advanced the pc to the component
        // exit before parking. Halting is the whole step.
        ready_[pick] = ready_.back();
        ready_.pop_back();
        on_halt(r, cost, &root_halted);
        continue;
      }
      StepOutcome out = step(r, cost, &res);
      ++res.instrs;
      if (out != StepOutcome::kContinue) {
        ready_[pick] = ready_.back();
        ready_.pop_back();
        if (out == StepOutcome::kHalted) on_halt(r, cost, &root_halted);
      }
    }

    res.ok = root_halted;
    res.deadlocked = !root_halted;
    res.store = store_;
    if (cost) {
      for (std::uint64_t ph : tasks_[0].phases) res.time += ph;
    }
    instrs_total_ += res.instrs;
    return res;
  }

 private:
  struct Task {
    Pc pc = kHaltPc;
    std::int64_t acc = 0;
    std::vector<std::uint64_t> phases;  // cost mode only
  };
  struct StmtState {
    std::size_t live = 0;
    std::vector<RegionId> waiting;
  };

  StepOutcome step(RegionId r, bool cost, ExecResult* res) {
    Task& t = tasks_[r.index()];
    const Instr& in = p_.code[t.pc];
    auto load = [this](VarId v) { return store_[v.index()]; };
    switch (in.op) {
      case Op::kNop:
        return advance(t, in.target);
      case Op::kEval:
        if (cost && in.counts) {
          t.phases.back() += 1;
          res->computations += 1;
        }
        t.acc = eval_with(in.rhs, load);
        return advance(t, in.target);
      case Op::kStore:
        store_[in.dst.index()] = t.acc;
        return advance(t, in.target);
      case Op::kAssign:
        if (cost && in.counts) {
          t.phases.back() += 1;
          res->computations += 1;
        }
        store_[in.dst.index()] = eval_with(in.rhs, load);
        return advance(t, in.target);
      case Op::kBranch: {
        std::size_t idx =
            oracle_ != nullptr
                ? oracle_->choose(in.src, visits_[in.src.value()]++, 2)
                : (eval_with(in.rhs, load) != 0 ? 0 : 1);
        return advance(t, idx == 0 ? in.target : in.target2);
      }
      case Op::kChoose: {
        std::size_t idx =
            oracle_ != nullptr
                ? oracle_->choose(in.src, visits_[in.src.value()]++,
                                  in.choices_len)
                : rng_->below(in.choices_len);
        return advance(t, p_.choice_pool[in.choices_off + idx]);
      }
      case Op::kSpawn: {
        const VmParStmt& s = p_.par_stmts[in.stmt.index()];
        StmtState& st = stmts_[in.stmt.index()];
        st.live = s.components.size();
        st.waiting.clear();
        t.pc = s.resume;  // park on the join; the last child re-enqueues us
        for (RegionId comp : s.components) {
          Task& c = tasks_[comp.index()];
          c.pc = p_.region_entry[comp.index()];
          c.acc = 0;
          if (cost) c.phases.assign(1, 0);
          ready_.push_back(comp);
        }
        return StepOutcome::kParked;
      }
      case Op::kBarrier: {
        StmtState& st = stmts_[in.stmt.index()];
        if (cost) t.phases.push_back(0);  // next phase of this thread
        t.pc = in.target;  // pre-advance: release just re-enqueues
        st.waiting.push_back(r);
        if (st.waiting.size() == st.live) {
          for (RegionId w : st.waiting) ready_.push_back(w);
          st.waiting.clear();
        }
        return StepOutcome::kParked;
      }
    }
    PARCM_CHECK(false, "unknown vm opcode");
  }

  static StepOutcome advance(Task& t, Pc target) {
    if (target == kHaltPc) return StepOutcome::kHalted;
    t.pc = target;
    return StepOutcome::kContinue;
  }

  void on_halt(RegionId r, bool cost, bool* root_halted) {
    ParStmtId owner = p_.region_owner[r.index()];
    if (!owner.valid()) {
      *root_halted = true;
      return;
    }
    const VmParStmt& s = p_.par_stmts[owner.index()];
    StmtState& st = stmts_[owner.index()];
    PARCM_CHECK(st.live > 0, "component halted twice");
    --st.live;
    if (st.live == 0) {
      // Join: fold the components' phase vectors into the spawner's current
      // phase — per barrier phase the bottleneck component pays, exactly
      // CostWalker's combination.
      if (cost) {
        Task& parent = tasks_[s.parent.index()];
        std::size_t max_phases = 0;
        for (RegionId comp : s.components) {
          max_phases = std::max(max_phases, tasks_[comp.index()].phases.size());
        }
        for (std::size_t ph = 0; ph < max_phases; ++ph) {
          std::uint64_t bottleneck = 0;
          for (RegionId comp : s.components) {
            const auto& phases = tasks_[comp.index()].phases;
            if (ph < phases.size()) {
              bottleneck = std::max(bottleneck, phases[ph]);
            }
          }
          parent.phases.back() += bottleneck;
        }
      }
      ready_.push_back(s.parent);
      return;
    }
    // A sibling may be the last one a pending barrier was waiting for: a
    // terminated component is excused from the collective (the
    // zero-statement-component case — without this re-check the barrier
    // would deadlock).
    if (!st.waiting.empty() && st.waiting.size() == st.live) {
      for (RegionId w : st.waiting) ready_.push_back(w);
      st.waiting.clear();
    }
  }

  const VmProgram& p_;
  Rng* rng_ = nullptr;
  BranchOracle* oracle_ = nullptr;
  ExecLimits limits_;
  std::vector<std::int64_t> store_;
  std::vector<Task> tasks_;
  std::vector<StmtState> stmts_;
  std::vector<RegionId> ready_;
  std::unordered_map<std::uint32_t, std::size_t> visits_;
  std::uint64_t instrs_total_ = 0;
};

// ---------------------------------------------------------------------------
// Parallel machine: par components as tasks on Chase-Lev deques, shared
// store in seq_cst atomics. Task structs are plain: ownership transfers
// through deque pushes (release) and steals (seq_cst/acquire), and every
// park/unpark edge goes through the owning statement's mutex, so all task
// writes happen-before the next runner's reads.
// ---------------------------------------------------------------------------

class ParMachine {
 public:
  ParMachine(const VmProgram& p, const ParallelOptions& opts)
      : p_(p), opts_(opts) {}

  ExecResult run() {
    std::size_t workers = opts_.workers != 0
                              ? opts_.workers
                              : std::thread::hardware_concurrency();
    workers = std::max<std::size_t>(1, std::min(workers, p_.num_regions));

    store_ = std::make_unique<std::atomic<std::int64_t>[]>(p_.num_vars);
    for (std::size_t i = 0; i < p_.num_vars; ++i) store_[i].store(0);
    tasks_.assign(p_.num_regions, Task{});
    stmts_ = std::make_unique<StmtState[]>(p_.par_stmts.size());
    budget_.store(static_cast<std::int64_t>(opts_.max_steps));
    for (std::size_t w = 0; w < workers; ++w) {
      deques_.push_back(
          std::make_unique<WorkStealingDeque>(p_.num_regions + 1));
    }

    tasks_[0].pc = p_.root_entry();
    in_flight_.store(1);
    PARCM_CHECK(deques_[0]->push(0), "vm deque full at seed");

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([this, w] { worker(w); });
    }
    for (std::thread& th : pool) th.join();

    ExecResult res;
    res.ok = done_.load() && !aborted_.load();
    res.deadlocked = deadlocked_.load();
    res.instrs = instrs_.load();
    res.store.resize(p_.num_vars);
    for (std::size_t i = 0; i < p_.num_vars; ++i) {
      res.store[i] = store_[i].load();
    }
    return res;
  }

 private:
  struct Task {
    Pc pc = kHaltPc;
    std::int64_t acc = 0;
  };
  struct StmtState {
    std::mutex m;
    std::size_t live = 0;
    std::vector<RegionId> waiting;
  };

  void worker(std::size_t w) {
    Rng rng(mix(opts_.seed ^ mix(w + 1)));
    // Seeded victim rotation: each worker probes the others in its own
    // pseudo-random order, so repeated runs explore different steal
    // patterns deterministically per (seed, worker).
    std::vector<std::size_t> victims;
    for (std::size_t v = 0; v < deques_.size(); ++v) {
      if (v != w) victims.push_back(v);
    }
    for (std::size_t i = victims.size(); i > 1; --i) {
      std::swap(victims[i - 1], victims[rng.below(i)]);
    }

    std::uint64_t local_instrs = 0;
    auto wait_start = std::chrono::steady_clock::now();
    while (!done_.load(std::memory_order_acquire) && !aborted_.load()) {
      std::size_t job = 0;
      bool got = deques_[w]->pop(&job);
      for (std::size_t k = 0; !got && k < victims.size(); ++k) {
        got = deques_[victims[k]]->steal(&job);
      }
      if (!got) {
        if (in_flight_.load() == 0 && !done_.load()) {
          // Nothing queued, nothing running, program not terminated: every
          // remaining task is parked forever. Validated graphs cannot get
          // here; flag instead of hanging.
          deadlocked_.store(true);
          done_.store(true, std::memory_order_release);
        }
        std::this_thread::yield();
        continue;
      }
      PARCM_OBS_HIST(
          "vm.schedule_latency_ns",
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - wait_start)
                  .count()));
      run_task(RegionId(static_cast<std::uint32_t>(job)), w, &local_instrs);
      wait_start = std::chrono::steady_clock::now();
    }
    instrs_.fetch_add(local_instrs);
    PARCM_OBS_COUNT("vm.instrs_executed", local_instrs);
  }

  void run_task(RegionId r, std::size_t w, std::uint64_t* local_instrs) {
    for (;;) {
      if (tasks_[r.index()].pc == kHaltPc) {
        // Resumed at the component exit (trailing barrier): halt directly.
        on_halt(r, w);
        return;
      }
      ++*local_instrs;
      if ((*local_instrs & 0x3FF) == 0 &&
          budget_.fetch_sub(0x400) <= 0) {
        aborted_.store(true);
        done_.store(true, std::memory_order_release);
        return;
      }
      StepOutcome out = step(r, w);
      // After kParked the task may already be running on another worker
      // (barrier release re-enqueued it); it must not be touched here.
      if (out == StepOutcome::kParked) return;
      if (out == StepOutcome::kHalted) {
        on_halt(r, w);
        return;
      }
    }
  }

  void enqueue(RegionId r, std::size_t w) {
    in_flight_.fetch_add(1);
    PARCM_CHECK(deques_[w]->push(r.index()), "vm deque overflow");
  }

  StepOutcome step(RegionId r, std::size_t w) {
    Task& t = tasks_[r.index()];
    const Instr& in = p_.code[t.pc];
    auto load = [this](VarId v) { return store_[v.index()].load(); };
    switch (in.op) {
      case Op::kNop:
        return advance(t, in.target);
      case Op::kEval:
        t.acc = eval_with(in.rhs, load);
        return advance(t, in.target);
      case Op::kStore:
        store_[in.dst.index()].store(t.acc);
        return advance(t, in.target);
      case Op::kAssign:
        store_[in.dst.index()].store(eval_with(in.rhs, load));
        return advance(t, in.target);
      case Op::kBranch:
        return advance(t, eval_with(in.rhs, load) != 0 ? in.target
                                                       : in.target2);
      case Op::kChoose: {
        // Any alternative is a legal behaviour; a cheap hash of (worker,
        // instr count) decorrelates repeated visits without carrying a
        // per-worker rng through the hot path.
        std::size_t idx = static_cast<std::size_t>(
            mix(opts_.seed ^ (w << 20) ^ choice_salt_.fetch_add(1)) %
            in.choices_len);
        return advance(t, p_.choice_pool[in.choices_off + idx]);
      }
      case Op::kSpawn: {
        const VmParStmt& s = p_.par_stmts[in.stmt.index()];
        StmtState& st = stmts_[in.stmt.index()];
        {
          std::lock_guard<std::mutex> lock(st.m);
          st.live = s.components.size();
          st.waiting.clear();
        }
        t.pc = s.resume;  // fully parked before any child can see the stmt
        for (RegionId comp : s.components) {
          Task& c = tasks_[comp.index()];
          c.pc = p_.region_entry[comp.index()];
          c.acc = 0;
          enqueue(comp, w);
        }
        return StepOutcome::kParked;
      }
      case Op::kBarrier: {
        StmtState& st = stmts_[in.stmt.index()];
        t.pc = in.target;  // pre-advance before publishing ourselves
        std::vector<RegionId> release;
        {
          std::lock_guard<std::mutex> lock(st.m);
          st.waiting.push_back(r);
          if (st.waiting.size() == st.live) {
            release.swap(st.waiting);
          }
        }
        for (RegionId waiter : release) enqueue(waiter, w);
        return StepOutcome::kParked;
      }
    }
    PARCM_CHECK(false, "unknown vm opcode");
  }

  static StepOutcome advance(Task& t, Pc target) {
    if (target == kHaltPc) return StepOutcome::kHalted;
    t.pc = target;
    return StepOutcome::kContinue;
  }

  void on_halt(RegionId r, std::size_t w) {
    ParStmtId owner = p_.region_owner[r.index()];
    if (!owner.valid()) {
      done_.store(true, std::memory_order_release);
      in_flight_.fetch_sub(1);
      return;
    }
    const VmParStmt& s = p_.par_stmts[owner.index()];
    StmtState& st = stmts_[owner.index()];
    bool join = false;
    std::vector<RegionId> release;
    {
      std::lock_guard<std::mutex> lock(st.m);
      PARCM_CHECK(st.live > 0, "vm component halted twice");
      --st.live;
      if (st.live == 0) {
        join = true;
      } else if (!st.waiting.empty() && st.waiting.size() == st.live) {
        // Terminated components are excused from the collective: the last
        // live sibling may already be waiting (zero-statement components).
        release.swap(st.waiting);
      }
    }
    if (join) enqueue(s.parent, w);
    for (RegionId waiter : release) enqueue(waiter, w);
    // Decrement last: while this halt's pushes are pending the machine is
    // never observed with zero in-flight tasks.
    in_flight_.fetch_sub(1);
  }

  const VmProgram& p_;
  ParallelOptions opts_;
  std::unique_ptr<std::atomic<std::int64_t>[]> store_;
  std::vector<Task> tasks_;
  std::unique_ptr<StmtState[]> stmts_;
  std::vector<std::unique_ptr<WorkStealingDeque>> deques_;
  std::atomic<bool> done_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> deadlocked_{false};
  std::atomic<std::int64_t> budget_{0};
  std::atomic<std::uint64_t> instrs_{0};
  std::atomic<std::uint64_t> choice_salt_{0};
  std::atomic<std::int64_t> in_flight_{0};
};

}  // namespace

ExecResult run_seeded(const VmProgram& p, std::uint64_t seed,
                      const ExecLimits& limits) {
  Rng rng(mix(seed));
  return DetMachine(p).run(&rng, nullptr, limits);
}

ExecResult run_with_oracle(const VmProgram& p, BranchOracle& oracle,
                           const ExecLimits& limits) {
  return DetMachine(p).run(nullptr, &oracle, limits);
}

struct SeededRunner::Impl {
  explicit Impl(const VmProgram& p) : machine(p) {}
  DetMachine machine;
};

SeededRunner::SeededRunner(const VmProgram& p)
    : impl_(std::make_unique<Impl>(p)) {}

SeededRunner::~SeededRunner() = default;

ExecResult SeededRunner::run(std::uint64_t seed, const ExecLimits& limits) {
  Rng rng(mix(seed));
  return impl_->machine.run(&rng, nullptr, limits);
}

ExecResult run_parallel(const VmProgram& p, const ParallelOptions& opts) {
  return ParMachine(p, opts).run();
}

}  // namespace parcm::vm
