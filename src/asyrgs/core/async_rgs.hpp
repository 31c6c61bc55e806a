// AsyRGS — Asynchronous Randomized Gauss-Seidel (the paper's contribution).
//
// P workers share one iterate x in memory and run Algorithm 1 of the paper
// concurrently with no coordination:
//
//   loop:
//     pick a random row r                     (Philox at the global index)
//     read the entries of x touched by A_r    (relaxed atomic loads)
//     gamma <- (b_r - A_r x) / A_rr
//     x_r   <- x_r + beta * gamma             (atomic CAS add: Assumption A-1)
//
// Worker w executes exactly the global iteration indices {w, w+P, w+2P, ...}
// of the Philox stream, so the multiset of random directions is identical
// for every worker count — the methodology the paper uses (via Random123)
// to isolate the price of asynchronism in Figure 2.
//
// Execution modes (Section 5 discussion):
//  * kFreeRunning     - no synchronization at all; Theorem 2(b)/3(b)/4(b)
//                       regime ("long-term linear convergence").
//  * kBarrierPerSweep - workers synchronize after every sweep of n total
//                       updates; Theorem 2(a)/3(a)/4(a) regime ("occasional
//                       synchronization": rate 1 - nu_tau/2kappa per sweep).
//
// Write modes (Figure 2 center/right experiment):
//  * atomic_writes = true  - CAS fetch-add (Assumption A-1 enforced);
//  * atomic_writes = false - racy load+store; lost updates possible.  The
//                            paper observed "no consistent advantage to
//                            using atomic writes" — the benches reproduce
//                            that comparison.
//
// Reads are *inconsistent* (the only variant the paper implements, Section
// 9): enforcing Assumption A-2 in a real shared-memory run would serialize
// the very reads the method tries to overlap.  The bounded-delay simulator
// (simulate/async_sim.hpp) provides the consistent-read model for theorem
// validation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asyrgs/core/rgs.hpp"
#include "asyrgs/linalg/multivector.hpp"
#include "asyrgs/sampling/direction_sampler.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

/// Inter-sweep synchronization scheme.
enum class SyncMode {
  kFreeRunning,      ///< fully asynchronous across sweeps
  kBarrierPerSweep,  ///< occasional synchronization (one barrier per sweep)
  /// Time-based occasional synchronization (Section 5 discussion: "a time
  /// based scheme for synchronizing the processors should be sufficient,
  /// and will not suffer from large wait times due to load imbalance"):
  /// workers run freely and rendezvous whenever `sync_interval_seconds` has
  /// elapsed; residual checks/early stopping happen at the rendezvous.
  kTimedBarrier,
};

/// Randomization scope (Section 10 / limitations discussion).
enum class RandomizationScope {
  /// Every worker may update every coordinate (the paper's algorithm; the
  /// analyzed model).
  kShared,
  /// "Owner computes": worker w draws rows only from its contiguous
  /// partition — the restricted randomization the paper proposes for the
  /// distributed-memory setting and as a cache-miss mitigation.  Each
  /// partition runs its own Philox stream; updates still read the shared
  /// iterate across partition boundaries.
  ///
  /// Pair this scope with kBarrierPerSweep or kTimedBarrier when running a
  /// *finite* budget: under kFreeRunning a worker that drains its budget
  /// early leaves its partition frozen against neighbours' mid-solve
  /// values, and no other worker can repair it (shared-scope randomization
  /// self-repairs; partitioned randomization cannot).  With synchronized
  /// sweeps, or when iterating to a residual tolerance, the scope is safe.
  kOwnerComputes,
};

/// Floating-point association of the CSR row scan inside each coordinate
/// update (the dominant FP chain of the scan-bound regime).
enum class ScanMode {
  /// One serial subtraction per nonzero, in column order — the association
  /// every solver in this library shares, which makes equal-seed runs
  /// bit-identical across worker counts and against the sequential
  /// reference.  This is the default and the path the determinism suite
  /// gates.
  kPinned,
  /// "Fast math" opt-in: the row scan runs over multiple independent
  /// accumulators (SIMD gather/FMA lanes where available — see
  /// sparse/csr.hpp), reducing at the end.  Same mathematical sum, a
  /// different rounding order that varies with the host's vector width, so
  /// cross-worker-count (and cross-machine) bit equality is forfeited.  The
  /// convergence guarantees are unaffected: the paper's theorems (and the
  /// AsyRK analysis) assume only bounded staleness of the values read,
  /// never a fixed reduction order.  The direction multiset is identical in
  /// both modes — scan mode never touches direction planning.  Currently
  /// accelerates the single-RHS and least-squares kernels; the block kernel
  /// is column-parallel already and runs the pinned scan in either mode.
  /// Worthwhile on scan-bound (medium/long-row) matrices only — short-row
  /// matrices see a modest slowdown (docs/TUNING.md has the numbers).
  kReassociated,
};

/// Solution strategy (kAuto picks by accuracy target: plain AsyRGS in the
/// low-accuracy regime where basic iterations shine, AsyRGS as a
/// flexible-CG preconditioner when high accuracy is sought — the paper's
/// Section 9 guidance).
enum class SpdMethod {
  kAuto,      ///< pick by accuracy target (see SpdProblem::solve docs)
  kAsyncRgs,  ///< asynchronous randomized Gauss-Seidel
  kFcgAsyRgs, ///< flexible CG preconditioned by AsyRGS
  kCg,        ///< plain conjugate gradients (synchronous baseline)
  /// Asynchronous row-action Kaczmarz on the shared engine: directions are
  /// rows, each update projects x onto its row's hyperplane (relaxed by
  /// beta).  Served by LsqProblem — it needs no symmetry and handles
  /// rectangular and inconsistent systems; SpdProblem::solve rejects it
  /// with a pointer there.
  kAsyncKaczmarz,
};

/// How a solve ended.
enum class SolveStatus {
  /// The requested relative-residual tolerance was reached.
  kConverged,
  /// A tolerance was requested (rel_tol > 0 under a synchronizing mode, or
  /// a Krylov method) but the iteration budget ran out first.
  kToleranceNotReached,
  /// The fixed iteration budget ran to completion with no tolerance in
  /// play (free-running asynchronous runs, or rel_tol == 0).
  kBudgetCompleted,
  /// The request never ran: a serving layer declined it (queue at
  /// ServiceOptions::max_queue, submit racing shutdown, or a deadline that
  /// expired while queued).  Direct handle solves never produce this; the
  /// ticket's `description` names the reason.  See serve/service.hpp.
  kRejected,
};

/// Human-readable status name ("converged", "tolerance-not-reached",
/// "budget-completed", "rejected").
[[nodiscard]] const char* to_string(SolveStatus status) noexcept;

/// Per-call knobs of every solve — the prepared handles (asyrgs/problem.hpp),
/// the one-shot free functions below, and the engine itself read this one
/// struct.  Per-problem state (matrix, pool, validation, storage) is bound
/// at handle construction instead.
struct SolveControls {
  /// Solution strategy.  LsqProblem accepts kAuto/kAsyncRgs (randomized
  /// coordinate descent) and kAsyncKaczmarz (row action); SpdProblem
  /// accepts everything but kAsyncKaczmarz.
  SpdMethod method = SpdMethod::kAuto;
  /// Sweep budget for the asynchronous/randomized methods (one sweep = n
  /// coordinate updates across the team).
  int sweeps = 10;
  /// Outer-iteration cap for the Krylov methods (kCg / kFcgAsyRgs);
  /// 0 = auto (10000).
  int max_iterations = 0;
  double step_size = 1.0;    ///< beta; Theorems 3-5 want beta < 1 for bounds
  std::uint64_t seed = 1;    ///< keys the Philox direction stream
  int workers = 0;           ///< team size; 0 = pool capacity; < 0 rejected
  bool atomic_writes = true; ///< false = racy "non atomic" variant
  SyncMode sync = SyncMode::kFreeRunning;
  RandomizationScope scope = RandomizationScope::kShared;
  /// Row-scan FP association; kPinned preserves bit reproducibility, while
  /// kReassociated trades it for multi-accumulator/SIMD scan throughput.
  ScanMode scan = ScanMode::kPinned;
  double sync_interval_seconds = 0.05;  ///< kTimedBarrier rendezvous cadence
  /// With kBarrierPerSweep/kTimedBarrier: record the relative residual at
  /// each synchronization (SolveOutcome::residual_history).
  bool track_history = false;
  /// Target on the method's convergence metric (relative residual; normal
  /// equations residual for least squares).  0 disables tolerance stopping;
  /// free-running asynchronous runs never evaluate it.
  double rel_tol = 0.0;
  /// kFcgAsyRgs only: AsyRGS sweeps per preconditioner application.
  int inner_sweeps = 2;
  /// Direction-draw distribution for the asynchronous methods (see
  /// sampling/direction_sampler.hpp).  kUniform is the paper's setting and
  /// bit-identical to the pre-sampling engine.  Non-uniform policies
  /// require RandomizationScope::kShared; kResidual additionally requires
  /// a synchronizing mode (its table refreshes at rendezvous) and the
  /// single-RHS paths.  The Krylov methods reject non-uniform policies —
  /// they draw no random directions.
  SamplingPolicy sampling = SamplingPolicy::kUniform;
  /// kResidual only: rebuild the residual-weighted table every this many
  /// synchronization rendezvous (sweeps under kBarrierPerSweep, rounds
  /// under kTimedBarrier).  Must be >= 1; see docs/TUNING.md for sizing.
  int resample_sweeps = 8;
  /// Topology-aware partitioned scheduling (SpdProblem single-RHS AsyRGS
  /// only).  0 = off (the paper's any-worker-any-coordinate model).  >= 1
  /// reorders the operator by reverse Cuthill-McKee, cuts it into this many
  /// cache-line-aligned partitions balanced by nonzeros, and has each
  /// worker draw only from the partitions it owns plus their halos — the
  /// locality layer for graph-Laplacian scale (docs/TUNING.md).  Clamped to
  /// the dimension; the clamp is surfaced as SolveOutcome::partitions_used.
  /// Requires kUniform sampling and RandomizationScope::kShared.
  int partitions = 0;
  /// Probability in [0, 1) that a partitioned draw steals a halo row
  /// (a neighbour-owned boundary row) instead of an owned row — the
  /// cross-partition coupling knob.  Liu-Wright-style restricted sampling:
  /// 0 is pure owner-computes; a few percent restores the information flow
  /// across cuts that the convergence theory leans on.  Requires
  /// partitions >= 1.
  double steal_rate = 0.0;
};

/// Result of every solve.
struct SolveOutcome {
  SolveStatus status = SolveStatus::kBudgetCompleted;
  /// Resolved strategy (SpdProblem methods; for LsqProblem kAsyncRgs =
  /// coordinate descent, kAsyncKaczmarz = row action).
  SpdMethod method_used = SpdMethod::kAuto;
  int iterations = 0;        ///< sweeps or outer iterations, per method
  long long updates = 0;     ///< coordinate updates (asynchronous methods)
  int workers = 0;           ///< actual team size used
  double relative_residual = 0.0;  ///< when a tolerance/history was active
  double seconds = 0.0;      ///< iteration-loop wall time
  ScanMode scan_requested = ScanMode::kPinned;
  /// Association the kernels actually ran; differs from scan_requested only
  /// for the block solver at more than four right-hand sides, whose
  /// column-parallel inner loops run the pinned scan (k <= 4 dispatches the
  /// reassociated register-resident kernel; see docs/TUNING.md).
  ScanMode scan_executed = ScanMode::kPinned;
  /// CSR storage policy the kernels actually ran against — the handle's
  /// resolved policy for the asynchronous methods, kInt64Double for the
  /// Krylov outer methods (which always read the bound full-width matrix).
  StoragePolicy storage_used = StoragePolicy::kInt64Double;
  /// Direction-draw distribution the run used (kUniform for the Krylov
  /// methods, which draw no directions).
  SamplingPolicy sampling_used = SamplingPolicy::kUniform;
  /// Partition count the run actually used (SolveControls::partitions after
  /// clamping to the dimension); 0 = unpartitioned scheduling.
  int partitions_used = 0;
  /// Halo steal probability the partitioned run used (0 when unpartitioned).
  double steal_rate_used = 0.0;
  std::vector<double> residual_history;  ///< per synchronization, if tracked
  std::string description;   ///< human-readable method/mode summary

  [[nodiscard]] bool converged() const noexcept {
    return status == SolveStatus::kConverged;
  }
};

/// Runs AsyRGS on SPD A x = b starting from `x` (updated in place) through a
/// temporary SpdProblem, so the arithmetic is the prepared handle's.  Always
/// runs the asynchronous method: `controls.method` is ignored (under kAuto a
/// small rel_tol would otherwise resolve to flexible CG).  Requires a
/// strictly positive diagonal (iteration (3) of the paper).
///
/// Thread-safety: `a` and `b` are read-only and may be shared; `x` is
/// written concurrently by the worker team for the duration of the call —
/// do not read it from other threads until the function returns.  The pool
/// hosts one team at a time; a nested call from inside a running team
/// shrinks to a single worker instead of deadlocking.
SolveOutcome async_rgs_solve(ThreadPool& pool, const CsrMatrix& a,
                             const std::vector<double>& b,
                             std::vector<double>& x,
                             const SolveControls& controls = {});

/// Block variant: each coordinate update applies to all columns of X (the
/// paper's 51-right-hand-side experiment).  Atomicity is per scalar entry.
SolveOutcome async_rgs_solve_block(ThreadPool& pool, const CsrMatrix& a,
                                   const MultiVector& b, MultiVector& x,
                                   const SolveControls& controls = {});

}  // namespace asyrgs
