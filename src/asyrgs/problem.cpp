#include "asyrgs/problem.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/kernels.hpp"
#include "asyrgs/gen/partition.hpp"
#include "asyrgs/iter/cg.hpp"
#include "asyrgs/iter/fcg.hpp"
#include "asyrgs/iter/precond.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/sparse/properties.hpp"
#include "asyrgs/support/aligned.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

namespace detail {

StoredMatrix::StoredMatrix(const CsrMatrix& a, StoragePolicy policy)
    : full(&a) {
  if (policy == StoragePolicy::kInt32Double)
    a32 = std::make_shared<const CsrMatrix32>(
        convert_storage<std::int32_t, double>(a));
}

/// Per-handle reusable solver scratch: the packed (b, 1/diag) pairs refilled
/// each solve, plus the engine's per-worker buffers.  Lives behind a pimpl
/// so problem.hpp stays free of the unstable engine/kernel internals.
struct ProblemScratch {
  std::vector<RhsDiagPair> rhs_diag;
  EngineScratch engine;
  /// Partitioned-solve staging: the iterate in RCM order, cache-line
  /// aligned so partition-owned slices never share a line (the boundaries
  /// are cut at kPartitionAlignRows multiples), and the permuted rhs.
  aligned_vector<double> xp;
  std::vector<double> bp;
};

/// Prepare-time partition analysis for SpdProblem: the RCM analysis (order +
/// permuted operator), the reciprocals of the permuted diagonal, and the
/// permuted operator at the handle's storage policy, so partitioned solves
/// run the same storage the unpartitioned path does.  Immutable once
/// constructed; clones alias it via shared_ptr exactly like the compact
/// storage copies.
struct SpdPartitionState {
  PartitionAnalysis analysis;
  std::vector<double> inv_diag;  ///< 1/diag in permuted (RCM) order
  StoredMatrix permuted;

  SpdPartitionState(const CsrMatrix& a, StoragePolicy policy)
      : analysis(a), permuted(analysis.permuted(), policy) {
    // The symmetric permutation maps diagonal to diagonal, so the handle's
    // strict-positivity validation covers these reciprocals too.
    inv_diag = analysis.permuted().diagonal();
    for (double& d : inv_diag) d = 1.0 / d;
  }
};

}  // namespace detail

namespace {

/// Every per-call precondition of a solve, checked once at the entry point
/// with one message per violation (`who` names it).  `engine` says the
/// method runs the asynchronous engine; the Krylov methods read none of the
/// engine knobs and draw no random directions.  Paths that cannot serve
/// partitioned scheduling at all reject partitions != 0 themselves, with a
/// pointer to the supported path.
void validate_controls(const SolveControls& c, const char* who, bool engine) {
  auto fail = [&](const char* what) {
    throw Error(std::string(who) + ": " + what);
  };
  // Negated so NaN fails too; every method reads the tolerance.
  if (!(c.rel_tol >= 0.0)) fail("rel_tol must be non-negative");
  if (c.workers < 0) fail("workers must be non-negative (0 = pool capacity)");
  if (c.partitions < 0) fail("partitions must be non-negative");
  if (c.partitions == 0) {
    if (c.steal_rate != 0.0)
      fail("steal_rate requires partitioned scheduling (partitions >= 1)");
  } else {
    if (!(c.steal_rate >= 0.0 && c.steal_rate < 1.0))
      fail("steal_rate must be in [0, 1)");
    if (c.sampling != SamplingPolicy::kUniform)
      fail("partitioned scheduling draws uniformly within partitions; "
           "weighted sampling applies to the unpartitioned engine");
  }
  if (!engine) {
    if (c.sampling != SamplingPolicy::kUniform)
      fail("the Krylov methods draw no random directions; sampling policies "
           "apply to the asynchronous methods");
    return;
  }
  if (c.sweeps < 0) fail("sweeps must be non-negative");
  if (!(c.step_size > 0.0 && c.step_size < 2.0))
    fail("step size must be in (0, 2)");
}

const char* sync_name(SyncMode sync) {
  switch (sync) {
    case SyncMode::kFreeRunning:
      return "free running";
    case SyncMode::kBarrierPerSweep:
      return "barrier per sweep";
  }
  return "?";
}

/// Team size for a validated request: 0 means the pool's capacity, and no
/// request exceeds it.
int clamp_workers(int requested, const ThreadPool& pool) {
  int workers = requested > 0 ? requested : pool.size();
  if (workers > pool.size()) workers = pool.size();
  return workers;
}

/// The one storage dispatch: invokes fn on every operand at the resolved
/// policy — a handle's own matrix, the partition analysis' permuted copy,
/// or the least-squares (A, A^T) pair.
template <class Fn, class... Stored>
SolveOutcome with_storage(StoragePolicy policy, Fn&& fn,
                          const Stored&... operands) {
  switch (policy) {
    case StoragePolicy::kInt32Double:
      return fn(*operands.a32...);
    case StoragePolicy::kInt64Double:
      break;
  }
  return fn(*operands.full...);
}

/// The handle state a solve runs against.
struct PipelineEnv {
  ThreadPool& pool;
  detail::ProblemScratch& scratch;
  ProblemStats& stats;
};

/// Where a path's kWeighted direction weights come from.  A template
/// rather than a std::function member so a uniform solve makes no heap
/// allocation: one left alive during a run measurably slowed 4-worker
/// barrier solves, by moving the engine's heap-allocated team closure,
/// which every worker reads on every update.
template <class Fixed>
struct WeightSource {
  /// The handle's lazily built kWeighted sampler, filled from `fixed()` on
  /// the first weighted solve and reused by every later one.  Null for
  /// paths that draw uniformly only.
  std::optional<DirectionSampler>* cache;
  Fixed fixed;
};

/// Stand-in for the weight callable of a uniform-only path: validation
/// rejects kWeighted there before the pipeline runs.
constexpr auto kNoWeights = [] { return std::vector<double>(); };

/// What a path reports that the pipeline cannot derive itself.
struct PathFacts {
  const char* name;       ///< description head, e.g. "AsyRGS block"
  index_t directions;     ///< engine n: rows, columns, or permuted rows
  StoragePolicy storage;  ///< policy of the matrix the kernels read
  /// Association the kernels execute: only block solves with k <= 4 run
  /// the reassociated scan; every other path runs pinned.
  ScanMode scan = ScanMode::kPinned;
  int rhs = 0;            ///< block width (0: single right-hand side)
  int partitions = 0;     ///< partitions used (0: unpartitioned)
  double steal_rate = 0.0;
};

/// Description tail of a run that was asked for the reassociated scan but
/// ran the pinned one.
constexpr const char* kPinnedScanNote =
    "; reassociated scan requested, pinned scan run (only blocks of at most "
    "4 right-hand sides reassociate)";

/// The description of a finished run, e.g. "AsyRGS block, 4 threads, 8
/// rhs, barrier per sweep; ..., int32_double storage".
std::string describe(const PathFacts& path, const SolveControls& controls,
                     int workers) {
  std::string d = std::string(path.name) + ", " + std::to_string(workers) +
                  " threads, ";
  if (path.rhs > 0) d += std::to_string(path.rhs) + " rhs, ";
  d += sync_name(controls.sync);
  if (controls.sampling == SamplingPolicy::kWeighted)
    d += ", weighted sampling";
  if (path.partitions > 0) {
    std::string steal = std::to_string(path.steal_rate);
    // Trim to the informative digits (to_string pads to 6 decimals).
    while (steal.size() > 1 && steal.back() == '0') steal.pop_back();
    if (!steal.empty() && steal.back() == '.') steal.pop_back();
    d += ", " + std::to_string(path.partitions) + " partitions (RCM, steal " +
         steal + ")";
  }
  if (controls.scan != path.scan) d += kPinnedScanNote;
  if (path.storage != StoragePolicy::kInt64Double)
    d += std::string(", ") + to_string(path.storage) + " storage";
  return d;
}

template <class Matrix>
constexpr StoragePolicy storage_of(const Matrix&) {
  return Matrix::kStorage;
}

/// The one asynchronous solve pipeline behind every handle path.  A caller
/// supplies what differs between paths: its facts, its weight source, its
/// residual functor (`make_residual(workers)`), its kernel launcher
/// (`launch.operator()<kAtomic>(workers, run)` hands `run` the update
/// functor) and its plan factory.  The pipeline owns the rest: the
/// team size, sampler setup, timing, status mapping, description and
/// outcome fields.  The controls were validated at the entry point.
template <class Fixed, class MakeResidual, class Launch, class MakePlan>
SolveOutcome run_pipeline(const PipelineEnv& env,
                          const SolveControls& controls,
                          const PathFacts& path,
                          const WeightSource<Fixed>& weights,
                          MakeResidual&& make_residual, Launch&& launch,
                          MakePlan&& make_plan) {
  const index_t n = path.directions;
  const int workers = clamp_workers(controls.workers, env.pool);
  auto residual = make_residual(workers);

  const DirectionSampler* sampler = nullptr;
  if (controls.sampling == SamplingPolicy::kWeighted) {
    std::optional<DirectionSampler>& cached = *weights.cache;
    if (!cached) {
      // Weights from the bound full-width matrix, so the distribution is
      // independent of the storage policy the kernels run against.
      const std::vector<double>& w = weights.fixed();
      cached.emplace(DirectionSampler::weighted(w.data(), n));
      ++env.stats.sampler_builds;
    }
    sampler = &*cached;
  }

  SolveOutcome out;
  // Free-running runs never evaluate residuals, so for them an unmet
  // rel_tol is a completed budget; the engine upgrades either status to
  // kConverged when the tolerance is met.
  out.status = controls.rel_tol > 0.0 && controls.sync != SyncMode::kFreeRunning
                   ? SolveStatus::kToleranceNotReached
                   : SolveStatus::kBudgetCompleted;
  WallTimer timer;
  const auto run = [&](const auto& update) {
    detail::run_engine(env.pool, controls, n, workers, make_plan, sampler,
                       update, residual, out, &env.scratch.engine);
  };
  if (controls.atomic_writes)
    launch.template operator()<true>(workers, run);
  else
    launch.template operator()<false>(workers, run);
  out.seconds = timer.seconds();

  out.workers = workers;
  out.scan_requested = controls.scan;
  out.scan_executed = path.scan;
  out.storage_used = path.storage;
  out.sampling_used = controls.sampling;
  out.partitions_used = path.partitions;
  out.steal_rate_used = path.steal_rate;
  out.description = describe(path, controls, workers);
  return out;
}

/// Kernel launcher of the single-RHS AsyRGS update, shared by the
/// unpartitioned and partitioned paths (which differ only in the operator,
/// the packed rhs and the iterate they hand it).
template <class Matrix>
auto single_rhs_launcher(const Matrix& a, const detail::RhsDiagPair* rhs_diag,
                         double* x, double beta) {
  return [&a, rhs_diag, x, beta]<bool kAtomic>(int, auto&& run) {
    run(detail::SingleRhsUpdate<kAtomic, typename Matrix::index_type,
                                typename Matrix::value_type>{
        a.row_ptr().data(), a.col_idx().data(), a.values().data(), rhs_diag,
        x, beta});
  };
}

}  // namespace

const char* to_string(StorageMode mode) noexcept {
  switch (mode) {
    case StorageMode::kAuto:
      return "auto";
    case StorageMode::kInt64Double:
      return "int64_double";
    case StorageMode::kInt32Double:
      return "int32_double";
  }
  return "?";
}

StoragePolicy resolve_storage_policy(StorageMode mode, index_t max_index,
                                     nnz_t nnz, bool* fell_back) noexcept {
  if (fell_back != nullptr) *fell_back = false;
  // Both guards must pass: the index width for the coordinates, and the
  // (conservative — see the header) int32 bound on the nonzero count.
  const bool fits =
      index_width_fits<std::int32_t>(max_index) &&
      nnz <= static_cast<nnz_t>(std::numeric_limits<std::int32_t>::max());
  switch (mode) {
    case StorageMode::kInt64Double:
      return StoragePolicy::kInt64Double;
    case StorageMode::kAuto:
      // Narrowing the indices is free of arithmetic consequences
      // (pinned-scan results stay bit-identical), so auto always takes the
      // bandwidth win when the shape allows it.
      return fits ? StoragePolicy::kInt32Double : StoragePolicy::kInt64Double;
    case StorageMode::kInt32Double:
      if (fits) return StoragePolicy::kInt32Double;
      break;
  }
  // Explicit narrow request on a shape the index width cannot address:
  // serve full width rather than failing — the caller asked for a
  // performance policy, not a shape constraint.  Surfaced via *fell_back /
  // ProblemStats::storage_fallbacks.
  if (fell_back != nullptr) *fell_back = true;
  return StoragePolicy::kInt64Double;
}

// --- SpdProblem --------------------------------------------------------------

SpdProblem::SpdProblem(ThreadPool& pool, const CsrMatrix& a, bool check_input,
                       StorageMode storage)
    : pool_(pool),
      a_(a),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  require(a.square(), "SpdProblem: matrix must be square");
  inv_diag_ = a.diagonal();
  for (double& d : inv_diag_) {
    require(d > 0.0, "SpdProblem: diagonal must be strictly positive "
                     "(matrix cannot be SPD)");
    d = 1.0 / d;
  }
  ++stats_.validation_passes;
  if (check_input) {
    // Symmetry check through the matrix's shared transpose cache: the
    // transpose this builds is reused by later handles (and by any
    // least-squares use of the same matrix) instead of being rebuilt.
    bool built_now = false;
    const std::shared_ptr<const CsrMatrix> at = a.transpose_shared(&built_now);
    if (built_now) ++stats_.transpose_builds;
    require(a.equals(*at, 1e-12 * inf_norm(a)),
            "SpdProblem: matrix is not symmetric");
  }
  // Narrowing happens last, after validation passed, so a rejected matrix
  // never pays the compact copy.  Reciprocals above were taken from the
  // full-width diagonal — the narrow kernels read the matrix values narrow
  // but the update constants at full precision.
  bool fell_back = false;
  storage_ = resolve_storage_policy(storage, a.cols(), a.nnz(), &fell_back);
  if (fell_back) ++stats_.storage_fallbacks;
  stored_ = detail::StoredMatrix(a, storage_);
  stats_.storage = storage_;
}

SpdProblem::SpdProblem(ThreadPool& pool, const SpdProblem& other)
    : pool_(pool),
      a_(other.a_),
      stored_(other.stored_),
      storage_(other.storage_),
      inv_diag_(other.inv_diag_),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  // The compact copy is aliased, not rebuilt — the shard-clone contract
  // (analysis once per service) extends to the narrowing pass.
  stats_.storage = storage_;
  stats_.storage_fallbacks = other.stats_.storage_fallbacks;
  // The partition analysis is built lazily, so unlike the members above it
  // must be read under the prototype's lock (cloning stays safe concurrently
  // with solves on `other`).  The clone aliases the analysis and reports
  // zero partition_builds, like transpose_builds.
  const std::scoped_lock lock(other.mutex_);
  partition_ = other.partition_;
}

SpdProblem::~SpdProblem() = default;

const detail::SpdPartitionState& SpdProblem::partition_state() {
  if (!partition_) {
    partition_ =
        std::make_shared<const detail::SpdPartitionState>(a_, storage_);
    ++stats_.partition_builds;
  }
  return *partition_;
}

void SpdProblem::prepare_partitions() {
  const std::scoped_lock lock(mutex_);
  partition_state();
}

ProblemStats SpdProblem::stats() const {
  const std::scoped_lock lock(mutex_);
  ProblemStats s = stats_;
  s.scratch_allocations = scratch_->engine.allocations();
  return s;
}

SolveOutcome SpdProblem::solve(const std::vector<double>& b,
                               std::vector<double>& x,
                               const SolveControls& controls) {
  const std::scoped_lock lock(mutex_);
  require(static_cast<index_t>(b.size()) == a_.rows() && x.size() == b.size(),
          "SpdProblem::solve: shape mismatch");
  SpdMethod method = controls.method;
  require(method != SpdMethod::kAsyncKaczmarz,
          "SpdProblem::solve: the Kaczmarz row-action method is served by "
          "LsqProblem (it needs no symmetry and covers rectangular and "
          "inconsistent systems)");
  if (method == SpdMethod::kAuto) {
    // The solve_spd guidance: basic asynchronous iterations in the
    // low-accuracy regime, AsyRGS-preconditioned flexible CG when high
    // accuracy is sought.
    method = (controls.rel_tol <= 0.0 || controls.rel_tol >= 1e-4)
                 ? SpdMethod::kAsyncRgs
                 : SpdMethod::kFcgAsyRgs;
  }
  validate_controls(controls, "SpdProblem::solve",
                    /*engine=*/method == SpdMethod::kAsyncRgs);
  if (controls.partitions != 0)
    require(method == SpdMethod::kAsyncRgs,
            "SpdProblem::solve: partitioned scheduling applies to the "
            "asynchronous method only (the method must resolve to "
            "kAsyncRgs)");
  SolveOutcome out =
      method != SpdMethod::kAsyncRgs ? solve_krylov(b, x, controls, method)
      : controls.partitions != 0     ? solve_partitioned(b, x, controls)
                                     : solve_async(b, x, controls);
  out.method_used = method;
  ++stats_.solves;
  return out;
}

SolveOutcome SpdProblem::solve_async(const std::vector<double>& b,
                                     std::vector<double>& x,
                                     const SolveControls& controls) {
  detail::pack_rhs_diag(b, inv_diag_, scratch_->rhs_diag);
  return with_storage(
      storage_,
      [&](const auto& a) {
        return run_pipeline(
            PipelineEnv{pool_, *scratch_, stats_}, controls,
            {.name = "AsyRGS",
             .directions = a.rows(),
             .storage = storage_of(a)},
            WeightSource{&weighted_sampler_,
                         [this] { return detail::row_sq_norms(a_); }},
            [&](int workers) {
              return detail::SingleRhsResidual(
                  a, b, x.data(), workers, scratch_->engine.reduce(workers));
            },
            single_rhs_launcher(a, scratch_->rhs_diag.data(), x.data(),
                                controls.step_size),
            detail::direction_plans(controls.seed, a.rows()));
      },
      stored_);
}

SolveOutcome SpdProblem::solve_partitioned(const std::vector<double>& b,
                                           std::vector<double>& x,
                                           const SolveControls& controls) {
  const detail::SpdPartitionState& st = partition_state();
  // The cut is partition-count-keyed and cached on the analysis; the clamp
  // to [1, n] happens inside and is surfaced via partitions_used.
  const std::shared_ptr<const GraphPartition> cut =
      st.analysis.cut(controls.partitions);

  // Permute the problem into RCM space: xp[i] = x[perm[i]], bp likewise.
  // The engine then runs entirely on the permuted operator, with the
  // iterate in cache-line-aligned storage and partition boundaries cut at
  // line multiples — cross-worker sharing of an iterate line happens only
  // on deliberate halo steals.
  const std::vector<index_t>& perm = st.analysis.perm();
  aligned_vector<double>& xp = scratch_->xp;
  std::vector<double>& bp = scratch_->bp;
  xp.resize(b.size());
  bp.resize(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    const std::size_t o = static_cast<std::size_t>(perm[i]);
    xp[i] = x[o];
    bp[i] = b[o];
  }
  detail::pack_rhs_diag(bp, st.inv_diag, scratch_->rhs_diag);

  SolveOutcome out = with_storage(
      storage_,
      [&](const auto& a) {
        return run_pipeline(
            PipelineEnv{pool_, *scratch_, stats_}, controls,
            {.name = "AsyRGS",
             .directions = a.rows(),
             .storage = storage_of(a),
             .partitions = cut->count(),
             .steal_rate = controls.steal_rate},
            WeightSource{nullptr, kNoWeights},
            // The residual norm is permutation-invariant, so evaluating it
            // on the permuted system reports exactly the metric the
            // unpartitioned path would.
            [&](int workers) {
              return detail::SingleRhsResidual(
                  a, bp, xp.data(), workers, scratch_->engine.reduce(workers));
            },
            single_rhs_launcher(a, scratch_->rhs_diag.data(), xp.data(),
                                controls.step_size),
            [&](int team, const DirectionSampler*) {
              return detail::PartitionedDirectionPlan(
                  controls.seed, *cut, controls.steal_rate, team);
            });
      },
      st.permuted);

  for (std::size_t i = 0; i < b.size(); ++i)
    x[static_cast<std::size_t>(perm[i])] = xp[i];
  return out;
}

SolveOutcome SpdProblem::solve_krylov(const std::vector<double>& b,
                                      std::vector<double>& x,
                                      const SolveControls& controls,
                                      SpdMethod method) {
  const int workers = clamp_workers(controls.workers, pool_);
  const int max_iterations =
      controls.max_iterations > 0 ? controls.max_iterations : 10000;
  const double rel_tol = controls.rel_tol > 0.0 ? controls.rel_tol : 1e-8;

  SolveOutcome out;
  out.workers = workers;
  out.scan_requested = controls.scan;
  WallTimer timer;
  if (method == SpdMethod::kFcgAsyRgs) {
    // The preconditioner borrows this prepared handle, so every outer
    // iteration's inner sweeps reuse the cached reciprocals and scratch.
    AsyRgsPreconditioner precond(*this, controls.inner_sweeps, workers,
                                 /*step_size=*/1.0, controls.seed,
                                 controls.atomic_writes);
    FcgOptions fo;
    fo.base.max_iterations = max_iterations;
    fo.base.rel_tol = rel_tol;
    fo.base.track_history = controls.track_history;
    const FcgReport rep = fcg_solve(pool_, a_, b, x, precond, fo, workers);
    out.status = rep.base.converged ? SolveStatus::kConverged
                                    : SolveStatus::kToleranceNotReached;
    out.iterations = rep.base.iterations;
    out.relative_residual = rep.base.final_relative_residual;
    out.residual_history = rep.base.residual_history;
    out.description = "flexible CG + " + precond.name();
  } else {
    SolveOptions so;
    so.max_iterations = max_iterations;
    so.rel_tol = rel_tol;
    so.track_history = controls.track_history;
    const SolveReport rep =
        cg_solve(pool_, a_, b, x, so, nullptr, controls.workers);
    out.status = rep.converged ? SolveStatus::kConverged
                               : SolveStatus::kToleranceNotReached;
    out.iterations = rep.iterations;
    out.relative_residual = rep.final_relative_residual;
    out.residual_history = rep.residual_history;
    out.description = "conjugate gradients";
  }
  if (controls.scan != ScanMode::kPinned) out.description += kPinnedScanNote;
  out.seconds = timer.seconds();
  return out;
}

SolveOutcome SpdProblem::solve(const MultiVector& b, MultiVector& x,
                               const SolveControls& controls) {
  const std::scoped_lock lock(mutex_);
  require(b.rows() == a_.rows() && x.rows() == a_.rows() &&
              b.cols() == x.cols(),
          "SpdProblem::solve(block): shape mismatch");
  require(controls.method == SpdMethod::kAuto ||
              controls.method == SpdMethod::kAsyncRgs,
          "SpdProblem::solve(block): only the asynchronous method supports "
          "block right-hand sides");
  validate_controls(controls, "SpdProblem::solve(block)", /*engine=*/true);
  require(controls.partitions == 0,
          "SpdProblem::solve(block): partitioned scheduling is "
          "single-right-hand-side only");
  const index_t k = b.cols();
  const double beta = controls.step_size;
  // At k <= 4 the whole gamma state fits in registers, so the reassociated
  // request is honoured by the small-K kernel; wider blocks keep the pinned
  // column-parallel kernel (and the pipeline surfaces the downgrade).
  const ScanMode scan = k <= 4 ? controls.scan : ScanMode::kPinned;

  SolveOutcome out = with_storage(
      storage_,
      [&](const auto& a) {
        using Matrix = std::decay_t<decltype(a)>;
        using Index = typename Matrix::index_type;
        using Value = typename Matrix::value_type;
        auto launch = [&]<bool kAtomic>(int workers, auto&& run) {
          if (scan == ScanMode::kReassociated) {
            switch (k) {
              case 1:
                run(detail::BlockRhsUpdateSmallK<kAtomic, 1, Index, Value>{
                    &a, &b, &x, inv_diag_.data(), beta});
                break;
              case 2:
                run(detail::BlockRhsUpdateSmallK<kAtomic, 2, Index, Value>{
                    &a, &b, &x, inv_diag_.data(), beta});
                break;
              case 3:
                run(detail::BlockRhsUpdateSmallK<kAtomic, 3, Index, Value>{
                    &a, &b, &x, inv_diag_.data(), beta});
                break;
              default:
                run(detail::BlockRhsUpdateSmallK<kAtomic, 4, Index, Value>{
                    &a, &b, &x, inv_diag_.data(), beta});
                break;
            }
          } else {
            // Per-worker gamma scratch in one aligned slab, strided to
            // whole cache lines with a guard line between workers: adjacent
            // heap allocations here would false-share and destroy
            // block-solve scaling.
            const std::size_t doubles_per_line =
                kCacheLineBytes / sizeof(double);
            const std::size_t stride =
                ((static_cast<std::size_t>(k) + doubles_per_line - 1) /
                 doubles_per_line) *
                    doubles_per_line +
                doubles_per_line;
            double* const gamma = scratch_->engine.slab(workers, stride);
            run(detail::BlockRhsUpdate<kAtomic, Index, Value>{
                &a, &b, &x, inv_diag_.data(), beta, gamma, stride});
          }
        };
        return run_pipeline(
            PipelineEnv{pool_, *scratch_, stats_}, controls,
            {.name = "AsyRGS block",
             .directions = a.rows(),
             .storage = storage_of(a),
             .scan = scan,
             .rhs = static_cast<int>(k)},
            WeightSource{&weighted_sampler_,
                         [this] { return detail::row_sq_norms(a_); }},
            [&](int workers) {
              return detail::BlockRhsResidual(
                  a, b, x, workers, scratch_->engine.reduce(workers));
            },
            launch, detail::direction_plans(controls.seed, a.rows()));
      },
      stored_);
  out.method_used = SpdMethod::kAsyncRgs;
  ++stats_.solves;
  return out;
}

// --- LsqProblem --------------------------------------------------------------

LsqProblem::LsqProblem(ThreadPool& pool, const CsrMatrix& a,
                       StorageMode storage)
    : pool_(pool),
      a_(a),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  bool built_now = false;
  at_holder_ = a.transpose_shared(&built_now);
  at_ = at_holder_.get();
  if (built_now) ++stats_.transpose_builds;
  prepare(storage);
}

LsqProblem::LsqProblem(ThreadPool& pool, const CsrMatrix& a,
                       const CsrMatrix& at, StorageMode storage)
    : pool_(pool),
      a_(a),
      at_(&at),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  require(at.rows() == a.cols() && at.cols() == a.rows(),
          "LsqProblem: `at` must be the transpose of `a`");
  prepare(storage);
}

void LsqProblem::prepare(StorageMode storage) {
  col_sq_ = detail::column_sq_norms(*at_);
  for (double s : col_sq_)
    require(s > 0.0, "LsqProblem: zero column (A must have full rank)");
  // Kaczmarz prepare-time analysis: squared row norms double as the
  // Strohmer-Vershynin sampling weights and (reciprocated) as the row
  // projection denominators.  Zero rows are legal — their weight is 0 and
  // their inverse is 0, so the row is never preferred and its update no-ops.
  row_sq_ = detail::row_sq_norms(a_);
  inv_row_sq_.resize(row_sq_.size());
  for (std::size_t i = 0; i < row_sq_.size(); ++i)
    inv_row_sq_[i] = row_sq_[i] > 0.0 ? 1.0 / row_sq_[i] : 0.0;
  ++stats_.validation_passes;
  // A^T's column indices are row indices of A, so narrowing must fit the
  // larger of the two dimensions.
  bool fell_back = false;
  storage_ = resolve_storage_policy(storage, std::max(a_.rows(), a_.cols()),
                                    a_.nnz(), &fell_back);
  if (fell_back) ++stats_.storage_fallbacks;
  stored_a_ = detail::StoredMatrix(a_, storage_);
  stored_at_ = detail::StoredMatrix(*at_, storage_);
  stats_.storage = storage_;
}

LsqProblem::LsqProblem(ThreadPool& pool, const LsqProblem& other)
    : pool_(pool),
      a_(other.a_),
      at_holder_(other.at_holder_),
      at_(other.at_),
      stored_a_(other.stored_a_),
      stored_at_(other.stored_at_),
      storage_(other.storage_),
      col_sq_(other.col_sq_),
      row_sq_(other.row_sq_),
      inv_row_sq_(other.inv_row_sq_),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  stats_.storage = storage_;
  stats_.storage_fallbacks = other.stats_.storage_fallbacks;
}

LsqProblem::~LsqProblem() = default;

ProblemStats LsqProblem::stats() const {
  const std::scoped_lock lock(mutex_);
  ProblemStats s = stats_;
  s.scratch_allocations = scratch_->engine.allocations();
  return s;
}

SolveOutcome LsqProblem::solve(const std::vector<double>& b,
                               std::vector<double>& x,
                               const SolveControls& controls) {
  const std::scoped_lock lock(mutex_);
  require(static_cast<index_t>(b.size()) == a_.rows() &&
              static_cast<index_t>(x.size()) == a_.cols(),
          "LsqProblem::solve: shape mismatch");
  require(controls.method == SpdMethod::kAuto ||
              controls.method == SpdMethod::kAsyncRgs ||
              controls.method == SpdMethod::kAsyncKaczmarz,
          "LsqProblem::solve: least squares is served by the asynchronous "
          "methods (kAsyncRgs coordinate descent or kAsyncKaczmarz row "
          "action)");
  const bool kaczmarz = controls.method == SpdMethod::kAsyncKaczmarz;
  validate_controls(controls,
                    kaczmarz ? "LsqProblem::solve(kaczmarz)"
                             : "LsqProblem::solve",
                    /*engine=*/true);
  require(controls.partitions == 0,
          "LsqProblem::solve: partitioned scheduling is served by "
          "SpdProblem (it partitions a symmetric operator's graph)");
  const double beta = controls.step_size;

  SolveOutcome out = with_storage(
      storage_,
      [&](const auto& a, const auto& at) {
        using Matrix = std::decay_t<decltype(a)>;
        using Index = typename Matrix::index_type;
        using Value = typename Matrix::value_type;
        const PipelineEnv env{pool_, *scratch_, stats_};
        // Both methods report the normal-equations metric, so their
        // outcomes are directly comparable (and inconsistent systems —
        // where ||b - Ax|| cannot reach zero — still report a meaningful
        // residual).
        const auto residual = [&](int workers) {
          const bool check = controls.track_history || controls.rel_tol > 0.0;
          double* const r =
              check ? scratch_->engine.dense(static_cast<std::size_t>(a.rows()))
                    : nullptr;
          return detail::LsqResidual(a, at, b, x.data(), workers,
                                     scratch_->engine.reduce(workers), r,
                                     check);
        };
        if (kaczmarz) {
          // Directions are the ROWS of A (one sweep = m row projections),
          // weighted by the Strohmer-Vershynin p_i ∝ ||A_i||^2.
          return run_pipeline(
              env, controls,
              {.name = "AsyKaczmarz least squares",
               .directions = a.rows(),
               .storage = storage_of(a)},
              WeightSource{&weighted_rows_,
                           [this]() -> const std::vector<double>& {
                             return row_sq_;
                           }},
              residual,
              [&]<bool kAtomic>(int, auto&& run) {
                run(detail::KaczmarzUpdate<kAtomic, Index, Value>{
                    a.row_ptr().data(), a.col_idx().data(), a.values().data(),
                    b.data(), inv_row_sq_.data(), x.data(), beta});
              },
              detail::direction_plans(controls.seed, a.rows()));
        }
        // Coordinate descent: directions are the columns of A.
        return run_pipeline(
            env, controls,
            {.name = "AsyRCD least squares",
             .directions = a.cols(),
             .storage = storage_of(a)},
            WeightSource{&weighted_cols_,
                         [this]() -> const std::vector<double>& {
                           return col_sq_;
                         }},
            residual,
            [&]<bool kAtomic>(int, auto&& run) {
              run(detail::LsqUpdate<kAtomic, Index, Value>{
                  &a, &at, b.data(), col_sq_.data(), x.data(), beta});
            },
            detail::direction_plans(controls.seed, a.cols()));
      },
      stored_a_, stored_at_);
  out.method_used =
      kaczmarz ? SpdMethod::kAsyncKaczmarz : SpdMethod::kAsyncRgs;
  ++stats_.solves;
  return out;
}

}  // namespace asyrgs
