// Prepared-solver handle suite (PR 4): SpdProblem / LsqProblem pay matrix
// analysis once and solve many times, with results bit-identical to the
// one-shot free functions under the pinned scan at equal seed.
//
//  (a) Handle solves equal the free functions bit for bit: at 1 worker for
//      every sync mode, and at 1/2/4 workers for every sync mode under
//      partitioned scheduling at steal rate 0 on a block-diagonal matrix
//      with one partition per block (no cross-partition reads -> every
//      interleaving produces the same iterate, so multi-worker runs are
//      deterministic).
//  (b) Preparation is amortized: symmetry/diagonal/rank validation runs
//      once per problem (not per solve), the LSQ transpose is built once
//      and shared through the CsrMatrix cache, and a repeat solve performs
//      no new scratch allocations.
//  (c) The unified SolveOutcome: status semantics, tolerance validation on
//      every method, the pinned-scan downgrade of every path but small
//      blocks surfaced in scan_executed and the description, and the
//      thread-safety contract (concurrent solve() on distinct x).
//  (d) Outcome pinning: every deterministic SolveOutcome field of every
//      asynchronous solve path, under every storage, sync and scan mode.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "asyrgs/core/async_lsq.hpp"
#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/iter/precond.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/solve.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/support/prng.hpp"
#include "owned_blocks.hpp"

namespace asyrgs {
namespace {

using test::block_diag_tridiagonal;

/// Tall full-column-rank matrix for the least-squares handle tests.
CsrMatrix tall_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  CooBuilder builder(rows, cols);
  Xoshiro256 rng(seed);
  for (index_t j = 0; j < cols; ++j)
    builder.add(j, j, 2.0 + 0.01 * static_cast<double>(j));
  for (index_t i = cols; i < rows; ++i) {
    const index_t j = uniform_index(rng, cols);
    builder.add(i, j, normal(rng));
  }
  return builder.to_csr();
}

// --- (a) bit-identity with the free functions --------------------------------

TEST(PreparedSpd, SecondSolveBitIdenticalToFreeFunctionOneWorker) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 3);

  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
    SolveControls opt;
    opt.sweeps = 25;
    opt.seed = 17;
    opt.workers = 1;
    opt.sync = sync;

    std::vector<double> x_free(a.rows(), 0.0);
    async_rgs_solve(pool, a, b, x_free, opt);

    SpdProblem problem(pool, a);
    std::vector<double> x1(a.rows(), 0.0);
    std::vector<double> x2(a.rows(), 0.0);
    const SolveOutcome out1 = problem.solve(b, x1, opt);
    const SolveOutcome out2 = problem.solve(b, x2, opt);
    EXPECT_EQ(x_free, x1) << "sync=" << static_cast<int>(sync);
    EXPECT_EQ(x_free, x2) << "sync=" << static_cast<int>(sync);
    EXPECT_EQ(out1.method_used, SpdMethod::kAsyncRgs);
    EXPECT_EQ(out2.workers, 1);
  }
}

TEST(PreparedSpd, OwnedPartitionsBitIdenticalAcrossWorkersAndSyncModes) {
  // Block-diagonal + one partition per block at steal rate 0
  // (tests/owned_blocks.hpp): no worker reads another's coordinates, so
  // multi-worker runs are fully deterministic and the handle/free-function
  // comparison is exact even on a racy shared iterate.
  ThreadPool pool(4);
  const CsrMatrix a = block_diag_tridiagonal(/*blocks=*/4);
  test::expect_owned_only_cut(a, 4);
  const std::vector<double> b = random_vector(a.rows(), 5);

  SpdProblem problem(pool, a);
  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
    for (int workers : {1, 2, 4}) {
      SolveControls opt = test::owned_block_controls(4);
      opt.sweeps = 30;
      opt.seed = 23;
      opt.workers = workers;
      opt.sync = sync;

      std::vector<double> x_free(a.rows(), 0.0);
      async_rgs_solve(pool, a, b, x_free, opt);

      std::vector<double> x1(a.rows(), 0.0);
      std::vector<double> x2(a.rows(), 0.0);
      problem.solve(b, x1, opt);
      problem.solve(b, x2, opt);
      EXPECT_EQ(x_free, x1)
          << "sync=" << static_cast<int>(sync) << " workers=" << workers;
      EXPECT_EQ(x_free, x2)
          << "sync=" << static_cast<int>(sync) << " workers=" << workers;
    }
  }
}

TEST(PreparedSpd, SolveSpdWrapperMatchesHandle) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> x_star = random_vector(a.rows(), 7);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  SpdSolveOptions sopt;
  sopt.method = SpdMethod::kAsyncRgs;
  sopt.rel_tol = 1e-8;
  sopt.threads = 1;
  sopt.max_iterations = 4000;
  std::vector<double> x_wrapper(a.rows(), 0.0);
  const SpdSolveSummary summary = solve_spd(pool, a, b, x_wrapper, sopt);

  SpdProblem problem(pool, a);
  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 4000;
  controls.rel_tol = 1e-8;
  controls.workers = 1;
  controls.sync = SyncMode::kBarrierPerSweep;
  std::vector<double> x_handle(a.rows(), 0.0);
  const SolveOutcome out = problem.solve(b, x_handle, controls);

  EXPECT_EQ(x_wrapper, x_handle);
  EXPECT_EQ(summary.converged, out.converged());
  EXPECT_EQ(summary.status, out.status);
  EXPECT_EQ(summary.iterations, out.iterations);
}

TEST(PreparedLsq, SecondSolveBitIdenticalToFreeFunction) {
  ThreadPool pool(2);
  const CsrMatrix a = tall_matrix(160, 50, 11);
  const std::vector<double> b = random_vector(a.rows(), 13);

  SolveControls opt;
  opt.sweeps = 20;
  opt.seed = 31;
  opt.workers = 1;
  opt.step_size = 0.9;

  std::vector<double> x_free(static_cast<std::size_t>(a.cols()), 0.0);
  async_lsq_solve(pool, a, b, x_free, opt);

  LsqProblem problem(pool, a);
  std::vector<double> x1(static_cast<std::size_t>(a.cols()), 0.0);
  std::vector<double> x2(static_cast<std::size_t>(a.cols()), 0.0);
  problem.solve(b, x1, opt);
  problem.solve(b, x2, opt);
  EXPECT_EQ(x_free, x1);
  EXPECT_EQ(x_free, x2);
}

// --- (b) analysis amortization -----------------------------------------------

TEST(PreparedSpd, ValidationRunsOncePerProblemNotPerSolve) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(7, 7);
  const std::vector<double> b = random_vector(a.rows(), 2);

  SpdProblem problem(pool, a, /*check_input=*/true);
  EXPECT_EQ(problem.stats().validation_passes, 1);

  SolveControls opt;
  opt.sweeps = 5;
  opt.workers = 1;
  std::vector<double> x(a.rows(), 0.0);
  problem.solve(b, x, opt);
  problem.solve(b, x, opt);
  const ProblemStats stats = problem.stats();
  EXPECT_EQ(stats.validation_passes, 1);  // not re-run per solve
  EXPECT_EQ(stats.solves, 2);
}

TEST(PreparedSpd, RepeatSolvePerformsNoNewScratchAllocations) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b = random_vector(a.rows(), 4);

  SpdProblem problem(pool, a);
  SolveControls opt;
  opt.sweeps = 8;
  opt.workers = 2;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.track_history = true;
  std::vector<double> x(a.rows(), 0.0);
  problem.solve(b, x, opt);
  const long long after_first = problem.stats().scratch_allocations;
  EXPECT_GT(after_first, 0);
  problem.solve(b, x, opt);
  problem.solve(b, x, opt);
  EXPECT_EQ(problem.stats().scratch_allocations, after_first);
}

TEST(PreparedLsq, TransposeBuiltOncePerMatrix) {
  ThreadPool pool(2);
  const CsrMatrix a = tall_matrix(120, 40, 19);
  EXPECT_FALSE(a.transpose_cached());

  LsqProblem first(pool, a);
  EXPECT_TRUE(a.transpose_cached());
  EXPECT_EQ(first.stats().transpose_builds, 1);

  // A second handle against the same matrix shares the cached transpose.
  LsqProblem second(pool, a);
  EXPECT_EQ(second.stats().transpose_builds, 0);
  EXPECT_EQ(&first.transpose(), &second.transpose());

  // Repeat solves build nothing further.
  const std::vector<double> b = random_vector(a.rows(), 21);
  std::vector<double> x(static_cast<std::size_t>(a.cols()), 0.0);
  SolveControls opt;
  opt.sweeps = 5;
  opt.workers = 1;
  opt.step_size = 0.9;
  first.solve(b, x, opt);
  first.solve(b, x, opt);
  EXPECT_EQ(first.stats().transpose_builds, 1);
}

TEST(PreparedLsq, ConvenienceOverloadUsesSharedTransposeCache) {
  // The async_lsq_solve overload that materializes A^T internally now goes
  // through the matrix's cache: repeated calls build the transpose once.
  ThreadPool pool(2);
  const CsrMatrix a = tall_matrix(120, 40, 23);
  const std::vector<double> b = random_vector(a.rows(), 8);
  SolveControls opt;
  opt.sweeps = 5;
  opt.workers = 1;
  opt.step_size = 0.9;

  EXPECT_FALSE(a.transpose_cached());
  std::vector<double> x1(static_cast<std::size_t>(a.cols()), 0.0);
  async_lsq_solve(pool, a, b, x1, opt);
  EXPECT_TRUE(a.transpose_cached());
  const CsrMatrix* cached = a.transpose_shared().get();

  std::vector<double> x2(static_cast<std::size_t>(a.cols()), 0.0);
  async_lsq_solve(pool, a, b, x2, opt);
  EXPECT_EQ(a.transpose_shared().get(), cached);  // same instance, not rebuilt
  EXPECT_EQ(x1, x2);
}

// --- (c) unified outcome and contracts ---------------------------------------

TEST(SolveOutcomeStatus, ConvergedToleranceMissedAndBudgetCompleted) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(6, 6);
  const std::vector<double> x_star = random_vector(a.rows(), 9);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  SpdProblem problem(pool, a);

  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.workers = 1;

  // Loose tolerance under a synchronizing mode: converged.
  controls.sweeps = 5000;
  controls.rel_tol = 1e-3;
  controls.sync = SyncMode::kBarrierPerSweep;
  std::vector<double> x(a.rows(), 0.0);
  SolveOutcome out = problem.solve(b, x, controls);
  EXPECT_EQ(out.status, SolveStatus::kConverged);
  EXPECT_TRUE(out.converged());
  EXPECT_EQ(std::string(to_string(out.status)), "converged");

  // Unreachable tolerance with a tiny budget: tolerance not reached.
  controls.sweeps = 2;
  controls.rel_tol = 1e-14;
  std::fill(x.begin(), x.end(), 0.0);
  out = problem.solve(b, x, controls);
  EXPECT_EQ(out.status, SolveStatus::kToleranceNotReached);
  EXPECT_FALSE(out.converged());

  // Free-running runs never evaluate residuals: a fixed budget completes.
  controls.sweeps = 3;
  controls.rel_tol = 0.0;
  controls.sync = SyncMode::kFreeRunning;
  std::fill(x.begin(), x.end(), 0.0);
  out = problem.solve(b, x, controls);
  EXPECT_EQ(out.status, SolveStatus::kBudgetCompleted);
  EXPECT_EQ(std::string(to_string(out.status)), "budget-completed");
}

TEST(SolveOutcomeStatus, DivergingBarrierSolveStopsAtFirstNonFiniteResidual) {
  // [[1, 2], [2, 1]] is symmetric with a positive diagonal but indefinite
  // (eigenvalues 3 and -1): each switch between the two rows doubles the
  // error, so the iterate overflows within about a thousand sweeps.  The
  // solve must stop at the first non-finite residual instead of spending
  // the rest of its budget on NaN arithmetic.
  CooBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 2.0);
  builder.add(1, 1, 1.0);
  const CsrMatrix a = builder.to_csr();
  ThreadPool pool(2);
  SpdProblem problem(pool, a, /*check_input=*/false);

  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.workers = 1;
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.rel_tol = 1e-8;
  controls.sweeps = 100'000'000;
  const std::vector<double> b = {1.0, 1.0};
  std::vector<double> x(2, 0.0);
  const SolveOutcome out = problem.solve(b, x, controls);
  EXPECT_EQ(out.status, SolveStatus::kToleranceNotReached);
  EXPECT_FALSE(std::isfinite(out.relative_residual)) << out.relative_residual;
  EXPECT_GT(out.iterations, 0);
  EXPECT_LT(out.iterations, 100'000);
  EXPECT_EQ(out.updates, 2LL * out.iterations);
}

TEST(SolveValidation, NegativeOrNanToleranceRejectedOnEveryMethod) {
  // NaN passes any `rel_tol < 0` test, and the Krylov methods read the
  // tolerance as well (kAuto even resolves NaN to FCG), so every method must
  // reject a negative or NaN tolerance before it runs — none may report
  // converged or spend its budget.
  ThreadPool pool(2);
  const CsrMatrix spd = laplacian_2d(6, 6);
  const CsrMatrix tall = tall_matrix(30, 12, 3);
  SpdProblem spd_problem(pool, spd);
  LsqProblem lsq_problem(pool, tall);
  const std::vector<double> b_spd = random_vector(spd.rows(), 1);
  const std::vector<double> b_lsq = random_vector(tall.rows(), 2);
  for (double rel_tol : {-1.0, std::nan("")}) {
    SolveControls c;
    c.sweeps = 2;
    c.max_iterations = 2;
    c.workers = 1;
    c.sync = SyncMode::kBarrierPerSweep;
    c.rel_tol = rel_tol;
    for (SpdMethod method : {SpdMethod::kAsyncRgs, SpdMethod::kCg,
                             SpdMethod::kFcgAsyRgs, SpdMethod::kAuto}) {
      c.method = method;
      std::vector<double> x(spd.rows(), 0.0);
      EXPECT_THROW(spd_problem.solve(b_spd, x, c), Error)
          << "method=" << static_cast<int>(method) << " rel_tol=" << rel_tol;
    }
    for (SpdMethod method : {SpdMethod::kAsyncRgs, SpdMethod::kAsyncKaczmarz}) {
      c.method = method;
      std::vector<double> x(static_cast<std::size_t>(tall.cols()), 0.0);
      EXPECT_THROW(lsq_problem.solve(b_lsq, x, c), Error)
          << "lsq method=" << static_cast<int>(method)
          << " rel_tol=" << rel_tol;
    }
  }
  EXPECT_EQ(spd_problem.stats().solves, 0);
  EXPECT_EQ(lsq_problem.stats().solves, 0);
}

TEST(BlockScanMode, SmallBlocksHonourReassociatedWiderBlocksDowngrade) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(6, 6);
  SpdProblem problem(pool, a);

  SolveControls controls;
  controls.sweeps = 4;
  controls.workers = 1;
  controls.scan = ScanMode::kReassociated;

  // k <= 4: the register-resident small-K kernel honours the request.
  {
    const MultiVector b = random_multivector(a.rows(), 3, 5);
    MultiVector x(a.rows(), 3);
    const SolveOutcome out = problem.solve(b, x, controls);
    EXPECT_EQ(out.scan_requested, ScanMode::kReassociated);
    EXPECT_EQ(out.scan_executed, ScanMode::kReassociated);
    EXPECT_EQ(out.description.find("pinned"), std::string::npos)
        << out.description;

    // The free function surfaces the same honoured request, bit-identically.
    SolveControls opt;
    opt.sweeps = 4;
    opt.workers = 1;
    opt.scan = ScanMode::kReassociated;
    MultiVector x_free(a.rows(), 3);
    const SolveOutcome block_report =
        async_rgs_solve_block(pool, a, b, x_free, opt);
    EXPECT_EQ(block_report.scan_executed, ScanMode::kReassociated);
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(x.data()[i], x_free.data()[i]) << "i=" << i;
  }

  // k > 4: gamma no longer fits in registers; the pinned column-parallel
  // kernel runs and the downgrade is surfaced.
  {
    const MultiVector b = random_multivector(a.rows(), 5, 5);
    MultiVector x(a.rows(), 5);
    const SolveOutcome out = problem.solve(b, x, controls);
    EXPECT_EQ(out.scan_requested, ScanMode::kReassociated);
    EXPECT_EQ(out.scan_executed, ScanMode::kPinned);
    EXPECT_NE(out.description.find("pinned"), std::string::npos)
        << out.description;
  }

  // A single-RHS request runs the pinned scan, says so, and is bit-identical
  // to the pinned run.
  SolveControls opt;
  opt.sweeps = 4;
  opt.workers = 1;
  opt.scan = ScanMode::kReassociated;
  const std::vector<double> b1 = random_vector(a.rows(), 6);
  std::vector<double> x1(a.rows(), 0.0);
  const SolveOutcome single_report =
      async_rgs_solve(pool, a, b1, x1, opt);
  EXPECT_EQ(single_report.scan_requested, ScanMode::kReassociated);
  EXPECT_EQ(single_report.scan_executed, ScanMode::kPinned);
  EXPECT_NE(single_report.description.find("pinned scan run"),
            std::string::npos)
      << single_report.description;
  opt.scan = ScanMode::kPinned;
  std::vector<double> x1_pinned(a.rows(), 0.0);
  async_rgs_solve(pool, a, b1, x1_pinned, opt);
  EXPECT_EQ(x1, x1_pinned);
}

TEST(PreparedSpd, ConcurrentSolvesOnDistinctIteratesAreSerializedSafely) {
  // The documented contract: concurrent solve() calls on one handle are
  // safe (internally serialized) and produce the same results as running
  // them one after another.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b1 = random_vector(a.rows(), 41);
  const std::vector<double> b2 = random_vector(a.rows(), 43);
  SpdProblem problem(pool, a);

  SolveControls opt;
  opt.sweeps = 20;
  opt.workers = 1;
  opt.seed = 3;

  std::vector<double> ref1(a.rows(), 0.0);
  std::vector<double> ref2(a.rows(), 0.0);
  problem.solve(b1, ref1, opt);
  problem.solve(b2, ref2, opt);

  std::vector<double> x1(a.rows(), 0.0);
  std::vector<double> x2(a.rows(), 0.0);
  std::thread t1([&] { problem.solve(b1, x1, opt); });
  std::thread t2([&] { problem.solve(b2, x2, opt); });
  t1.join();
  t2.join();
  EXPECT_EQ(ref1, x1);
  EXPECT_EQ(ref2, x2);
}

TEST(PreparedSpd, FcgMethodReusesThePreparedHandle) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> x_star = random_vector(a.rows(), 15);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  SpdProblem problem(pool, a);
  SolveControls controls;
  controls.method = SpdMethod::kFcgAsyRgs;
  controls.rel_tol = 1e-8;
  controls.workers = 1;
  controls.inner_sweeps = 2;
  controls.seed = 1;
  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome out = problem.solve(b, x, controls);
  EXPECT_EQ(out.status, SolveStatus::kConverged);
  EXPECT_LE(relative_residual(a, b, x), 1e-7);
  // Inner preconditioner applications run through this same handle, so the
  // per-matrix validation stayed at construction-time count.
  EXPECT_EQ(problem.stats().validation_passes, 1);

  // Bit-identical to the one-shot wrapper at equal seed and one worker.
  SpdSolveOptions sopt;
  sopt.method = SpdMethod::kFcgAsyRgs;
  sopt.rel_tol = 1e-8;
  sopt.threads = 1;
  sopt.inner_sweeps = 2;
  sopt.seed = 1;
  std::vector<double> x_wrapper(a.rows(), 0.0);
  const SpdSolveSummary summary = solve_spd(pool, a, b, x_wrapper, sopt);
  EXPECT_TRUE(summary.converged);
  EXPECT_EQ(x, x_wrapper);
}

TEST(PreparedSpd, BorrowedPreconditionerStaysVariable) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  SpdProblem problem(pool, a);
  AsyRgsPreconditioner pc(problem, /*sweeps=*/2, /*workers=*/1);
  EXPECT_TRUE(pc.is_variable());

  const std::vector<double> r = random_vector(a.rows(), 3);
  std::vector<double> z1, z2;
  const long long solves_before = problem.stats().solves;
  pc.apply(r, z1);
  pc.apply(r, z2);
  EXPECT_NE(z1, z2);  // fresh random directions per application
  EXPECT_EQ(problem.stats().solves, solves_before + 2);
}

// --- (d) outcome pinning across every asynchronous solve path ---------------
//
// Every SolveOutcome field that does not depend on timing or rounding is
// pinned for each asynchronous path (single-RHS, partitioned, block at k = 2
// and k = 8, least-squares coordinate descent, Kaczmarz) under every storage
// mode, sync mode, scan mode, valid sampling policy and two tolerance
// regimes.  The expected descriptions are spelled out literally, so any
// refactor of the solve paths that changes a reported field fails here.

enum class PinPath { kSingle, kPartitioned, kBlock2, kBlock8, kLsq, kKaczmarz };

constexpr int kPinSweeps = 3;
constexpr int kPinWorkers = 2;

/// Team size of a pinned case.  The small-block reassociated kernel reads
/// the iterate with plain loads by design (see core/kernels.hpp), which
/// ThreadSanitizer reports as races, so reassociated requests run one worker
/// and the suite stays clean under the TSan job.
int pin_workers(ScanMode scan) {
  return scan == ScanMode::kPinned ? kPinWorkers : 1;
}

const char* pin_sync_name(SyncMode sync) {
  switch (sync) {
    case SyncMode::kFreeRunning:
      return "free running";
    case SyncMode::kBarrierPerSweep:
      return "barrier per sweep";
  }
  return "?";
}

const char* pin_sampling_note(SamplingPolicy sampling) {
  switch (sampling) {
    case SamplingPolicy::kUniform:
      return "";
    case SamplingPolicy::kWeighted:
      return ", weighted sampling";
  }
  return "?";
}

/// Storage the kernels run against for a requested mode on the (small) test
/// shapes, which always fit int32 — so kAuto narrows.
StoragePolicy pin_storage(StorageMode mode) {
  switch (mode) {
    case StorageMode::kAuto:
    case StorageMode::kInt32Double:
      return StoragePolicy::kInt32Double;
    case StorageMode::kInt64Double:
      return StoragePolicy::kInt64Double;
  }
  return StoragePolicy::kInt64Double;
}

const char* pin_storage_note(StoragePolicy policy) {
  switch (policy) {
    case StoragePolicy::kInt64Double:
      return "";
    case StoragePolicy::kInt32Double:
      return ", int32_double storage";
  }
  return "?";
}

TEST(OutcomePinning, EveryAsyncPathUnderEveryStorageAndSyncMode) {
  ThreadPool pool(kPinWorkers);
  const CsrMatrix spd = laplacian_2d(8, 8);     // n = 64
  const CsrMatrix tall = tall_matrix(96, 40, 29);  // m = 96, n = 40
  const std::vector<double> b_spd = random_vector(spd.rows(), 51);
  const std::vector<double> b_lsq = random_vector(tall.rows(), 53);

  int cases = 0;
  for (StorageMode mode : {StorageMode::kAuto, StorageMode::kInt64Double,
                          StorageMode::kInt32Double}) {
    SpdProblem spd_problem(pool, spd, /*check_input=*/true, mode);
    LsqProblem lsq_problem(pool, tall, mode);
    const StoragePolicy storage = pin_storage(mode);
    for (PinPath path : {PinPath::kSingle, PinPath::kPartitioned,
                         PinPath::kBlock2, PinPath::kBlock8, PinPath::kLsq,
                         PinPath::kKaczmarz}) {
      for (SyncMode sync :
           {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
        for (SamplingPolicy sampling :
             {SamplingPolicy::kUniform, SamplingPolicy::kWeighted}) {
          if (path == PinPath::kPartitioned &&
              sampling != SamplingPolicy::kUniform)
            continue;
          for (ScanMode scan : {ScanMode::kPinned, ScanMode::kReassociated}) {
            for (double rel_tol : {0.0, 1e-30}) {
              SolveControls c;
              c.sweeps = kPinSweeps;
              c.seed = 7;
              c.workers = pin_workers(scan);
              c.sync = sync;
              c.scan = scan;
              c.sampling = sampling;
              c.rel_tol = rel_tol;
              // kAuto would pick FCG for the unreachable tolerance on the
              // SPD single-RHS paths; the other paths resolve kAuto to an
              // asynchronous method themselves.
              c.method = path == PinPath::kSingle ||
                                 path == PinPath::kPartitioned
                             ? SpdMethod::kAsyncRgs
                         : path == PinPath::kKaczmarz
                             ? SpdMethod::kAsyncKaczmarz
                             : SpdMethod::kAuto;
              if (path == PinPath::kPartitioned) {
                c.partitions = 3;
                c.steal_rate = 0.05;
              }

              SolveOutcome out;
              index_t directions = 0;
              const std::string threads =
                  std::to_string(pin_workers(scan)) + " threads, ";
              std::string prefix;
              std::string middle = pin_sampling_note(sampling);
              ScanMode executed = scan;
              switch (path) {
                case PinPath::kSingle:
                case PinPath::kPartitioned: {
                  std::vector<double> x(spd.rows(), 0.0);
                  out = spd_problem.solve(b_spd, x, c);
                  directions = spd.rows();
                  prefix = "AsyRGS, " + threads;
                  if (path == PinPath::kPartitioned)
                    middle = ", 3 partitions (RCM, steal 0.05)";
                  break;
                }
                case PinPath::kBlock2:
                case PinPath::kBlock8: {
                  const index_t k = path == PinPath::kBlock2 ? 2 : 8;
                  const MultiVector b = random_multivector(spd.rows(), k, 55);
                  MultiVector x(spd.rows(), k);
                  out = spd_problem.solve(b, x, c);
                  directions = spd.rows();
                  prefix = "AsyRGS block, " + threads + std::to_string(k) +
                           " rhs, ";
                  break;
                }
                case PinPath::kLsq:
                case PinPath::kKaczmarz: {
                  std::vector<double> x(static_cast<std::size_t>(tall.cols()),
                                        0.0);
                  out = lsq_problem.solve(b_lsq, x, c);
                  const bool kaczmarz = path == PinPath::kKaczmarz;
                  directions = kaczmarz ? tall.rows() : tall.cols();
                  prefix = (kaczmarz ? "AsyKaczmarz least squares, "
                                     : "AsyRCD least squares, ") +
                           threads;
                  break;
                }
              }
              // Only blocks of at most 4 right-hand sides run the
              // reassociated scan; every other path runs pinned and says so.
              if (scan == ScanMode::kReassociated && path != PinPath::kBlock2) {
                executed = ScanMode::kPinned;
                middle +=
                    "; reassociated scan requested, pinned scan run (only "
                    "blocks of at most 4 right-hand sides reassociate)";
              }
              ++cases;

              const std::string label =
                  "path=" + std::to_string(static_cast<int>(path)) +
                  " storage=" + to_string(mode) +
                  " sync=" + pin_sync_name(sync) +
                  " sampling=" + std::to_string(static_cast<int>(sampling)) +
                  " scan=" + std::to_string(static_cast<int>(scan)) +
                  " rel_tol=" + std::to_string(rel_tol);
              const SolveStatus status =
                  rel_tol > 0.0 && sync != SyncMode::kFreeRunning
                      ? SolveStatus::kToleranceNotReached
                      : SolveStatus::kBudgetCompleted;
              EXPECT_EQ(out.status, status) << label;
              EXPECT_EQ(out.method_used, path == PinPath::kKaczmarz
                                             ? SpdMethod::kAsyncKaczmarz
                                             : SpdMethod::kAsyncRgs)
                  << label;
              EXPECT_EQ(out.iterations, kPinSweeps) << label;
              // Exact residual checks: none without a tolerance or when
              // free-running; every sweep under weighted draws and for
              // Kaczmarz; otherwise the budget's last sweep, since the free
              // estimate never nears 1e-30.  Least squares adds sweep 1:
              // tall_matrix's normal equations are diagonal, so each drawn
              // column is solved exactly, and after sweep 0 the few columns
              // not yet drawn carry the whole residual — the estimate's
              // spread then leaves no lower bound, and the sweep checks.
              int checks = 0;
              if (rel_tol > 0.0 && sync == SyncMode::kBarrierPerSweep)
                checks = sampling == SamplingPolicy::kWeighted ||
                                 path == PinPath::kKaczmarz
                             ? kPinSweeps
                         : path == PinPath::kLsq ? 2
                                                 : 1;
              EXPECT_EQ(out.residual_checks, checks) << label;
              EXPECT_EQ(out.updates,
                        static_cast<long long>(kPinSweeps) * directions)
                  << label;
              EXPECT_EQ(out.workers, pin_workers(scan)) << label;
              EXPECT_EQ(out.scan_requested, scan) << label;
              EXPECT_EQ(out.scan_executed, executed) << label;
              EXPECT_EQ(out.storage_used, storage) << label;
              EXPECT_EQ(out.sampling_used, sampling) << label;
              EXPECT_EQ(out.partitions_used,
                        path == PinPath::kPartitioned ? 3 : 0)
                  << label;
              EXPECT_EQ(out.steal_rate_used,
                        path == PinPath::kPartitioned ? 0.05 : 0.0)
                  << label;
              EXPECT_EQ(out.description, prefix + pin_sync_name(sync) +
                                             middle + pin_storage_note(storage))
                  << label;
            }
          }
        }
      }
    }
  }
  // 3 storage modes x 2 scans x 2 tolerances x 22 (path, sync, sampling)
  // combinations: the table above really ran, not an early-skipped loop.
  EXPECT_EQ(cases, 3 * 2 * 2 * 22);
}

}  // namespace
}  // namespace asyrgs
