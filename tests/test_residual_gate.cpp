// Residual-gate suite: a barrier-per-sweep solve with a tolerance runs the
// exact team residual only on sweeps whose free estimate — the sum of the
// squared residual components the updates computed anyway — nears the
// tolerance.  The oracle is the same solve with track_history = true, which
// checks every sweep.  The gate may change how many exact checks run, never
// where a solve stops, what it reports, or the bits of the iterate.
//
//  (a) Oracle equality: at one worker on every gated path (single-RHS,
//      partitioned at steal 0, block k = 4 pinned and reassociated,
//      least-squares coordinate descent), and at 1/2/4 workers on the
//      owned-blocks fixture, where multi-worker runs are deterministic.
//  (b) Budget limits and divergence: an unconverged run reports its last
//      sweep's exact residual; a diverging run stops on the same sweep.
//  (c) Check counts: far fewer checks than sweeps on a long solve; every
//      sweep for weighted draws, Kaczmarz and history tracking.
//  (d) Multi-worker converged solves verify against a residual recomputed
//      outside the solver.
//
// This suite runs in the TSan CI job: the per-worker estimate slots are
// written before the sweep barrier and read by every worker after it.
// Multi-worker cases therefore stay on atomic writes and the pinned scan.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "asyrgs/core/kernels.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/support/prng.hpp"
#include "owned_blocks.hpp"

namespace asyrgs {
namespace {

/// Tall full-column-rank matrix for the least-squares cases.
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

/// Barrier-per-sweep controls with a tolerance and a generous budget.
SolveControls barrier_controls(double rel_tol, int workers) {
  SolveControls c;
  c.method = SpdMethod::kAsyncRgs;
  c.sync = SyncMode::kBarrierPerSweep;
  c.rel_tol = rel_tol;
  c.sweeps = 5000;
  c.workers = workers;
  c.seed = 11;
  return c;
}

/// One solve's outcome and final iterate (flattened for block solves).
struct Solved {
  SolveOutcome out;
  std::vector<double> x;
};

/// Runs `solve` gated and with history tracking (the every-sweep oracle)
/// and expects the same stop, report and iterate bits.  Returns the gated
/// run.
template <class Solve>
Solved expect_matches_oracle(SolveControls c, Solve&& solve,
                                   const std::string& label) {
  c.track_history = false;
  const Solved gated = solve(c);
  c.track_history = true;
  const Solved oracle = solve(c);
  EXPECT_EQ(gated.out.status, oracle.out.status) << label;
  EXPECT_EQ(gated.out.iterations, oracle.out.iterations) << label;
  EXPECT_EQ(gated.out.updates, oracle.out.updates) << label;
  EXPECT_EQ(gated.out.relative_residual, oracle.out.relative_residual)
      << label;
  EXPECT_EQ(gated.x, oracle.x) << label;
  EXPECT_EQ(oracle.out.residual_checks, oracle.out.iterations) << label;
  EXPECT_LT(gated.out.residual_checks, gated.out.iterations) << label;
  EXPECT_GE(gated.out.residual_checks, 1) << label;
  return gated;
}

/// ||A^T (b - A x)|| / ||A^T b||, recomputed serially.
double normal_residual(const CsrMatrix& a, const std::vector<double>& b,
                       const std::vector<double>& x) {
  std::vector<double> r(static_cast<std::size_t>(a.rows()));
  a.multiply(x.data(), r.data());
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  std::vector<double> g(static_cast<std::size_t>(a.cols()));
  std::vector<double> g0(g.size());
  a.multiply_transpose(r.data(), g.data());
  a.multiply_transpose(b.data(), g0.data());
  return nrm2(g) / nrm2(g0);
}

/// A recomputed residual passes when it is within the tolerance, allowing
/// for the different summation order of the solver's own evaluation.
bool within(double recomputed, double rel_tol) {
  return recomputed <= rel_tol * (1.0 + 1e-9);
}

// --- (a) oracle equality -----------------------------------------------------

TEST(ResidualGate, OneWorkerMatchesEverySweepOracleOnEveryGatedPath) {
  ThreadPool pool(2);
  const CsrMatrix spd = laplacian_2d(16, 16);
  const std::vector<double> b = random_vector(spd.rows(), 3);
  SpdProblem problem(pool, spd);

  const auto single = [&](const SolveControls& sc) {
    Solved run{{}, std::vector<double>(b.size(), 0.0)};
    run.out = problem.solve(b, run.x, sc);
    return run;
  };
  SolveControls c = barrier_controls(1e-6, 1);
  const SolveOutcome out = expect_matches_oracle(c, single, "single").out;
  EXPECT_TRUE(out.converged());
  EXPECT_GT(out.iterations, 100);

  SolveControls part = c;
  part.partitions = 4;
  part.steal_rate = 0.0;
  EXPECT_TRUE(
      expect_matches_oracle(part, single, "partitioned").out.converged());

  const MultiVector bb = random_multivector(spd.rows(), 4, 5);
  const auto block = [&](const SolveControls& bc) {
    MultiVector x(spd.rows(), 4);
    const SolveOutcome o = problem.solve(bb, x, bc);
    return Solved{o, std::vector<double>(x.data(), x.data() + x.size())};
  };
  for (ScanMode scan : {ScanMode::kPinned, ScanMode::kReassociated}) {
    SolveControls bc = c;
    bc.scan = scan;
    const SolveOutcome bo =
        expect_matches_oracle(
            bc, block, "block scan=" + std::to_string(static_cast<int>(scan)))
            .out;
    EXPECT_TRUE(bo.converged());
    EXPECT_EQ(bo.scan_executed, scan);
  }

  const CsrMatrix tall = tall_matrix(160, 50, 11);
  const std::vector<double> bl = random_vector(tall.rows(), 13);
  LsqProblem lsq(pool, tall);
  const auto least_squares = [&](const SolveControls& lc) {
    Solved run{{}, std::vector<double>(static_cast<std::size_t>(tall.cols()))};
    run.out = lsq.solve(bl, run.x, lc);
    return run;
  };
  EXPECT_TRUE(
      expect_matches_oracle(c, least_squares, "lsq").out.converged());
}

TEST(ResidualGate, OwnedBlocksMatchOracleAtEveryTeamSize) {
  // Partitioned at steal 0 on disjoint blocks, every interleaving yields
  // the same bits, so the team-wide estimate (summed over the per-worker
  // slots) must take the oracle's decisions at 2 and 4 workers too.
  constexpr int kBlocks = 8;
  const CsrMatrix a = test::block_diag_tridiagonal(kBlocks);
  test::expect_owned_only_cut(a, kBlocks);
  const std::vector<double> b = random_vector(a.rows(), 9);
  ThreadPool pool(4);
  SpdProblem problem(pool, a);
  std::vector<double> reference;
  for (int workers : {1, 2, 4}) {
    SolveControls c = test::owned_block_controls(kBlocks);
    c.method = SpdMethod::kAsyncRgs;
    c.sync = SyncMode::kBarrierPerSweep;
    c.rel_tol = 1e-8;
    c.sweeps = 5000;
    c.workers = workers;
    c.seed = 21;
    const auto solve = [&](const SolveControls& sc) {
      Solved run{{}, std::vector<double>(b.size(), 0.0)};
      run.out = problem.solve(b, run.x, sc);
      return run;
    };
    const Solved gated = expect_matches_oracle(
        c, solve, "workers=" + std::to_string(workers));
    EXPECT_TRUE(gated.out.converged());
    if (reference.empty()) reference = gated.x;
    EXPECT_EQ(gated.x, reference) << "workers=" << workers;
  }
}

// --- (b) budget limits and divergence ---------------------------------------

TEST(ResidualGate, UnconvergedRunReportsItsLastSweepExactly) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(16, 16);
  const std::vector<double> b = random_vector(a.rows(), 4);
  SpdProblem problem(pool, a);
  SolveControls c = barrier_controls(1e-12, 1);
  c.sweeps = 30;

  std::vector<double> x(b.size(), 0.0);
  const SolveOutcome gated = problem.solve(b, x, c);
  EXPECT_EQ(gated.status, SolveStatus::kToleranceNotReached);
  EXPECT_EQ(gated.iterations, 30);
  EXPECT_EQ(gated.residual_checks, 1);  // the budget's last sweep only

  c.track_history = true;
  std::vector<double> x_oracle(b.size(), 0.0);
  const SolveOutcome oracle = problem.solve(b, x_oracle, c);
  ASSERT_EQ(oracle.residual_history.size(), 30u);
  EXPECT_EQ(gated.relative_residual, oracle.residual_history.back());
  EXPECT_EQ(x, x_oracle);
}

TEST(ResidualGate, DivergingStepStopsOnTheSameSweepAsTheOracle) {
  // beta = 2.5 lies outside the (0, 2) range the handles accept, so drive
  // the engine directly with the handle's kernels: every update then
  // overshoots, the iterate grows geometrically, and the first non-finite
  // exact residual must stop the gated run on the oracle's sweep.
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b = random_vector(a.rows(), 6);
  std::vector<double> inv_diag = a.diagonal();
  for (double& d : inv_diag) d = 1.0 / d;
  std::vector<detail::RhsDiagPair> packed;
  detail::pack_rhs_diag(b, inv_diag, packed);
  ThreadPool pool(1);

  const auto run = [&](bool history) {
    SolveControls c = barrier_controls(1e-8, 1);
    c.sweeps = 1'000'000;
    c.track_history = history;
    Solved result{{}, std::vector<double>(b.size(), 0.0)};
    detail::EngineScratch scratch;
    detail::SingleRhsResidual residual(a, b, result.x.data(), 1,
                                       scratch.reduce(1));
    const detail::SingleRhsUpdate<true> update{
        a.row_ptr().data(), a.col_idx().data(), a.values().data(),
        packed.data(),      result.x.data(),    2.5};
    result.out.status = SolveStatus::kToleranceNotReached;
    detail::run_engine(pool, c, a.rows(), 1,
                       detail::direction_plans(c.seed, a.rows()), nullptr,
                       update, residual, result.out, &scratch);
    return result;
  };
  const Solved gated = run(false);
  const Solved oracle = run(true);
  EXPECT_EQ(gated.out.status, SolveStatus::kToleranceNotReached);
  EXPECT_FALSE(std::isfinite(gated.out.relative_residual));
  EXPECT_LT(gated.out.iterations, 1'000'000);
  EXPECT_EQ(gated.out.iterations, oracle.out.iterations);
  EXPECT_EQ(static_cast<std::size_t>(oracle.out.iterations),
            oracle.out.residual_history.size());
}

TEST(ResidualGate, IndefiniteHandleSolveStopsOnTheSameSweepAsTheOracle) {
  // The handle-level divergence of test_problem's
  // DivergingBarrierSolveStopsAtFirstNonFiniteResidual, against the oracle.
  CooBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 2.0);
  builder.add(1, 1, 1.0);
  const CsrMatrix a = builder.to_csr();
  ThreadPool pool(1);
  SpdProblem problem(pool, a, /*check_input=*/false);
  const std::vector<double> b = {1.0, 1.0};
  SolveControls c = barrier_controls(1e-8, 1);
  c.sweeps = 100'000'000;
  const auto solve = [&](const SolveControls& sc) {
    Solved run{{}, std::vector<double>(2, 0.0)};
    run.out = problem.solve(b, run.x, sc);
    return run;
  };
  c.track_history = true;
  const Solved oracle = solve(c);
  c.track_history = false;
  const Solved gated = solve(c);
  EXPECT_FALSE(std::isfinite(gated.out.relative_residual));
  EXPECT_EQ(gated.out.iterations, oracle.out.iterations);
  EXPECT_LT(gated.out.iterations, 100'000);
}

// --- (c) check counts --------------------------------------------------------

TEST(ResidualGate, LongSolveRunsFarFewerChecksThanSweeps) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(16, 16);
  const std::vector<double> b = random_vector(a.rows(), 8);
  SpdProblem problem(pool, a);
  std::vector<double> x(b.size(), 0.0);
  const SolveOutcome out = problem.solve(b, x, barrier_controls(1e-6, 1));
  ASSERT_TRUE(out.converged());
  ASSERT_GE(out.iterations, 100);
  EXPECT_LE(out.residual_checks * 10, out.iterations)
      << out.residual_checks << " checks over " << out.iterations
      << " sweeps";
}

TEST(ResidualGate, WeightedKaczmarzAndHistoryRunsCheckEverySweep) {
  ThreadPool pool(2);
  const CsrMatrix spd = laplacian_2d(12, 12);
  const std::vector<double> b = random_vector(spd.rows(), 10);
  SpdProblem problem(pool, spd);
  SolveControls c = barrier_controls(1e-6, 1);
  c.sampling = SamplingPolicy::kWeighted;
  std::vector<double> x(b.size(), 0.0);
  SolveOutcome out = problem.solve(b, x, c);
  EXPECT_TRUE(out.converged());
  EXPECT_EQ(out.residual_checks, out.iterations) << "weighted single";

  const CsrMatrix tall = tall_matrix(160, 50, 12);
  const std::vector<double> bl = random_vector(tall.rows(), 14);
  LsqProblem lsq(pool, tall);
  for (SamplingPolicy sampling :
       {SamplingPolicy::kUniform, SamplingPolicy::kWeighted}) {
    for (SpdMethod method : {SpdMethod::kAsyncRgs, SpdMethod::kAsyncKaczmarz}) {
      if (method == SpdMethod::kAsyncRgs && sampling == SamplingPolicy::kUniform)
        continue;  // the gated least-squares path
      SolveControls lc = barrier_controls(1e-3, 1);
      lc.method = method;
      lc.sampling = sampling;
      std::vector<double> xl(static_cast<std::size_t>(tall.cols()), 0.0);
      out = lsq.solve(bl, xl, lc);
      EXPECT_GT(out.iterations, 1);
      EXPECT_EQ(out.residual_checks, out.iterations)
          << "method=" << static_cast<int>(method)
          << " sampling=" << static_cast<int>(sampling);
    }
  }

  // No tolerance: no checks at all; free-running: none either.
  SolveControls none = barrier_controls(0.0, 1);
  none.sweeps = 5;
  out = problem.solve(b, x, none);
  EXPECT_EQ(out.residual_checks, 0);
  SolveControls free_running = barrier_controls(1e-6, 1);
  free_running.sync = SyncMode::kFreeRunning;
  free_running.sweeps = 5;
  out = problem.solve(b, x, free_running);
  EXPECT_EQ(out.residual_checks, 0);
}

// --- (d) multi-worker verification -------------------------------------------

TEST(ResidualGate, MultiWorkerConvergedSolvesVerifyOutsideTheSolver) {
  ThreadPool pool(4);
  const CsrMatrix spd = laplacian_2d(24, 24);
  const std::vector<double> b = random_vector(spd.rows(), 15);
  SpdProblem problem(pool, spd);
  constexpr double kTol = 1e-5;
  for (int workers : {2, 4}) {
    for (int partitions : {0, 8}) {
      SolveControls c = barrier_controls(kTol, workers);
      c.partitions = partitions;
      if (partitions > 0) c.steal_rate = 0.05;
      std::vector<double> x(b.size(), 0.0);
      const SolveOutcome out = problem.solve(b, x, c);
      const std::string label = "workers=" + std::to_string(workers) +
                                " partitions=" + std::to_string(partitions);
      ASSERT_TRUE(out.converged()) << label;
      EXPECT_LT(out.residual_checks, out.iterations) << label;
      EXPECT_TRUE(within(relative_residual(spd, b, x), kTol)) << label;
    }
    const MultiVector bb = random_multivector(spd.rows(), 4, 16);
    MultiVector xb(spd.rows(), 4);
    SolveOutcome out = problem.solve(bb, xb, barrier_controls(kTol, workers));
    ASSERT_TRUE(out.converged()) << "block workers=" << workers;
    EXPECT_TRUE(within(relative_residual_block(pool, spd, bb, xb), kTol))
        << "block workers=" << workers;

    const CsrMatrix tall = tall_matrix(400, 120, 17);
    const std::vector<double> bl = random_vector(tall.rows(), 18);
    LsqProblem lsq(pool, tall);
    std::vector<double> xl(static_cast<std::size_t>(tall.cols()), 0.0);
    out = lsq.solve(bl, xl, barrier_controls(kTol, workers));
    ASSERT_TRUE(out.converged()) << "lsq workers=" << workers;
    EXPECT_TRUE(within(normal_residual(tall, bl, xl), kTol))
        << "lsq workers=" << workers;
  }
}

}  // namespace
}  // namespace asyrgs
