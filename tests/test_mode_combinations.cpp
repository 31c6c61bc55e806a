// Cross-feature combination tests: every synchronization mode must compose
// with single- and multi-RHS solves, racy writes and least squares.
#include <gtest/gtest.h>

#include "asyrgs/asyrgs.hpp"

namespace asyrgs {
namespace {

class ModeComboTest : public ::testing::TestWithParam<SyncMode> {};

TEST_P(ModeComboTest, SingleRhsSolvesUnderEveryCombination) {
  const SyncMode sync = GetParam();
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(12, 12);
  const std::vector<double> x_star = random_vector(a.rows(), 3);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.sweeps = 6000;
  opt.workers = 8;
  opt.sync = sync;
  // Free-running mode cannot stop early; give it a fixed budget instead.
  if (sync != SyncMode::kFreeRunning) opt.rel_tol = 1e-7;
  const SolveOutcome rep = async_rgs_solve(pool, a, b, x, opt);

  if (sync != SyncMode::kFreeRunning) {
    EXPECT_TRUE(rep.converged());
  }
  EXPECT_LT(relative_residual(a, b, x), 1e-6);
  EXPECT_LT(nrm2(subtract(x, x_star)) / nrm2(x_star), 1e-4);
}

TEST_P(ModeComboTest, BlockSolvesUnderEveryCombination) {
  const SyncMode sync = GetParam();
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(10, 10);
  const MultiVector x_star = random_multivector(a.rows(), 3, 5);
  const MultiVector b = rhs_from_solution(a, x_star);

  MultiVector x(a.rows(), 3);
  SolveControls opt;
  opt.sweeps = 6000;
  opt.workers = 8;
  opt.sync = sync;
  if (sync != SyncMode::kFreeRunning) opt.rel_tol = 1e-7;
  async_rgs_solve_block(pool, a, b, x, opt);

  const auto diffs = column_diff_norms(x, x_star);
  const auto norms = column_norms(x_star);
  for (index_t c = 0; c < 3; ++c)
    EXPECT_LT(diffs[c] / norms[c], 1e-4) << "column " << c;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, ModeComboTest,
                         ::testing::Values(SyncMode::kFreeRunning,
                                           SyncMode::kBarrierPerSweep));

TEST(ModeCombo, NonAtomicComposesWithOwnedPartitions) {
  // Partitioned scheduling at steal rate 0 gives every coordinate exactly
  // one writer (the worker owning its partition), so even the racy write
  // mode loses no updates — a useful deployment configuration.
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(12, 12);
  const std::vector<double> x_star = random_vector(a.rows(), 7);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.sweeps = 4000;
  opt.workers = 8;
  opt.partitions = 8;
  opt.steal_rate = 0.0;
  opt.atomic_writes = false;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-8;
  const SolveOutcome rep = async_rgs_solve(pool, a, b, x, opt);
  EXPECT_TRUE(rep.converged());
  EXPECT_EQ(rep.partitions_used, 8);
}

TEST(ModeCombo, SolveSpdHonoursIterationCap) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(16, 16);  // too hard for 3 sweeps
  const std::vector<double> b = random_vector(a.rows(), 9);
  std::vector<double> x(a.rows(), 0.0);
  SpdSolveOptions opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.rel_tol = 1e-12;
  opt.max_iterations = 3;
  const SpdSolveSummary s = solve_spd(pool, a, b, x, opt);
  EXPECT_FALSE(s.converged);
  EXPECT_LE(s.iterations, 3);
}

TEST(ModeCombo, LsqComposesWithBarrierPerSweep) {
  ThreadPool pool(8);
  SocialGramOptions gopt;
  gopt.terms = 300;
  gopt.documents = 2000;
  gopt.seed = 11;
  const CsrMatrix f = drop_empty_columns(make_social_gram(gopt).factor).matrix;
  const std::vector<double> coeffs = random_vector(f.cols(), 13);
  const std::vector<double> labels = rhs_from_solution(f, coeffs);

  std::vector<double> x(f.cols(), 0.0);
  SolveControls opt;
  opt.sweeps = 4000;
  opt.workers = 8;
  opt.step_size = 0.9;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-8;
  const SolveOutcome rep = async_lsq_solve(pool, f, labels, x, opt);
  EXPECT_TRUE(rep.converged());
  EXPECT_LT(nrm2(subtract(x, coeffs)) / nrm2(coeffs), 1e-5);
}

}  // namespace
}  // namespace asyrgs
