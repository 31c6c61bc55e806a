// Scan-mode suite (PR 3): the opt-in fast-math row scan and the invariants
// it must and must not preserve.
//
//  (a) The default path is pinned and stays bit-exact: ScanMode::kPinned is
//      the default everywhere, and a pinned run is bit-identical to the
//      sequential reference (the contract the PR-2 determinism suite gates).
//  (b) The reassociated kernels compute the same sums up to rounding (they
//      reassociate, never approximate), and the reassociated solvers
//      converge to the same residual tolerance at 1, 2, and 4 workers.
//  (c) Scan mode never touches direction planning: the engine consumes the
//      identical direction multiset in both modes.
//  Plus the oversubscription heuristic for team-parallel residuals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "asyrgs/core/async_lsq.hpp"
#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/rgs.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/solve.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

// --- (a) pinned is the default and stays bit-exact ---------------------------

TEST(ScanModeDefault, PinnedEverywhere) {
  EXPECT_EQ(SolveControls{}.scan, ScanMode::kPinned);
  EXPECT_EQ(SpdSolveOptions{}.scan, ScanMode::kPinned);
}

TEST(ScanModeDefault, PinnedSingleWorkerStaysBitExact) {
  // Identical to the determinism-suite contract, asserted here against an
  // options struct that names the mode explicitly, so a future default flip
  // would fail this test and not just silently weaken the other suite.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 3);

  RgsOptions seq;
  seq.sweeps = 30;
  seq.seed = 11;
  std::vector<double> x_seq(a.rows(), 0.0);
  rgs_solve(a, b, x_seq, seq);

  std::vector<double> x_async(a.rows(), 0.0);
  SolveControls opt;
  opt.sweeps = 30;
  opt.seed = 11;
  opt.workers = 1;
  opt.scan = ScanMode::kPinned;
  async_rgs_solve(pool, a, b, x_async, opt);
  EXPECT_EQ(x_seq, x_async);
}

// --- (b) reassociated kernels: same sum up to rounding ----------------------

/// Random CSR-like row over a dense operand of size n.
struct RowFixture {
  std::vector<index_t> cols;
  std::vector<double> vals;
  std::vector<double> x;
};

RowFixture make_row(nnz_t len, index_t n, std::uint64_t seed) {
  RowFixture f;
  Xoshiro256 rng(seed);
  f.x.resize(static_cast<std::size_t>(n));
  for (double& v : f.x) v = normal(rng);
  for (nnz_t t = 0; t < len; ++t) {
    f.cols.push_back(uniform_index(rng, n));
    f.vals.push_back(normal(rng));
  }
  std::sort(f.cols.begin(), f.cols.end());
  return f;
}

TEST(ReassocKernels, MatchPinnedUpToRounding) {
  // Every length from 0 through 70 crosses all dispatch boundaries: the
  // scalar multi-accumulator path (< 16), the 8/16-wide vector bodies, and
  // the masked/scalar tails of every width.
  for (nnz_t len = 0; len <= 70; ++len) {
    const RowFixture f = make_row(len, 977, 1000 + static_cast<std::uint64_t>(len));
    const double pinned = csr_row_dot(f.cols.data(), f.vals.data(), len,
                                      f.x.data());
    const double reassoc = csr_row_dot_reassoc(f.cols.data(), f.vals.data(),
                                               len, f.x.data());
    // Bound the reassociation error by the classical |sum| <= len * eps *
    // sum|terms| envelope (loose by design; any true error is orders of
    // magnitude larger).
    double abs_sum = 0.0;
    for (nnz_t t = 0; t < len; ++t)
      abs_sum += std::abs(f.vals[t] * f.x[f.cols[t]]);
    const double tol =
        static_cast<double>(len + 1) * 4e-16 * std::max(abs_sum, 1.0);
    EXPECT_NEAR(pinned, reassoc, tol) << "len=" << len;
  }
}

TEST(ReassocKernels, SubDotConsistentWithDot) {
  const nnz_t len = 53;
  const RowFixture f = make_row(len, 500, 99);
  const double acc = 3.25;
  EXPECT_EQ(csr_row_sub_dot_reassoc(acc, f.cols.data(), f.vals.data(), len,
                                    f.x.data()),
            acc - csr_row_dot_reassoc(f.cols.data(), f.vals.data(), len,
                                      f.x.data()));
}

TEST(ReassocKernels, EmptyAndSingleEntryRows) {
  const RowFixture f = make_row(1, 10, 7);
  EXPECT_EQ(csr_row_dot_reassoc(f.cols.data(), f.vals.data(), 0, f.x.data()),
            0.0);
  EXPECT_EQ(csr_row_dot_reassoc(f.cols.data(), f.vals.data(), 1, f.x.data()),
            f.vals[0] * f.x[f.cols[0]]);
}

// --- (b) reassociated solvers converge across worker counts ------------------

TEST(ScanModeConvergence, ReassociatedReachesToleranceAcrossWorkerCounts) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(14, 14);
  const std::vector<double> x_star = random_vector(a.rows(), 5);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  for (int workers : {1, 2, 4}) {
    std::vector<double> x(a.rows(), 0.0);
    SolveControls opt;
    opt.sweeps = 4000;
    opt.seed = 17;
    opt.workers = workers;
    opt.sync = SyncMode::kBarrierPerSweep;
    opt.scan = ScanMode::kReassociated;
    opt.rel_tol = 1e-8;
    const SolveOutcome rep = async_rgs_solve(pool, a, b, x, opt);
    EXPECT_TRUE(rep.converged()) << "workers=" << workers;
    EXPECT_LE(rep.relative_residual, 1e-8) << "workers=" << workers;
  }
}

TEST(ScanModeConvergence, ReassociatedLsqReachesTolerance) {
  ThreadPool pool(2);
  CooBuilder builder(60, 25);
  Xoshiro256 rng(3);
  for (index_t i = 0; i < 60; ++i) {
    builder.add(i, i % 25, 1.0 + uniform_real(rng));
    for (int t = 0; t < 3; ++t)
      builder.add(i, uniform_index(rng, 25), normal(rng) * 0.3);
  }
  const CsrMatrix a = builder.to_csr();
  const std::vector<double> x_star = random_vector(25, 8);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  std::vector<double> x(25, 0.0);
  SolveControls opt;
  opt.sweeps = 6000;
  opt.seed = 9;
  opt.workers = 2;
  opt.step_size = 0.9;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.scan = ScanMode::kReassociated;
  opt.rel_tol = 1e-8;
  const SolveOutcome rep = async_lsq_solve(pool, a, b, x, opt);
  EXPECT_TRUE(rep.converged());
  EXPECT_LE(rep.relative_residual, 1e-8);
}

TEST(ScanModeConvergence, SolveSpdPlumbsReassociated) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(10, 10);
  const std::vector<double> x_star = random_vector(a.rows(), 2);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  std::vector<double> x(a.rows(), 0.0);
  SpdSolveOptions opt;
  opt.rel_tol = 1e-3;  // kAuto -> AsyRGS (the asynchronous path)
  opt.scan = ScanMode::kReassociated;
  opt.seed = 4;
  const SpdSolveSummary s = solve_spd(pool, a, b, x, opt);
  EXPECT_EQ(s.method_used, SpdMethod::kAsyncRgs);
  EXPECT_TRUE(s.converged);
  EXPECT_LE(s.relative_residual, 1e-3);
}

// --- (c) the direction multiset is scan-mode independent ---------------------

struct RecordingUpdate {
  std::vector<std::vector<index_t>>* per_worker;
  void operator()(int id, index_t r, index_t) const {
    (*per_worker)[static_cast<std::size_t>(id)].push_back(r);
  }
};

TEST(ScanModeDirections, MultisetUnchangedByScanMode) {
  ThreadPool pool(4);
  const index_t n = 83;
  std::vector<std::vector<index_t>> multisets;
  for (ScanMode scan : {ScanMode::kPinned, ScanMode::kReassociated}) {
    SolveControls opt;
    opt.seed = 29;
    opt.sweeps = 40;
    opt.workers = 3;
    opt.scan = scan;
    std::vector<std::vector<index_t>> per_worker(3);
    SolveOutcome report;
    auto residual = [](int, int) { return 0.0; };
    detail::run_engine(pool, opt, n, 3, detail::direction_plans(opt, n), {},
                       RecordingUpdate{&per_worker}, residual, report);
    std::vector<index_t> all;
    for (const auto& v : per_worker)
      all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    multisets.push_back(std::move(all));
  }
  EXPECT_EQ(multisets[0], multisets[1]);
}

// --- team-residual oversubscription heuristic --------------------------------

TEST(TeamResidualHeuristic, SerialOnlyWhenOversubscribed) {
  // Parallel residual whenever the host can actually schedule the team...
  EXPECT_TRUE(detail::team_residual_profitable(4, 4));
  EXPECT_TRUE(detail::team_residual_profitable(4, 8));
  EXPECT_TRUE(detail::team_residual_profitable(2, 2));
  // ...or the hardware count is unknown (0), or the team is trivial.
  EXPECT_TRUE(detail::team_residual_profitable(4, 0));
  EXPECT_TRUE(detail::team_residual_profitable(1, 1));
  EXPECT_TRUE(detail::team_residual_profitable(0, 1));
  // Serial fallback exactly when workers outnumber hardware threads.
  EXPECT_FALSE(detail::team_residual_profitable(2, 1));
  EXPECT_FALSE(detail::team_residual_profitable(4, 1));
  EXPECT_FALSE(detail::team_residual_profitable(8, 4));
}

TEST(TeamResidualHeuristic, ResidualValuesAgreeAcrossWorkerCounts) {
  // Whichever path the host selects, the reported residual must match the
  // serial ground truth to reduction-rounding accuracy.  (On 1-hardware-
  // thread CI this exercises the serial fallback; on multicore hosts the
  // team-parallel reduction.)
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(10, 10);
  const std::vector<double> x_star = random_vector(a.rows(), 6);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  double residual_1 = -1.0;
  for (int workers : {1, 4}) {
    std::vector<double> x(a.rows(), 0.0);
    SolveControls opt;
    opt.sweeps = 25;
    opt.seed = 77;
    opt.workers = workers;
    opt.sync = SyncMode::kBarrierPerSweep;
    opt.track_history = true;
    const SolveOutcome rep = async_rgs_solve(pool, a, b, x, opt);
    ASSERT_EQ(rep.residual_history.size(),
              static_cast<std::size_t>(rep.iterations));
    // Different worker counts interleave updates differently, so compare
    // each report against its own iterate, not across runs.
    std::vector<double> r(a.rows());
    a.multiply(x.data(), r.data());
    double num = 0.0, den = 0.0;
    for (index_t i = 0; i < a.rows(); ++i) {
      const double ri = b[i] - r[i];
      num += ri * ri;
      den += b[i] * b[i];
    }
    const double expect = std::sqrt(num) / std::sqrt(den);
    EXPECT_NEAR(rep.relative_residual, expect, 1e-12 + 1e-9 * expect)
        << "workers=" << workers;
    if (workers == 1) residual_1 = rep.relative_residual;
  }
  EXPECT_GE(residual_1, 0.0);
}

}  // namespace
}  // namespace asyrgs
