// Scan-mode suite: the invariants the opt-in reassociated scan (block
// solves of at most 4 right-hand sides only) must and must not preserve.
//
//  (a) The default path is pinned and stays bit-exact: ScanMode::kPinned is
//      the default, and a pinned run is bit-identical to the sequential
//      reference (the contract the determinism suite gates).
//  (b) Scan mode never touches direction planning: the engine consumes the
//      identical direction multiset in both modes.
//  Plus the oversubscription heuristic for team-parallel residuals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/rgs.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"

namespace asyrgs {
namespace {

// --- (a) pinned is the default and stays bit-exact ---------------------------

TEST(ScanModeDefault, PinnedEverywhere) {
  EXPECT_EQ(SolveControls{}.scan, ScanMode::kPinned);
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

// --- (b) the direction multiset is scan-mode independent ---------------------

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
    detail::run_engine(pool, opt, n, 3, detail::direction_plans(opt.seed, n),
                       {}, RecordingUpdate{&per_worker}, residual, report);
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
