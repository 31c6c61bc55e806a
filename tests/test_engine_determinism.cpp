// Determinism suite for the batched direction engine (PR 2).
//
// The perf overhaul replaced per-update Philox evaluation with bulk draws,
// runtime atomicity branches with templated kernels, and serial residuals
// with team-parallel reductions.  These tests pin the invariants that
// overhaul promised to preserve:
//  (a) the bulk fill APIs reproduce the random-access primitives
//      draw-for-draw;
//  (b) free-running runs at 1, 2, and 4 workers consume exactly the same
//      direction multiset as the sequential solver after batching;
//  (c) the templated atomic/racy kernels produce bit-identical
//      single-worker results vs. the sequential reference (the old path's
//      observable contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/rgs.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

// --- (a) bulk Philox fills reproduce random access ---------------------------

TEST(PhiloxFill, FillAtMatchesAt) {
  const Philox4x32 gen(0xDEADBEEFCAFEull);
  for (std::uint64_t first : {0ull, 1ull, 2ull, 7ull, 123456789ull}) {
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{127}, std::size_t{130},
                              std::size_t{1024}}) {
      std::vector<std::uint64_t> got(count + 1, 0);
      gen.fill_at(first, count, got.data());
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(got[i], gen.at(first + i))
            << "first=" << first << " count=" << count << " i=" << i;
    }
  }
}

TEST(PhiloxFill, FillIndicesMatchesIndexAt) {
  const Philox4x32 gen(31);
  for (index_t n : {index_t{1}, index_t{7}, index_t{97}, index_t{120147}}) {
    for (std::uint64_t first : {0ull, 1ull, 5ull, 999999ull}) {
      std::vector<index_t> got(1000, -1);
      gen.fill_indices(first, got.size(), n, got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], gen.index_at(first + i, n))
            << "n=" << n << " first=" << first << " i=" << i;
    }
  }
}

TEST(PhiloxFill, StridedMatchesIndexAtForAllParities) {
  const Philox4x32 gen(77);
  const index_t n = 6007;
  for (std::uint64_t first : {0ull, 1ull, 4ull, 9ull}) {
    for (std::uint64_t stride : {1ull, 2ull, 3ull, 4ull, 5ull, 8ull, 16ull}) {
      std::vector<index_t> got(513, -1);
      gen.fill_indices_strided(first, stride, got.size(), n, got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], gen.index_at(first + i * stride, n))
            << "first=" << first << " stride=" << stride << " i=" << i;
    }
  }
}

TEST(PhiloxFill, ChunkedRefillsEqualOneShot) {
  // Consuming the stream through refills of varying size must equal one
  // contiguous fill (the engine's buffer-boundary behaviour).
  const Philox4x32 gen(5);
  const index_t n = 211;
  std::vector<index_t> oneshot(5000);
  gen.fill_indices(0, oneshot.size(), n, oneshot.data());
  std::vector<index_t> chunked;
  std::uint64_t pos = 0;
  std::size_t next = 1;
  while (chunked.size() < oneshot.size()) {
    const std::size_t take =
        std::min<std::size_t>(next, oneshot.size() - chunked.size());
    std::vector<index_t> buf(take);
    gen.fill_indices(pos, take, n, buf.data());
    chunked.insert(chunked.end(), buf.begin(), buf.end());
    pos += take;
    next = next * 2 + 1;  // 1, 3, 7, ... exercises odd boundaries
  }
  EXPECT_EQ(chunked, oneshot);
}

// --- DirectionPlan batched fills == per-pick specification ------------------

TEST(DirectionPlan, FillMatchesPickSharedScope) {
  SolveControls opt;
  opt.seed = 9;
  const index_t n = 97;
  for (int team : {1, 2, 3, 4, 8}) {
    const detail::DirectionPlan plan(opt, n, team);
    for (int w = 0; w < team; ++w) {
      std::vector<index_t> got(700);
      plan.fill(w, 3, got.size(), got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], plan.pick(w, 3 + i))
            << "team=" << team << " w=" << w << " i=" << i;
      plan.fill_in_sweep(w, 2, 1, got.size(), got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], plan.pick_in_sweep(w, 2, 1 + static_cast<index_t>(i)))
            << "team=" << team << " w=" << w << " i=" << i;
    }
  }
}

TEST(DirectionPlan, FillMatchesPickOwnerComputes) {
  SolveControls opt;
  opt.seed = 13;
  opt.scope = RandomizationScope::kOwnerComputes;
  const index_t n = 101;
  for (int team : {1, 2, 4}) {
    const detail::DirectionPlan plan(opt, n, team);
    for (int w = 0; w < team; ++w) {
      std::vector<index_t> got(300);
      plan.fill(w, 0, got.size(), got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], plan.pick(w, i))
            << "team=" << team << " w=" << w << " i=" << i;
    }
  }
}

// --- (b) direction multiset invariance across worker counts -----------------

std::vector<index_t> sequential_multiset(std::uint64_t seed, index_t n,
                                         int sweeps) {
  const Philox4x32 dirs(seed);
  std::vector<index_t> all(static_cast<std::size_t>(sweeps) *
                           static_cast<std::size_t>(n));
  dirs.fill_indices(0, all.size(), n, all.data());
  std::sort(all.begin(), all.end());
  return all;
}

TEST(DirectionMultiset, PlanTilesTheSequentialStream) {
  SolveControls opt;
  opt.seed = 21;
  opt.sweeps = 50;
  const index_t n = 97;
  const std::vector<index_t> expected =
      sequential_multiset(opt.seed, n, opt.sweeps);
  for (int team : {1, 2, 4}) {
    const detail::DirectionPlan plan(opt, n, team);
    std::vector<index_t> all;
    for (int w = 0; w < team; ++w) {
      const std::uint64_t mine = plan.total_updates(w, opt.sweeps);
      std::vector<index_t> picks(static_cast<std::size_t>(mine));
      plan.fill(w, 0, picks.size(), picks.data());
      all.insert(all.end(), picks.begin(), picks.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, expected) << "team=" << team;
  }
}

TEST(DirectionMultiset, BarrierSplitTilesWhenWorkersExceedRows) {
  // Regression: with more workers than rows, the shared-scope per-sweep
  // formula used to hand workers w >= n one update each, consuming stream
  // positions owned by the next sweep twice.
  SolveControls opt;
  opt.seed = 5;
  const index_t n = 3;
  const Philox4x32 dirs(opt.seed);
  for (int team : {4, 5, 8}) {
    const detail::DirectionPlan plan(opt, n, team);
    index_t total = 0;
    for (int w = 0; w < team; ++w) {
      if (w >= n) {
        EXPECT_EQ(plan.per_sweep(w), 0) << "team=" << team;
      }
      total += plan.per_sweep(w);
    }
    EXPECT_EQ(total, n) << "team=" << team;
    // Per-sweep splits must tile each sweep's slice of the stream exactly.
    for (int sweep = 0; sweep < 3; ++sweep) {
      std::vector<index_t> all;
      for (int w = 0; w < team; ++w) {
        std::vector<index_t> picks(
            static_cast<std::size_t>(plan.per_sweep(w)));
        plan.fill_in_sweep(w, sweep, 0, picks.size(), picks.data());
        all.insert(all.end(), picks.begin(), picks.end());
      }
      std::vector<index_t> expected(static_cast<std::size_t>(n));
      dirs.fill_indices(static_cast<std::uint64_t>(sweep) *
                            static_cast<std::uint64_t>(n),
                        expected.size(), n, expected.data());
      std::sort(all.begin(), all.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(all, expected) << "team=" << team << " sweep=" << sweep;
    }
  }
}

/// Instrumented update functor: records every direction each worker executes.
struct RecordingUpdate {
  std::vector<std::vector<index_t>>* per_worker;
  void operator()(int id, index_t r, index_t) const {
    (*per_worker)[static_cast<std::size_t>(id)].push_back(r);
  }
};

TEST(DirectionMultiset, EngineConsumptionMatchesSequentialAllModes) {
  ThreadPool pool(4);
  const index_t n = 97;
  SolveControls base;
  base.seed = 33;
  base.sweeps = 50;
  base.sync_interval_seconds = 0.005;
  const std::vector<index_t> expected =
      sequential_multiset(base.seed, n, base.sweeps);

  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep,
                        SyncMode::kTimedBarrier}) {
    for (int workers : {1, 2, 4}) {
      SolveControls opt = base;
      opt.sync = sync;
      opt.workers = workers;
      std::vector<std::vector<index_t>> per_worker(
          static_cast<std::size_t>(workers));
      SolveOutcome report;
      auto residual = [](int, int) { return 0.0; };
      detail::run_engine(pool, opt, n, workers,
                         detail::direction_plans(opt, n), {},
                         RecordingUpdate{&per_worker}, residual, report);
      std::vector<index_t> all;
      for (const auto& v : per_worker) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end());
      EXPECT_EQ(all, expected)
          << "sync=" << static_cast<int>(sync) << " workers=" << workers;
    }
  }
}

TEST(DirectionMultiset, EngineHandlesMoreWorkersThanRows) {
  ThreadPool pool(8);
  const index_t n = 3;
  SolveControls opt;
  opt.seed = 41;
  opt.sweeps = 20;
  opt.workers = 5;
  const std::vector<index_t> expected =
      sequential_multiset(opt.seed, n, opt.sweeps);
  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
    opt.sync = sync;
    std::vector<std::vector<index_t>> per_worker(5);
    SolveOutcome report;
    auto residual = [](int, int) { return 0.0; };
    detail::run_engine(pool, opt, n, 5, detail::direction_plans(opt, n), {},
                       RecordingUpdate{&per_worker}, residual, report);
    std::vector<index_t> all;
    for (const auto& v : per_worker) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, expected) << "sync=" << static_cast<int>(sync);
  }
}

// --- (c) templated kernels: single-worker bit-exactness ---------------------

TEST(KernelBitExactness, AtomicSingleWorkerEqualsSequential) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 3);

  RgsOptions seq;
  seq.sweeps = 40;
  seq.seed = 123;
  std::vector<double> x_seq(a.rows(), 0.0);
  rgs_solve(a, b, x_seq, seq);

  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
    std::vector<double> x_async(a.rows(), 0.0);
    SolveControls opt;
    opt.sweeps = 40;
    opt.seed = 123;
    opt.workers = 1;
    opt.sync = sync;
    async_rgs_solve(pool, a, b, x_async, opt);
    EXPECT_EQ(x_seq, x_async) << "sync=" << static_cast<int>(sync);
  }
}

TEST(KernelBitExactness, RacySingleWorkerEqualsAtomicSingleWorker) {
  // With one worker there are no races, so the racy kernel must follow the
  // identical arithmetic path as the atomic one.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b = random_vector(a.rows(), 5);
  std::vector<double> x_atomic(a.rows(), 0.0);
  std::vector<double> x_racy(a.rows(), 0.0);
  SolveControls opt;
  opt.sweeps = 30;
  opt.seed = 7;
  opt.workers = 1;
  async_rgs_solve(pool, a, b, x_atomic, opt);
  opt.atomic_writes = false;
  async_rgs_solve(pool, a, b, x_racy, opt);
  EXPECT_EQ(x_atomic, x_racy);
}

TEST(KernelBitExactness, BlockSingleWorkerEqualsSequentialBlock) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(7, 7);
  const MultiVector b = random_multivector(a.rows(), 3, 11);

  RgsOptions seq;
  seq.sweeps = 25;
  seq.seed = 77;
  MultiVector x_seq(a.rows(), 3);
  rgs_solve_block(a, b, x_seq, seq);

  MultiVector x_async(a.rows(), 3);
  SolveControls opt;
  opt.sweeps = 25;
  opt.seed = 77;
  opt.workers = 1;
  async_rgs_solve_block(pool, a, b, x_async, opt);

  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t c = 0; c < 3; ++c)
      ASSERT_EQ(x_seq.at(i, c), x_async.at(i, c)) << i << "," << c;
}

}  // namespace
}  // namespace asyrgs
