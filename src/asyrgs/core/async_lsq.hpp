// Randomized coordinate descent for overdetermined least squares, and its
// asynchronous variant (paper Section 8, iterations (20)/(21), Theorem 5).
//
// Problem: min_x ||A x - b||_2 with A (m x n, m >= n) of full column rank.
// The method is stochastic coordinate descent on f(x) = ||Ax - b||^2, i.e.
// randomized Gauss-Seidel applied to the normal equations A^T A x = A^T b
// without forming A^T A:
//
//   pick column j at random
//   gamma = A_{:,j}^T (b - A x) / ||A_{:,j}||_2^2
//   x_j  += beta * gamma
//
// The sequential form (iteration (20)) keeps the residual r = b - Ax
// up to date, costing O(nnz(column j)).  The asynchronous form cannot: "updates
// to r cannot be atomic, so ... the necessary entries of the residual have
// to be computed in each iteration" (Section 8) — each update re-reads the
// touched rows of A, costing O(sum of row sizes over the column's rows).
// Theorem 5 transfers the Theorem 4 bound with X = A^T A, kappa(A)^2 in
// place of kappa.
#pragma once

#include <cstdint>

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/core/rgs.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

/// Sequential randomized coordinate descent for least squares
/// (iteration (20) with residual maintenance).  One reported sweep =
/// n column updates.  Convergence metric: ||A^T r|| / ||A^T b||.
RgsReport rcd_lsq_solve(const CsrMatrix& a, const std::vector<double>& b,
                        std::vector<double>& x, const RgsOptions& options = {});

/// Asynchronous randomized least-squares solver (iteration (21)).
/// `at` must be the transpose of `a` (built once by the caller; it gives the
/// solver CSR access to the columns of A).  Runs through a temporary
/// LsqProblem with `controls.method` pinned to kAsyncRgs (coordinate
/// descent); `step_size` must be < 1 for the Theorem 5 guarantee.
/// `scope` partitions the *columns* (the least-squares coordinates) under
/// RandomizationScope::kOwnerComputes, and `scan` selects the FP
/// association of the inner row scans (ScanMode; the kernel's dominant FP
/// cost).  Thread-safety matches async_rgs_solve: matrices and b are
/// read-only, `x` is written concurrently until the call returns.
SolveOutcome async_lsq_solve(ThreadPool& pool, const CsrMatrix& a,
                             const CsrMatrix& at, const std::vector<double>& b,
                             std::vector<double>& x,
                             const SolveControls& controls = {});

/// Convenience overload that materializes the transpose internally, through
/// the matrix's shared transpose cache (CsrMatrix::transpose_shared) — so
/// repeated calls against one matrix build A^T exactly once.  For the full
/// prepare-once / solve-many split (column norms, rank validation, scratch),
/// use asyrgs::LsqProblem (asyrgs/problem.hpp), which this wraps.
SolveOutcome async_lsq_solve(ThreadPool& pool, const CsrMatrix& a,
                             const std::vector<double>& b,
                             std::vector<double>& x,
                             const SolveControls& controls = {});

}  // namespace asyrgs
