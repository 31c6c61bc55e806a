// Prepared-solver handles: pay matrix analysis once, solve many times.
//
// The paper's methodology (and its motivating big-data workload, Section 9)
// fixes the matrix and varies only the right-hand side, worker count, and
// synchronization regime.  A server answering many solves against one
// operator should therefore pay per-matrix costs — symmetry/diagonal
// validation, transpose materialization, diagonal reciprocals, column-norm
// denominators, per-worker scratch — exactly once.  This header provides
// that split:
//
//   SpdProblem / LsqProblem   per-problem state: matrix + attached pool +
//                             cached analysis + reusable solver scratch
//   SolveControls             per-call knobs: method, tolerance, seed,
//                             workers, sync/scope/scan, step size
//   SolveOutcome              structured result (SolveStatus enum)
//
// SolveControls and SolveOutcome (core/async_rgs.hpp) are the only per-call
// input and output of the handles, of the asynchronous one-shot functions
// (async_rgs_solve, async_rgs_solve_block, async_lsq_solve) and of the
// engine beneath them.  The one-shot functions, and solve_spd, are thin
// wrappers constructing a temporary handle — identical arithmetic, so
// equal-seed pinned-scan runs through either interface are bit-identical.
//
// Thread-safety: a handle's prepared state is immutable after construction
// and its mutable scratch is guarded by an internal (recursive) mutex —
// concurrent solve() calls on one handle from different threads are safe and
// are serialized, running one after another (the attached ThreadPool hosts
// one team at a time anyway).  For genuinely parallel solves use one handle
// per pool.  The bound CsrMatrix and ThreadPool must outlive the handle.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/linalg/multivector.hpp"
#include "asyrgs/sampling/direction_sampler.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

/// Requested CSR storage policy for a prepared handle, resolved once at
/// construction (see resolve_storage_policy for the exact rules).  The
/// narrow policies build a compact copy of the bound matrix at preparation
/// time — int32 column indices halve the index bandwidth of every row scan,
/// and kInt32Mixed additionally halves the value bandwidth (accumulation
/// stays double; see docs/TUNING.md for when each wins).  Pinned-scan
/// int32/double arithmetic is bit-identical to full width, which is why
/// kAuto may narrow by default without breaking reproducibility contracts.
enum class StorageMode {
  kAuto,         ///< int32/double when the shape fits, else full width
  kInt64Double,  ///< full width; no compact copy is built
  kInt32Double,  ///< compact indices; falls back to full width on overflow
  kInt32Mixed,   ///< compact indices + float values, double accumulation
};

/// Human-readable mode name ("auto", "int64_double", "int32_double",
/// "int32_mixed").
[[nodiscard]] const char* to_string(StorageMode mode) noexcept;

/// Resolves a storage request against the widest coordinate a policy's
/// index type must represent (`max_index` = cols() for SPD handles; for
/// least-squares handles max(rows(), cols()), because the transpose's
/// column indices are row indices) and the matrix's nonzero count.  kAuto
/// narrows whenever both fit int32; an explicit narrow request that does
/// not fit falls back to kInt64Double and reports it through `*fell_back`
/// (surfaced as ProblemStats::storage_fallbacks).  The nnz guard is
/// deliberately conservative: the compact row-pointer array physically
/// stays 64-bit, but a matrix whose nnz overflows int32 is far past the
/// regime where index narrowing pays, and refusing it keeps every count
/// derived from the compact copy (row extents, per-partition nnz) safely
/// inside 32-bit arithmetic.  Exposed separately so both overflow guards
/// are testable by shape arithmetic alone — exercising the fallback
/// through a real handle would require materializing a > 2^31-entry
/// operator.
[[nodiscard]] StoragePolicy resolve_storage_policy(
    StorageMode mode, index_t max_index, nnz_t nnz,
    bool* fell_back = nullptr) noexcept;

namespace detail {
/// One operator at every width a prepared handle may run it: the bound
/// full-width matrix plus, when the resolved policy narrows, its compact
/// copy (built once at preparation; shared_ptr so shard clones alias it).
/// At most one of a32 / amixed is non-null.
struct StoredMatrix {
  const CsrMatrix* full = nullptr;
  std::shared_ptr<const CsrMatrix32> a32;
  std::shared_ptr<const CsrMatrixMixed> amixed;

  StoredMatrix() = default;
  StoredMatrix(const CsrMatrix& a, StoragePolicy policy);
};

/// Reusable per-handle solver scratch (rhs packing, engine buffers); defined
/// in problem.cpp so the unstable engine/kernel internals never enter this
/// public header.
struct ProblemScratch;

/// Prepare-time partition analysis for SpdProblem (RCM permutation, the
/// permuted operator — narrowed per the handle's storage policy — and its
/// permuted diagonal reciprocals); defined in problem.cpp.  Immutable once
/// built, shared between clones like the compact storage copies.
struct SpdPartitionState;
}  // namespace detail

/// Counters of the preparation work a handle has performed — lets tests (and
/// monitoring) assert that analysis is paid once per problem, not per solve.
struct ProblemStats {
  int validation_passes = 0;  ///< symmetry/diagonal/rank checks performed
  int transpose_builds = 0;   ///< explicit A^T constructions triggered
  /// Completed solve() calls, counting inner preconditioner applications:
  /// one kFcgAsyRgs solve contributes 1 + (outer iterations), because each
  /// preconditioner application re-enters solve() on this handle.  The
  /// counter evidences amortization, not requests served.
  long long solves = 0;
  /// Scratch growth events (direction buffers, team-reduce, slabs); a
  /// repeat solve with unchanged shapes/team must not increase this.
  long long scratch_allocations = 0;
  /// Storage policy resolved at preparation (what the asynchronous kernels
  /// run against).
  StoragePolicy storage = StoragePolicy::kInt64Double;
  /// Explicit narrow-storage requests that overflowed the index width and
  /// fell back to full storage (0 or 1 per handle; clones inherit it).
  int storage_fallbacks = 0;
  /// Alias-table build passes paid so far: 1 per lazily cached static
  /// weighted sampler (amortized across solves), plus every residual-policy
  /// build/refresh.  Repeat kWeighted solves must not increase this.
  long long sampler_builds = 0;
  /// RCM partition analyses performed (0 or 1 per handle: built on the
  /// first partitioned solve or prepare_partitions() call and cached;
  /// clones inherit the analysis and report 0).
  int partition_builds = 0;
};

/// Prepared handle for repeated solves of SPD A x = b against one matrix.
///
/// Construction performs all per-matrix analysis: the strictly-positive-
/// diagonal check and reciprocal precomputation always; the symmetry
/// validation (one cached transpose + entrywise compare) when `check_input`
/// is set.  solve() then pays only per-call work.
class SpdProblem {
 public:
  /// Binds `a` (kept by reference; must outlive the handle) and `pool`.
  /// `check_input` validates symmetry up front — recommended for
  /// user-supplied matrices, skippable for generated/trusted ones.
  /// `storage` selects the CSR policy the asynchronous kernels run against
  /// (resolve_storage_policy documents the kAuto/fallback rules); a narrow
  /// policy builds its compact copy here, once, so solves pay none of it.
  SpdProblem(ThreadPool& pool, const CsrMatrix& a, bool check_input = true,
             StorageMode storage = StorageMode::kAuto);

  /// Shard clone: binds `pool` to the matrix of `other` and reuses its
  /// completed analysis (diagonal reciprocals, the symmetry verdict, and —
  /// when already built — the partition analysis) instead of re-validating —
  /// the per-shard construction path of SolverService, where N pools serve
  /// one analyzed matrix.  O(n), no O(nnz) work; the clone's ProblemStats
  /// start at zero validation passes / transpose / partition builds.
  /// `other` must be fully constructed; cloning is safe concurrently with
  /// solves on `other` (the lazily built caches are read under its lock).
  SpdProblem(ThreadPool& pool, const SpdProblem& other);
  ~SpdProblem();  // out-of-line: ProblemScratch is incomplete here

  SpdProblem(const SpdProblem&) = delete;
  SpdProblem& operator=(const SpdProblem&) = delete;

  /// Solves A x = b starting from `x` (in place) with per-call `controls`.
  /// With SpdMethod::kAuto the method is AsyRGS when rel_tol == 0 or
  /// rel_tol >= 1e-4 (the low-accuracy regime) and FCG+AsyRGS otherwise.
  SolveOutcome solve(const std::vector<double>& b, std::vector<double>& x,
                     const SolveControls& controls = {});

  /// Block variant: every coordinate update applies to all columns of X
  /// (the paper's 51-right-hand-side experiment).  Asynchronous only
  /// (method must be kAuto or kAsyncRgs); the block kernel always runs the
  /// pinned scan — scan_executed reports it.
  SolveOutcome solve(const MultiVector& b, MultiVector& x,
                     const SolveControls& controls = {});

  /// Forces the RCM partition analysis now instead of on the first
  /// partitioned solve — the prepare-time hook SolverService uses so shard
  /// clones inherit the analysis and serving never pays it on a request.
  /// Idempotent; counted once in ProblemStats::partition_builds.
  void prepare_partitions();

  [[nodiscard]] const CsrMatrix& matrix() const noexcept { return a_; }
  [[nodiscard]] ThreadPool& pool() const noexcept { return pool_; }
  [[nodiscard]] index_t dimension() const noexcept { return a_.rows(); }
  /// The CSR policy resolved at construction (what the asynchronous solve
  /// paths run against; also in ProblemStats::storage).
  [[nodiscard]] StoragePolicy storage() const noexcept { return storage_; }
  [[nodiscard]] ProblemStats stats() const;

 private:
  friend class AsyRgsPreconditioner;

  /// The cached partition analysis, building it on first use (caller must
  /// hold mutex_).
  const detail::SpdPartitionState& partition_state();

  SolveOutcome solve_async(const std::vector<double>& b,
                           std::vector<double>& x,
                           const SolveControls& controls);
  SolveOutcome solve_partitioned(const std::vector<double>& b,
                                 std::vector<double>& x,
                                 const SolveControls& controls);
  SolveOutcome solve_krylov(const std::vector<double>& b,
                            std::vector<double>& x,
                            const SolveControls& controls, SpdMethod method);

  ThreadPool& pool_;
  const CsrMatrix& a_;
  detail::StoredMatrix stored_;  ///< a_ at the resolved storage policy
  StoragePolicy storage_ = StoragePolicy::kInt64Double;
  std::vector<double> inv_diag_;
  /// kWeighted sampler (weights: squared row norms of the bound full-width
  /// matrix), built lazily on the first weighted solve and cached — guarded
  /// by mutex_ like all mutable solve state.
  std::optional<DirectionSampler> weighted_sampler_;
  /// Partition analysis (RCM order + permuted operator), built lazily on
  /// the first partitioned solve or prepare_partitions() and cached —
  /// mutex_-guarded; clones alias the prototype's state.
  std::shared_ptr<const detail::SpdPartitionState> partition_;
  mutable std::recursive_mutex mutex_;  // recursive: FCG solves re-enter via
                                        // the preconditioner's inner solves
  std::unique_ptr<detail::ProblemScratch> scratch_;
  ProblemStats stats_;
};

/// Prepared handle for repeated least-squares solves min ||A x - b|| against
/// one matrix (asynchronous randomized coordinate descent, Section 8).
///
/// Construction materializes (or borrows) A^T, precomputes the column
/// squared-norm denominators, and validates full column rank — all costs the
/// one-shot API used to pay per call.
class LsqProblem {
 public:
  /// Binds `a` and builds A^T through the matrix's shared transpose cache
  /// (so several handles — or the convenience free function — against one
  /// matrix construct the transpose a single time).  `storage` narrows both
  /// A and A^T; because the transpose's column indices are row indices,
  /// narrowing requires max(rows, cols) to fit the index width (kAuto
  /// checks it, explicit requests fall back — see resolve_storage_policy).
  LsqProblem(ThreadPool& pool, const CsrMatrix& a,
             StorageMode storage = StorageMode::kAuto);

  /// Binds a caller-materialized transpose (not copied; `a` and `at` must
  /// outlive the handle).  Validates that shapes are transposed.
  LsqProblem(ThreadPool& pool, const CsrMatrix& a, const CsrMatrix& at,
             StorageMode storage = StorageMode::kAuto);

  /// Shard clone: binds `pool` to the matrix of `other` and reuses its
  /// analysis — the shared A^T (same instance, held through the matrix
  /// cache) and the column squared-norm denominators — skipping the rank
  /// check.  The clone's ProblemStats start at zero validation passes /
  /// transpose builds.  Safe concurrently with solves on `other`.
  LsqProblem(ThreadPool& pool, const LsqProblem& other);
  ~LsqProblem();  // out-of-line: ProblemScratch is incomplete here

  LsqProblem(const LsqProblem&) = delete;
  LsqProblem& operator=(const LsqProblem&) = delete;

  /// Solves min ||A x - b|| from `x` (in place).  `controls.method` routes
  /// between the two asynchronous methods: kAuto/kAsyncRgs run randomized
  /// coordinate descent over the columns of A (iteration (21));
  /// kAsyncKaczmarz runs the row-action method — directions are rows, each
  /// update projects x onto its row's hyperplane with the 1/||A_i||^2
  /// denominators precomputed at preparation (zero rows no-op).  The
  /// Krylov methods are rejected.  Convergence metric for both:
  /// ||A^T(b - Ax)|| / ||A^T b|| — for inconsistent systems the Kaczmarz
  /// iterate converges to a neighbourhood of the least-squares solution
  /// (radius shrinking with beta), so pair it with a modest rel_tol.
  SolveOutcome solve(const std::vector<double>& b, std::vector<double>& x,
                     const SolveControls& controls = {});

  [[nodiscard]] const CsrMatrix& matrix() const noexcept { return a_; }
  [[nodiscard]] const CsrMatrix& transpose() const noexcept { return *at_; }
  /// The CSR policy resolved at construction.
  [[nodiscard]] StoragePolicy storage() const noexcept { return storage_; }
  [[nodiscard]] ProblemStats stats() const;

 private:
  /// Shared preparation of both binding constructors: column and row norms,
  /// the rank check, and the storage resolution for (A, A^T).
  void prepare(StorageMode storage);

  ThreadPool& pool_;
  const CsrMatrix& a_;
  std::shared_ptr<const CsrMatrix> at_holder_;  // cached-transpose mode
  const CsrMatrix* at_;
  /// (A, A^T) at the resolved storage policy: both operands narrow or
  /// neither — the update kernel walks rows of A and rows of A^T in one
  /// pass, and mixing widths there would force per-access dispatch.
  detail::StoredMatrix stored_a_;
  detail::StoredMatrix stored_at_;
  StoragePolicy storage_ = StoragePolicy::kInt64Double;
  std::vector<double> col_sq_;      // ||A_{:,j}||^2 update denominators
  std::vector<double> row_sq_;      // ||A_i||^2 (Kaczmarz sampling weights)
  std::vector<double> inv_row_sq_;  // 1/||A_i||^2 projection denominators
                                    // (0 for zero rows: their update no-ops)
  /// Lazily cached kWeighted samplers — columns (coordinate descent,
  /// weights col_sq_) and rows (Kaczmarz, weights row_sq_); mutex_-guarded.
  std::optional<DirectionSampler> weighted_cols_;
  std::optional<DirectionSampler> weighted_rows_;
  mutable std::recursive_mutex mutex_;
  std::unique_ptr<detail::ProblemScratch> scratch_;
  ProblemStats stats_;
};

}  // namespace asyrgs
