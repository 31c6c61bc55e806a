// The one-shot AsyRGS entry points, as thin wrappers over a temporary
// prepared handle (asyrgs/problem.hpp).  The kernels and the engine
// invocation live in problem.cpp / core/kernels.hpp — these functions only
// bind a throwaway SpdProblem, so one-shot and prepared solves share every
// instruction of the hot path (and equal-seed pinned-scan runs are
// bit-identical through either interface).
#include "asyrgs/core/async_rgs.hpp"

#include "asyrgs/problem.hpp"

namespace asyrgs {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kConverged:
      return "converged";
    case SolveStatus::kToleranceNotReached:
      return "tolerance-not-reached";
    case SolveStatus::kBudgetCompleted:
      return "budget-completed";
    case SolveStatus::kRejected:
      return "rejected";
  }
  return "?";
}

SolveOutcome async_rgs_solve(ThreadPool& pool, const CsrMatrix& a,
                             const std::vector<double>& b,
                             std::vector<double>& x,
                             const SolveControls& controls) {
  SolveControls c = controls;
  c.method = SpdMethod::kAsyncRgs;  // kAuto would pick FCG for small rel_tol
  return SpdProblem(pool, a, /*check_input=*/false).solve(b, x, c);
}

SolveOutcome async_rgs_solve_block(ThreadPool& pool, const CsrMatrix& a,
                                   const MultiVector& b, MultiVector& x,
                                   const SolveControls& controls) {
  SolveControls c = controls;
  c.method = SpdMethod::kAsyncRgs;
  return SpdProblem(pool, a, /*check_input=*/false).solve(b, x, c);
}

}  // namespace asyrgs
