// Ablation F — Restricted randomization ("owner computes", Sections 1/10).
//
// Two of the paper's acknowledged limitations point at the same remedy:
//   * "Adapting the algorithm to the distributed memory setting is not
//     straightforward ... a more limited form of randomization should be
//     used";
//   * "Our algorithm also tends to generate much more cache misses than
//     classical asynchronous methods for structured matrices ... it may be
//     possible to circumvent this using a more restricted form of
//     randomization."
//
// This bench compares the shared scope (any worker updates any coordinate)
// against partitioned scheduling on an SpdProblem handle (RCM order,
// nonzero-balanced cuts, each worker drawing only from the partitions it
// owns): at steal rate 0 that is pure owner-computes, at 0.05 a few draws
// per hundred steal a neighbour-owned halo row (Liu-Wright-style restricted
// sampling).  Every run synchronizes once per sweep (kBarrierPerSweep), on
// a *structured* matrix (3-D Laplacian, where locality pays) and on the
// unstructured Gram matrix (where it cannot), reporting sweep throughput
// and the residual after a fixed budget.
#include <iostream>

#include "bench_common.hpp"

using namespace asyrgs;
using namespace asyrgs::bench;

int main(int argc, char** argv) {
  CliParser cli("ablation_ownership",
                "shared vs partitioned (owner-computes) randomization");
  auto sweeps = cli.add_int("sweeps", 40, "sweep budget per run");
  auto threads = cli.add_int("threads", 0, "worker threads (0 = all)");
  auto grid = cli.add_int("grid", 28, "3-D Laplacian grid side");
  auto repeats = cli.add_int("repeats", 3, "timing repetitions (min)");
  cli.parse(argc, argv);

  print_banner("ablation_ownership",
               "Sections 1/10 restricted-randomization extension");
  ThreadPool& pool = ThreadPool::global();
  const int workers = *threads > 0 ? static_cast<int>(*threads) : pool.size();
  // Two partitions per worker: the low end of the docs/TUNING.md guidance.
  const int partitions = 2 * workers;

  struct Case {
    std::string label;
    CsrMatrix matrix;
  };
  std::vector<Case> cases;
  cases.push_back({"laplacian_3d", laplacian_3d(*grid, *grid, *grid)});
  {
    SocialGramOptions gopt;
    gopt.terms = 3000;
    gopt.documents = 12000;
    gopt.ridge = 0.5;
    gopt.topics = 100;
    gopt.topic_concentration = 0.92;
    cases.push_back({"social_gram", make_social_gram(gopt).gram});
  }

  struct Schedule {
    const char* label;
    int partitions;
    double steal_rate;
  };
  const Schedule schedules[] = {{"shared", 0, 0.0},
                                {"partitioned", partitions, 0.0},
                                {"partitioned", partitions, 0.05}};

  std::cout << "# " << workers << " workers, " << partitions
            << " partitions, barrier per sweep\n";
  Table table({"matrix", "schedule", "steal_rate", "time_per_sweep_ms",
               "rel_residual", "speed_vs_shared"});
  for (const Case& c : cases) {
    const std::vector<double> x_star = random_vector(c.matrix.rows(), 3);
    const std::vector<double> b = rhs_from_solution(c.matrix, x_star);
    SpdProblem problem(pool, c.matrix);
    problem.prepare_partitions();  // RCM analysis outside the timed solves

    double shared_time = 0.0;
    for (const Schedule& s : schedules) {
      double best = 1e300;
      double residual = 0.0;
      for (int rep = 0; rep < *repeats; ++rep) {
        std::vector<double> x(c.matrix.rows(), 0.0);
        SolveControls opt;
        opt.method = SpdMethod::kAsyncRgs;
        opt.sweeps = static_cast<int>(*sweeps);
        opt.workers = workers;
        opt.seed = 1;
        opt.sync = SyncMode::kBarrierPerSweep;
        opt.partitions = s.partitions;
        opt.steal_rate = s.steal_rate;
        const SolveOutcome r = problem.solve(b, x, opt);
        best = std::min(best, r.seconds);
        residual = relative_residual(c.matrix, b, x);
      }
      const double per_sweep_ms = best / static_cast<double>(*sweeps) * 1e3;
      if (s.partitions == 0) shared_time = best;
      table.add_row({c.label, s.label, fmt_fixed(s.steal_rate, 2),
                     fmt_fixed(per_sweep_ms, 3), fmt_sci(residual, 2),
                     fmt_fixed(shared_time / best, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "# shape check: partitioned scheduling speeds up the "
               "structured matrix (locality) more than the unstructured "
               "Gram,\n"
            << "# at equal sweep counts and comparable accuracy — the "
               "restricted randomization the paper proposes.\n";
  return 0;
}
