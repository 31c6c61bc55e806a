// Time-to-tolerance benchmark program for the asyrgs library.
//
// One process runs one workload for a fixed measurement window and prints a
// single JSON record on stdout: host and input fingerprint, attempted and
// failed operations, every metric it measured (value, unit, sample count)
// and, in traced mode, the span totals per layer.  run.py builds this
// program, selects the metrics BENCHMARK.json names and prints the result
// line.
//
//   tts_bench --workload gram_tts|laplacian_1m|serve_mix --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// Untraced mode measures the end-to-end metrics only.  Traced mode runs the
// same workload with spans recorded around every call into the library,
// then a per-layer ledger: one probe per module (sparse, sampling, core,
// problem, iter, serve, thread pool) whose spans and counters give the
// per-layer metrics.  Every solve starts from x = 0 and is verified after
// its timed region by recomputing its residual with the plain loops below,
// which share no code with the library's kernels.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cpuid.h>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "asyrgs/asyrgs.hpp"

using namespace asyrgs;

namespace {

using Clock = std::chrono::steady_clock;

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// q-quantile by linear interpolation between order statistics (the
/// "inclusive" definition); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const double qab = a + b, qap = a + 1.0, qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
  double h = d;
  for (int m = 1; m <= 500; ++m) {
    const double m2 = 2.0 * m;
    for (const double aa : {m * (b - m) * x / ((qam + m2) * (a + m2)),
                            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))}) {
      d = 1.0 + aa * d;
      d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
      c = 1.0 + aa / c;
      if (std::fabs(c) < kTiny) c = kTiny;
      h *= d * c;
    }
    if (std::fabs(d * c - 1.0) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_cf(a, b, x) / a;
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

/// Harrell-Davis estimate of the q-quantile: a Beta-weighted average of all
/// order statistics.  Latency percentiles use it because a tail quantile
/// read from the top two order statistics of a few dozen solves jumps with
/// every outlier, while this estimate moves with the whole tail.
double hd_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = (n + 1.0) * q, b = (n + 1.0) * (1.0 - q);
  double sum = 0.0, prev = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double cdf = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    sum += (cdf - prev) * v[i];
    prev = cdf;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Metrics and spans
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  long long samples = 1;
};

std::map<std::string, Metric> g_metrics;

void put(const std::string& name, double value, const std::string& unit,
         long long samples = 1) {
  g_metrics[name] = Metric{value, unit, samples};
}

/// Raw samples behind the end-to-end figures, kept in the record so runs
/// can be re-analysed.
std::map<std::string, std::vector<double>> g_series;

/// In-memory span recorder.  A span is (layer, start, end, parent); spans
/// opened on one thread nest through a thread-local current-span id.  With
/// tracing off, Scope does nothing, so the untraced run pays no clock reads
/// beyond its own timers.  Written out as per-layer totals at the end.
class Tracer {
 public:
  struct Span {
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    long long parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        id_ = tracer_->open(layer);
        saved_parent_ = current_;
        current_ = id_;
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->close(id_);
        current_ = saved_parent_;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    long long id_ = -1;
    long long saved_parent_ = -1;
  };

  /// Opens a span on `tracer` when it is non-null (tracing on).
  static Scope span(Tracer* tracer, const char* layer) {
    return Scope(tracer, layer);
  }

  /// Per layer: span count, total duration, self time (duration minus the
  /// part covered by child spans).
  std::string summary_json() const {
    std::map<std::string, std::array<double, 3>> by_layer;
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& row = by_layer[spans_[i].layer];
      const double d = spans_[i].end - spans_[i].start;
      row[0] += 1.0;
      row[1] += d;
      row[2] += d - child[i];
    }
    std::ostringstream out;
    out.precision(9);
    out << "{";
    bool first = true;
    for (const auto& [layer, row] : by_layer) {
      out << (first ? "" : ", ") << "\"" << layer << "\": {\"count\": "
          << static_cast<long long>(row[0]) << ", \"total_s\": " << row[1]
          << ", \"self_s\": " << row[2] << "}";
      first = false;
    }
    out << "}";
    return out.str();
  }

 private:
  long long open(const char* layer) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{layer, t, t, current_});
    return static_cast<long long>(spans_.size() - 1);
  }
  void close(long long id) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  static thread_local long long current_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

thread_local long long Tracer::current_ = -1;

// ---------------------------------------------------------------------------
// Verification: residuals recomputed with plain loops
// ---------------------------------------------------------------------------

/// r = b - A x for one right-hand side.
std::vector<double> residual(const CsrMatrix& a, const double* b,
                             const double* x) {
  std::vector<double> r(static_cast<std::size_t>(a.rows()));
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& va = a.values();
  for (index_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (nnz_t t = rp[i]; t < rp[i + 1]; ++t) acc += va[t] * x[ci[t]];
    r[static_cast<std::size_t>(i)] = b[i] - acc;
  }
  return r;
}

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double e : v) s += e * e;
  return std::sqrt(s);
}

/// ||b - A x|| / ||b||.
double check_residual(const CsrMatrix& a, const std::vector<double>& b,
                         const std::vector<double>& x) {
  return norm2(residual(a, b.data(), x.data())) / norm2(b);
}

/// A^T v.
std::vector<double> transpose_times(const CsrMatrix& a,
                                    const std::vector<double>& v) {
  std::vector<double> y(static_cast<std::size_t>(a.cols()), 0.0);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& va = a.values();
  for (index_t i = 0; i < a.rows(); ++i)
    for (nnz_t t = rp[i]; t < rp[i + 1]; ++t)
      y[static_cast<std::size_t>(ci[t])] += va[t] * v[static_cast<std::size_t>(i)];
  return y;
}

/// Normal-equations residual ||A^T (b - A x)|| / ||A^T b||.
double normal_residual(const CsrMatrix& a, const std::vector<double>& b,
                       const std::vector<double>& x) {
  return norm2(transpose_times(a, residual(a, b.data(), x.data()))) /
         norm2(transpose_times(a, b));
}

/// ||B - A X||_F / ||B||_F over the columns of a row-major block.
double block_relative_residual(const CsrMatrix& a, const MultiVector& b,
                               const MultiVector& x) {
  double num = 0.0;
  double den = 0.0;
  for (index_t c = 0; c < b.cols(); ++c) {
    const std::vector<double> bc = b.column(c);
    const std::vector<double> xc = x.column(c);
    const double rn = norm2(residual(a, bc.data(), xc.data()));
    const double bn = norm2(bc);
    num += rn * rn;
    den += bn * bn;
  }
  return std::sqrt(num / den);
}

/// A recomputed residual passes when it is within the tolerance, allowing
/// only for the summation-order difference between this check and the
/// solver's own residual.
bool within(double recomputed, double tol) {
  return std::isfinite(recomputed) && recomputed <= tol * (1.0 + 1e-9);
}

// ---------------------------------------------------------------------------
// Host and input fingerprint
// ---------------------------------------------------------------------------

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Bytes one pass over `a` (int32 indices, double values, as the prepared
/// handles store it) plus one dense read and one dense write touches —
/// computed from array sizes, not measured.
double working_set_bytes(index_t rows, index_t cols, nnz_t nnz) {
  return static_cast<double>(nnz) * (4.0 + 8.0) +
         static_cast<double>(rows + 1) * 8.0 +
         static_cast<double>(cols) * 8.0 + static_cast<double>(rows) * 8.0;
}

struct InputInfo {
  std::string name;
  index_t rows = 0;
  index_t cols = 0;
  nnz_t nnz = 0;
};

std::vector<InputInfo> g_inputs;

void note_input(const std::string& name, const CsrMatrix& a) {
  g_inputs.push_back(InputInfo{name, a.rows(), a.cols(), a.nnz()});
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  int nproc = 1;
};

/// Seeds derived from the run seed, one per purpose, so no two streams
/// coincide.
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose,
                     std::uint64_t index = 0) {
  return splitmix64(splitmix64(seed * 0x9E3779B97F4A7C15ull + purpose) + index);
}

/// The operators are fixed: the paper's setting is one matrix and a stream
/// of right-hand sides, so --seed varies the right-hand sides, solve seeds,
/// request order, arrival schedule and probe order, never the matrix.
constexpr std::uint64_t kCorpusSeed = 42;

enum Purpose : std::uint64_t {
  kRhs = 1,
  kSolveSeed,
  kClassDraw,
  kSchedule,
  kRowOrder,
  kServeRhs,
};

// ---------------------------------------------------------------------------
// Solve workloads: gram_tts and laplacian_1m
// ---------------------------------------------------------------------------

struct SolveWorkload {
  CsrMatrix a;
  SolveControls controls;     ///< at nproc workers, to tolerance
  bool partitioned = false;   ///< setup includes prepare_partitions()
  int engine_sweeps = 0;      ///< fixed budget of the core probes
};

SolveWorkload make_gram_tts(const Args& args) {
  SocialGramOptions o;
  o.terms = args.smoke ? 2000 : 20000;
  o.documents = args.smoke ? 8000 : 80000;
  o.mean_doc_length = 10;
  o.topics = args.smoke ? 20 : 100;
  o.topic_concentration = 0.92;
  o.ridge = 0.5;
  o.seed = kCorpusSeed;
  const SocialGram g = make_social_gram(o);
  SolveWorkload w;
  w.a = UnitDiagonalScaling(g.gram).scale_matrix(g.gram);
  w.controls.method = SpdMethod::kAsyncRgs;
  w.controls.sync = SyncMode::kBarrierPerSweep;
  w.controls.rel_tol = 1e-3;
  w.controls.sweeps = 5000;
  w.controls.workers = args.nproc;
  w.engine_sweeps = 60;
  return w;
}

SolveWorkload make_laplacian_1m(const Args& args) {
  const index_t side = args.smoke ? 128 : 1024;
  const CsrMatrix b = laplacian_2d(side, side);
  SolveWorkload w;
  w.a = UnitDiagonalScaling(b).scale_matrix(b);
  w.controls.method = SpdMethod::kAsyncRgs;
  w.controls.sync = SyncMode::kBarrierPerSweep;
  w.controls.rel_tol = 1e-1;
  w.controls.sweeps = 2000;
  w.controls.workers = args.nproc;
  w.controls.partitions = 8;
  w.controls.steal_rate = 0.05;
  w.partitioned = true;
  w.engine_sweeps = 6;
  return w;
}

std::vector<double> rhs_for(const CsrMatrix& a, std::uint64_t seed, int i) {
  return random_vector(a.rows(), derive(seed, kRhs, static_cast<std::uint64_t>(i)));
}

/// One timed, verified solve from x = 0.
struct SolveSample {
  double seconds = 0.0;
  SolveOutcome outcome;
  bool ok = false;
};

SolveSample timed_solve(SpdProblem& problem, const std::vector<double>& b,
                        const SolveControls& controls, Tracer* tracer,
                        const char* layer) {
  std::vector<double> x(b.size(), 0.0);
  SolveSample s;
  {
    const auto span = Tracer::span(tracer, layer);
    const double t0 = now_s();
    s.outcome = problem.solve(b, x, controls);
    s.seconds = now_s() - t0;
  }
  s.ok = s.outcome.converged() &&
         within(check_residual(problem.matrix(), b, x), controls.rel_tol);
  return s;
}

struct Counts {
  long long attempted = 0;
  long long failed = 0;
};

Counts g_counts;

void count(bool ok) {
  ++g_counts.attempted;
  if (!ok) ++g_counts.failed;
}

struct Setup {
  double prepare_s = 0.0;
  double partition_s = 0.0;
};

/// Builds the handle as the workload's setup: construction (analysis,
/// storage narrowing) plus, when partitioned, the RCM partition analysis.
std::unique_ptr<SpdProblem> build_handle(ThreadPool& pool, const CsrMatrix& a,
                                         bool partitioned, Setup* timing) {
  const double t0 = now_s();
  auto problem = std::make_unique<SpdProblem>(pool, a, /*check_input=*/true);
  const double t1 = now_s();
  if (partitioned) problem->prepare_partitions();
  timing->prepare_s = t1 - t0;
  timing->partition_s = partitioned ? now_s() - t1 : 0.0;
  return problem;
}

struct ServeInputs {
  CsrMatrix gram;    ///< unit-diagonal engine-bound Gram
  CsrMatrix factor;  ///< its document-term factor, empty columns dropped
};

void run_serve_probe(const Args& args, const ServeInputs& in, Tracer* tracer,
                     bool full);
ServeInputs make_serve_inputs(const Args& args);
void run_ledger_common(const Args& args, const CsrMatrix& a, Tracer* tracer);

/// A copy of `a` with an empty transpose cache, so a handle built on it pays
/// the whole preparation, as a first handle on a new matrix does.
std::unique_ptr<CsrMatrix> fresh_copy(const CsrMatrix& a) {
  return std::make_unique<CsrMatrix>(a.rows(), a.cols(), a.row_ptr(),
                                     a.col_idx(), a.values());
}

/// Setup, warm-up and a closed loop of solves on one handle.
struct SolvePhase {
  std::unique_ptr<CsrMatrix> matrix;  ///< the handle's; outlives it
  std::unique_ptr<SpdProblem> problem;
  std::vector<double> setup_s, prepare_s, partition_s;
  SolveSample warm;
  std::vector<double> lat, lat_traced, lat_plain, sweeps, updates;
  long long verified = 0;
  double busy = 0.0;
};

SolvePhase run_solve_phase(const Args& args, const SolveWorkload& w,
                           ThreadPool& pool, Tracer* tracer, double seconds) {
  SolvePhase ph;
  // Setup: fresh handles on fresh copies of the matrix, median reported.
  // The last one is kept.  Laplacian setup costs half a second, the others
  // tens of milliseconds.
  const int setup_reps = args.smoke ? 2 : (w.partitioned ? 5 : 15);
  for (int r = 0; r < setup_reps; ++r) {
    ph.problem.reset();
    ph.matrix = fresh_copy(w.a);
    Setup t;
    {
      const auto span = Tracer::span(tracer, "problem.setup");
      ph.problem = build_handle(pool, *ph.matrix, w.partitioned, &t);
    }
    ph.setup_s.push_back(t.prepare_s + t.partition_s);
    ph.prepare_s.push_back(t.prepare_s);
    ph.partition_s.push_back(t.partition_s);
  }

  // Untimed warm-up solve: its time is the first-solve cost.
  SolveControls c = w.controls;
  c.seed = derive(args.seed, kSolveSeed, 0);
  ph.warm = timed_solve(*ph.problem, rhs_for(w.a, args.seed, -1), c, tracer,
                        "problem.first_solve");
  count(ph.warm.ok);

  // Closed loop: one caller issues the next solve when the previous one
  // returns.  In traced mode every other solve runs without its span, which
  // gives the tracing overhead inside one run.
  const double deadline = now_s() + seconds;
  for (int i = 0; now_s() < deadline || i < 3; ++i) {
    c.seed = derive(args.seed, kSolveSeed, static_cast<std::uint64_t>(i) + 1);
    const std::vector<double> b = rhs_for(w.a, args.seed, i);
    const bool traced = tracer != nullptr && i % 2 == 0;
    const SolveSample s = timed_solve(*ph.problem, b, c,
                                      traced ? tracer : nullptr, "problem.solve");
    count(s.ok);
    if (s.ok) ++ph.verified;
    ph.busy += s.seconds;
    ph.lat.push_back(s.seconds);
    (traced ? ph.lat_traced : ph.lat_plain).push_back(s.seconds);
    ph.sweeps.push_back(s.outcome.iterations);
    ph.updates.push_back(static_cast<double>(s.outcome.updates));
  }
  return ph;
}

/// The problem- and core-layer rows of the ledger, on the phase's handle.
void put_solve_layers(const Args& args, const SolveWorkload& w,
                      ThreadPool& pool, SolvePhase& ph, Tracer* tracer) {
  SpdProblem& problem = *ph.problem;
  const auto n = static_cast<long long>(ph.lat.size());
  const auto reps = static_cast<long long>(ph.setup_s.size());
  put("core.sweeps_to_tol", median(ph.sweeps), "count", n);
  put("core.updates_to_tol", median(ph.updates), "count", n);
  put("problem.prepare_s", median(ph.prepare_s), "s", reps);
  put("problem.first_solve_s", ph.warm.seconds, "s");
  if (w.partitioned) {
    put("problem.partition_analysis_s", median(ph.partition_s), "s", reps);
  } else {
    // The workload runs unpartitioned; the analysis is measured on fresh
    // handles so the layer is still covered.
    std::vector<double> ps;
    for (int r = 0; r < 3; ++r) {
      Setup t;
      const auto span = Tracer::span(tracer, "problem.partition_analysis");
      build_handle(pool, w.a, true, &t);
      ps.push_back(t.partition_s);
    }
    put("problem.partition_analysis_s", median(ps), "s", 3);
  }

  // Fixed per-solve cost: a solve with a zero sweep budget.
  {
    SolveControls z = w.controls;
    z.sweeps = 0;
    z.rel_tol = 0.0;
    std::vector<double> t;
    const std::vector<double> b = rhs_for(w.a, args.seed, 0);
    std::vector<double> x(b.size());
    for (int r = 0; r < 30; ++r) {
      std::fill(x.begin(), x.end(), 0.0);
      const auto span = Tracer::span(tracer, "problem.solve_fixed");
      const double t0 = now_s();
      problem.solve(b, x, z);
      t.push_back(now_s() - t0);
    }
    put("problem.solve_fixed_s", median(t), "s", 30);
  }

  // Engine throughput at 1, 2 and 4 workers: fixed sweep budget, no
  // tolerance, free-running.
  {
    const std::vector<double> b = rhs_for(w.a, args.seed, 0);
    std::vector<double> x(b.size());
    auto engine = [&](int workers, SyncMode sync, double rel_tol) {
      SolveControls e = w.controls;
      e.workers = workers;
      e.sync = sync;
      e.rel_tol = rel_tol;
      e.sweeps = args.smoke ? 2 : w.engine_sweeps;
      std::vector<double> t;
      long long upd = 0;
      for (int r = 0; r < 3; ++r) {
        std::fill(x.begin(), x.end(), 0.0);
        e.seed = derive(args.seed, kSolveSeed, 1000 + static_cast<std::uint64_t>(r));
        const auto span = Tracer::span(tracer, "core.engine");
        const double t0 = now_s();
        const SolveOutcome out = problem.solve(b, x, e);
        t.push_back(now_s() - t0);
        upd = out.updates;
      }
      return std::make_pair(median(t), upd);
    };
    double ups[3] = {};
    const int ws[3] = {1, std::min(2, args.nproc), std::min(4, args.nproc)};
    const char* names[3] = {"core.updates_per_s.w1", "core.updates_per_s.w2",
                            "core.updates_per_s.w4"};
    for (int k = 0; k < 3; ++k) {
      const auto [sec, upd] = engine(ws[k], SyncMode::kFreeRunning, 0.0);
      ups[k] = static_cast<double>(upd) / sec;
      put(names[k], ups[k], "1/s", 3);
    }
    put("core.efficiency.w4", ups[2] / (ups[0] * ws[2]), "ratio", 3);
    // Barrier plus a residual check every sweep (a tolerance that is never
    // met) against free-running, same budget, at nproc workers.
    const double t_free = engine(args.nproc, SyncMode::kFreeRunning, 0.0).first;
    const double t_sync =
        engine(args.nproc, SyncMode::kBarrierPerSweep, 1e-300).first;
    put("core.sync_overhead_frac", (t_sync - t_free) / t_sync, "ratio", 3);
  }

  // Time to tolerance at 1 worker against nproc workers on the same
  // right-hand sides.  At 1 worker the barrier run is deterministic, so its
  // sweep count repeats exactly for a given seed.
  {
    std::vector<double> t1, tn;
    double sweeps_w1 = 0.0;
    for (int r = 0; r < 2; ++r) {
      SolveControls s = w.controls;
      s.seed = derive(args.seed, kSolveSeed, static_cast<std::uint64_t>(r) + 1);
      const std::vector<double> b = rhs_for(w.a, args.seed, r);
      s.workers = 1;
      const SolveSample one = timed_solve(problem, b, s, tracer, "core.tts_w1");
      count(one.ok);
      if (r == 0) sweeps_w1 = one.outcome.iterations;
      t1.push_back(one.seconds);
      s.workers = args.nproc;
      const SolveSample many = timed_solve(problem, b, s, tracer, "core.tts_wn");
      count(many.ok);
      tn.push_back(many.seconds);
    }
    put("core.tts_speedup.w4", median(t1) / median(tn), "ratio", 2);
    put("core.sweeps_to_tol.w1", sweeps_w1, "count");
  }
  put("problem.scratch_allocations",
      static_cast<double>(problem.stats().scratch_allocations), "count");
}

void run_solve_workload(const Args& args, const SolveWorkload& w,
                        Tracer* tracer) {
  ThreadPool pool(args.nproc);
  note_input(args.workload, w.a);
  SolvePhase ph = run_solve_phase(args, w, pool, tracer, args.seconds);
  const auto n = static_cast<long long>(ph.lat.size());
  put("setup_s", median(ph.setup_s), "s",
      static_cast<long long>(ph.setup_s.size()));
  put("tts_s", median(ph.lat), "s", n);
  put("solves_per_s", static_cast<double>(ph.verified) / ph.busy, "1/s", n);
  g_series["setup_s"] = ph.setup_s;
  g_series["solve_s"] = ph.lat;
  g_series["sweeps"] = ph.sweeps;
  // One caller, so each solve is sent when the previous returns and its
  // latency from the scheduled send time is its own duration.
  put("latency_p50_s", hd_quantile(ph.lat, 0.5), "s", n);
  put("latency_p99_s", hd_quantile(ph.lat, 0.99), "s", n);
  if (tracer == nullptr) return;

  put("trace.overhead_frac",
      median(ph.lat_traced) / median(ph.lat_plain) - 1.0, "ratio", n);
  put_solve_layers(args, w, pool, ph, tracer);
  ph.problem.reset();
  run_ledger_common(args, w.a, tracer);
  run_serve_probe(args, make_serve_inputs(args), tracer, /*full=*/false);
}

// ---------------------------------------------------------------------------
// Kernel and pool probes (any workload's matrix)
// ---------------------------------------------------------------------------

void run_ledger_common(const Args& args, const CsrMatrix& a, Tracer* tracer) {
  ThreadPool pool(args.nproc);
  const CsrMatrix32 a32 = convert_storage<std::int32_t, double>(a);
  const double nnz = static_cast<double>(a.nnz());
  const double min_seconds = args.smoke ? 0.05 : 0.5;

  // sparse: parallel SpMV on the int32/double copy the handles run on.
  {
    std::vector<double> x = random_vector(a.cols(), 3), y(static_cast<std::size_t>(a.rows()));
    std::vector<double> per;
    double spent = 0.0;
    while (spent < min_seconds || per.size() < 5) {
      const auto span = Tracer::span(tracer, "sparse.spmv");
      const double t0 = now_s();
      spmv(pool, a32, x, y, args.nproc);
      const double d = now_s() - t0;
      per.push_back(d);
      spent += d;
    }
    const double t = median(per);
    put("sparse.spmv_ns_per_nnz", 1e9 * t / nnz, "ns/nnz",
        static_cast<long long>(per.size()));
    put("sparse.spmv_gbs_computed",
        working_set_bytes(a.rows(), a.cols(), a.nnz()) / t / 1e9, "GB/s",
        static_cast<long long>(per.size()));
  }

  // sparse: single-threaded row scans in a seeded random row order.
  {
    std::vector<index_t> order(static_cast<std::size_t>(a.rows()));
    std::iota(order.begin(), order.end(), index_t{0});
    std::shuffle(order.begin(), order.end(),
                 Xoshiro256(derive(args.seed, kRowOrder)));
    const std::vector<double> x = random_vector(a.cols(), 5);
    const auto& rp = a32.row_ptr();
    const std::int32_t* ci = a32.col_idx().data();
    const double* va = a32.values().data();
    std::vector<double> per;
    double spent = 0.0, sink = 0.0;
    while (spent < min_seconds || per.size() < 3) {
      const auto span = Tracer::span(tracer, "sparse.row_scan");
      const double t0 = now_s();
      for (index_t r : order)
        sink += csr_row_dot(ci + rp[r], va + rp[r], rp[r + 1] - rp[r], x.data());
      const double d = now_s() - t0;
      per.push_back(d);
      spent += d;
    }
    if (!std::isfinite(sink)) std::fprintf(stderr, "row scan overflowed\n");
    put("sparse.row_scan_ns_per_nnz", 1e9 * median(per) / nnz, "ns/nnz",
        static_cast<long long>(per.size()));
  }

  // sampling: bulk Philox index draws over the matrix dimension.
  {
    const Philox4x32 gen(derive(args.seed, kSolveSeed));
    const std::size_t chunk = 1u << 16;
    std::vector<index_t> out(chunk);
    std::vector<double> per;
    double spent = 0.0;
    std::uint64_t first = 0;
    while (spent < min_seconds / 2 || per.size() < 5) {
      const auto span = Tracer::span(tracer, "sampling.fill_indices");
      const double t0 = now_s();
      for (int k = 0; k < 16; ++k, first += chunk)
        gen.fill_indices(first, chunk, a.rows(), out.data());
      const double d = now_s() - t0;
      per.push_back(d);
      spent += d;
    }
    put("sampling.draw_ns", 1e9 * median(per) / (16.0 * chunk), "ns",
        static_cast<long long>(per.size()));
  }

  // thread pool: an empty team job at nproc workers.
  {
    std::vector<double> per;
    const auto span = Tracer::span(tracer, "pool.run_team");
    for (int r = 0; r < 2000; ++r) {
      const double t0 = now_s();
      pool.run_team(args.nproc, [](int, int) {});
      per.push_back(now_s() - t0);
    }
    put("pool.run_team_us", 1e6 * median(per), "us", 2000);
  }
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Closed- then open-loop load on two services: the engine-bound Gram (SPD
/// classes) and its document-term factor (Kaczmarz).  The open-loop rate is
/// a fixed constant, never derived at run time: about a third of the
/// closed-loop capacity (55-70 requests/s) of a 4-core host at the commit
/// that defined this benchmark.  At half capacity, the host's slow spells
/// pushed the load near saturation and the p99 moved 2-3x between runs.
constexpr double kOpenLoopRate = 20.0;  // requests per second
/// Share of a serve run spent in the closed loop; the rest is open loop.
constexpr double kClosedShare = 0.2;

enum RequestClass { kSpdRgs, kSpdFcg, kBlock4, kKaczmarz, kClasses };
const char* const kClassNames[kClasses] = {"spd_rgs", "spd_fcg", "block4",
                                           "kaczmarz"};


ServeInputs make_serve_inputs(const Args& args) {
  SocialGramOptions o;
  o.terms = args.smoke ? 1500 : 6000;
  o.documents = args.smoke ? 2200 : 9000;
  o.mean_doc_length = 3;
  o.topics = args.smoke ? 20 : 100;
  o.topic_concentration = 0.92;
  o.ridge = 0.5;
  o.seed = kCorpusSeed;
  const SocialGram g = make_social_gram(o);
  ServeInputs in;
  in.gram = UnitDiagonalScaling(g.gram).scale_matrix(g.gram);
  in.factor = drop_empty_columns(g.factor).matrix;
  note_input("serve_gram", in.gram);
  note_input("serve_factor", in.factor);
  return in;
}

SolveControls class_controls(RequestClass k) {
  SolveControls c;
  c.workers = 1;
  c.sync = SyncMode::kBarrierPerSweep;
  switch (k) {
    case kSpdRgs:
      c.method = SpdMethod::kAsyncRgs;
      c.rel_tol = 1e-3;
      c.sweeps = 20000;
      break;
    case kSpdFcg:
      c.method = SpdMethod::kAuto;  // resolves to FCG+AsyRGS at 1e-6
      c.rel_tol = 1e-6;
      break;
    case kBlock4:
      c.method = SpdMethod::kAsyncRgs;
      c.rel_tol = 1e-3;
      c.sweeps = 20000;
      break;
    case kKaczmarz:
      c.method = SpdMethod::kAsyncKaczmarz;
      c.rel_tol = 1e-3;
      c.sweeps = 20000;
      break;
    default:
      break;
  }
  return c;
}

/// Completion timestamps and service-side timings, keyed by request id.
/// Attached to each service in both modes: the open-loop latency needs the
/// benchmark's own clock at completion, taken here.
class CompletionLog final : public TraceSink {
 public:
  struct Entry {
    double done = 0.0;        ///< benchmark clock when the event arrived
    double queue_wait = 0.0;  ///< service start - enqueue
    double run = -1.0;        ///< service done - start; < 0 never ran
  };
  void log(const TraceEvent& e) override {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = entries_[e.request_id];
    entry.done = t;
    if (e.start_seconds >= 0.0) {
      entry.queue_wait = e.start_seconds - e.enqueue_seconds;
      entry.run = e.done_seconds - e.start_seconds;
    }
  }
  Entry get(long long id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_[id];
  }

 private:
  std::mutex mutex_;
  std::map<long long, Entry> entries_;
};

struct Services {
  std::unique_ptr<CsrMatrix> gram_a, factor_a;  ///< outlive the services
  std::shared_ptr<CompletionLog> gram_log = std::make_shared<CompletionLog>();
  std::shared_ptr<CompletionLog> factor_log = std::make_shared<CompletionLog>();
  std::unique_ptr<SolverService> gram;
  std::unique_ptr<SolverService> factor;
};

/// Builds both services on fresh copies of the operators; returns the
/// seconds the construction took.
double build_services(const Args& args, const ServeInputs& in, Services& s) {
  s.gram.reset();
  s.factor.reset();
  s.gram_a = fresh_copy(in.gram);
  s.factor_a = fresh_copy(in.factor);
  const double t0 = now_s();
  ServiceOptions go;
  go.shards = args.nproc;
  go.workers_per_shard = 1;
  go.trace = s.gram_log;
  s.gram = std::make_unique<SolverService>(*s.gram_a, go);
  ServiceOptions fo = go;
  fo.prepare_spd = false;
  fo.prepare_lsq = true;
  fo.trace = s.factor_log;
  s.factor = std::make_unique<SolverService>(*s.factor_a, fo);
  return now_s() - t0;
}

/// One request: its inputs (kept for verification) and ticket.
struct Request {
  RequestClass kind = kSpdRgs;
  std::vector<double> b;
  MultiVector bb;
  SolveTicket ticket;
  bool on_factor = false;
  long long id = 0;        ///< service request id (open loop only)
  double scheduled = 0.0;  ///< open loop: the schedule's send time
  double sent = 0.0;       ///< open loop: when submit() was called
};

/// b = F x* for a random x*: consistent, so the Kaczmarz iterate can reach
/// the tolerance.
std::vector<double> consistent_rhs(const CsrMatrix& f, std::uint64_t seed) {
  const std::vector<double> x_star = random_vector(f.cols(), seed);
  std::vector<double> b(static_cast<std::size_t>(f.rows()), 0.0);
  f.multiply(x_star.data(), b.data());
  return b;
}

std::shared_ptr<Request> make_request(const ServeInputs& in, RequestClass k,
                                      std::uint64_t seed) {
  auto r = std::make_shared<Request>();
  r->kind = k;
  if (k == kBlock4) {
    r->bb = random_multivector(in.gram.rows(), 4, seed);
  } else if (k == kKaczmarz) {
    r->b = consistent_rhs(in.factor, seed);
    r->on_factor = true;
  } else {
    r->b = random_vector(in.gram.rows(), seed);
  }
  return r;
}

void submit(Services& s, Request& r, std::uint64_t solve_seed) {
  SolveControls c = class_controls(r.kind);
  c.seed = solve_seed;
  switch (r.kind) {
    case kBlock4:
      r.ticket = s.gram->submit_block(r.bb, c);
      break;
    case kKaczmarz:
      r.ticket = s.factor->submit_least_squares(r.b, c);
      break;
    default:
      r.ticket = s.gram->submit(r.b, c);
      break;
  }
}

/// Waits for and verifies one request.
bool verify(const ServeInputs& in, Request& r) {
  const SolveOutcome& out = r.ticket.wait();
  if (!out.converged()) return false;
  const double tol = class_controls(r.kind).rel_tol;
  switch (r.kind) {
    case kBlock4:
      return within(block_relative_residual(in.gram, r.bb, r.ticket.block_solution()), tol);
    case kKaczmarz:
      return within(normal_residual(in.factor, r.b, r.ticket.solution()), tol);
    default:
      return within(check_residual(in.gram, r.b, r.ticket.solution()), tol);
  }
}

/// Verifies requests off the generator's thread, in submission order.
class Verifier {
 public:
  explicit Verifier(const ServeInputs& in)
      : in_(in), thread_([this] { loop(); }) {}
  ~Verifier() { finish(); }
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  void push(std::shared_ptr<Request> r) {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(r));
    cv_.notify_one();
  }
  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }
  long long verified() const { return verified_; }
  long long failed() const { return failed_; }

 private:
  void loop() {
    for (;;) {
      std::shared_ptr<Request> r;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        r = std::move(queue_.front());
        queue_.pop_front();
      }
      bool ok = false;
      try {
        ok = verify(in_, *r);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "request failed: %s\n", e.what());
      }
      (ok ? verified_ : failed_)++;
      // Only the timing fields outlive verification.
      r->ticket = SolveTicket();
      r->b = {};
      r->bb = MultiVector();
    }
  }

  const ServeInputs& in_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Request>> queue_;
  bool done_ = false;
  std::atomic<long long> verified_{0};
  std::atomic<long long> failed_{0};
  std::thread thread_;  // declared last: starts after the members it uses
};

/// Per-class samples; the four classes' latencies sit in separate modes.
using PerClass = std::array<std::vector<double>, kClasses>;

struct ServeResult {
  PerClass closed, closed_traced, closed_plain;
  double closed_seconds = 0.0;
  long long closed_verified = 0;
  PerClass open;
  std::vector<double> open_latency;
  std::vector<double> late;
  std::vector<double> queue_wait;
  PerClass run;
  long long offered = 0;
};

/// Geometric mean over the classes of each class's median.  The pooled
/// median of an equal four-class mix falls in the gap between the second
/// and third classes' modes and jumps between them from run to run; the
/// per-class medians do not.
double class_median(const PerClass& v,
                    double (*estimate)(std::vector<double>, double) = quantile) {
  double log_sum = 0.0;
  for (const auto& samples : v) log_sum += std::log(estimate(samples, 0.5));
  return std::exp(log_sum / static_cast<double>(kClasses));
}

long long sample_count(const PerClass& v) {
  long long n = 0;
  for (const auto& samples : v) n += static_cast<long long>(samples.size());
  return n;
}

/// Request classes in equal shares: each run of four consecutive requests
/// holds every class once, in a seeded random order.
class ClassCycle {
 public:
  explicit ClassCycle(std::uint64_t seed) : rng_(seed) {}
  RequestClass next() {
    if (pos_ == kClasses) {
      std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
    }
    return order_[static_cast<std::size_t>(pos_++)];
  }

 private:
  std::mt19937_64 rng_;
  std::array<RequestClass, kClasses> order_{kSpdRgs, kSpdFcg, kBlock4, kKaczmarz};
  int pos_ = kClasses;
};

void tally(const Verifier& v) {
  g_counts.attempted += v.verified() + v.failed();
  g_counts.failed += v.failed();
}

/// Closed loop (one client per shard) for `closed_s`, then an open loop on
/// a seeded Poisson schedule for `open_s`.
ServeResult serve_phases(const Args& args, const ServeInputs& in, Services& s,
                         double closed_s, double open_s, Tracer* tracer) {
  ServeResult res;

  // Warm-up, untimed: one request of each class per shard, a class at a
  // time so the queue stays empty.
  for (std::uint64_t k = 0; k < kClasses; ++k) {
    Verifier v(in);
    for (std::uint64_t sh = 0; sh < static_cast<std::uint64_t>(args.nproc); ++sh) {
      const std::uint64_t tag = (std::uint64_t{2} << 40) | (k << 16) | sh;
      auto r = make_request(in, static_cast<RequestClass>(k),
                            derive(args.seed, kServeRhs, tag));
      submit(s, *r, derive(args.seed, kSolveSeed, tag));
      v.push(std::move(r));
    }
    v.finish();
    tally(v);
  }

  // Closed loop: client c keeps one request outstanding.  In traced mode
  // every other request runs without its span, which gives the tracing
  // overhead inside one run.
  {
    Verifier v(in);
    std::mutex lat_mutex;
    const double t_start = now_s();
    const double deadline = t_start + closed_s;
    std::vector<std::thread> clients;
    for (int c = 0; c < args.nproc; ++c) {
      clients.emplace_back([&, c] {
        ClassCycle classes(derive(args.seed, kClassDraw, static_cast<std::uint64_t>(c)));
        PerClass lat, traced_lat, plain_lat;
        for (std::uint64_t i = 0; now_s() < deadline; ++i) {
          const std::uint64_t tag = (static_cast<std::uint64_t>(c) << 32) | i;
          auto r = make_request(in, classes.next(), derive(args.seed, kServeRhs, tag));
          const bool traced = tracer != nullptr && i % 2 == 0;
          {
            const auto span = Tracer::span(traced ? tracer : nullptr, "serve.request");
            const double t0 = now_s();
            submit(s, *r, derive(args.seed, kSolveSeed, tag));
            r->ticket.wait();
            const double d = now_s() - t0;
            lat[r->kind].push_back(d);
            (traced ? traced_lat : plain_lat)[r->kind].push_back(d);
          }
          v.push(std::move(r));
        }
        const std::lock_guard<std::mutex> lock(lat_mutex);
        for (int k = 0; k < kClasses; ++k) {
          auto append = [k](PerClass& to, const PerClass& from) {
            to[k].insert(to[k].end(), from[k].begin(), from[k].end());
          };
          append(res.closed, lat);
          append(res.closed_traced, traced_lat);
          append(res.closed_plain, plain_lat);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    res.closed_seconds = now_s() - t_start;
    v.finish();
    res.closed_verified = v.verified();
    tally(v);
  }

  // Open loop: a seeded Poisson schedule, sent on time regardless of
  // completions.  Latency runs from each request's scheduled send time to
  // the completion event the service emits.
  {
    const long long gram_base = s.gram->stats().submitted;
    const long long factor_base = s.factor->stats().submitted;
    long long gram_n = 0, factor_n = 0;
    ClassCycle classes(derive(args.seed, kClassDraw, 999));
    std::mt19937_64 sched(derive(args.seed, kSchedule));
    std::exponential_distribution<double> gap(kOpenLoopRate);
    std::vector<std::shared_ptr<Request>> sent;
    Verifier v(in);
    const double t_start = now_s() + 0.01;
    double due = t_start;
    for (std::uint64_t i = 0;; ++i) {
      due += gap(sched);
      if (due > t_start + open_s) break;
      const std::uint64_t tag = (std::uint64_t{1} << 40) | i;
      auto r = make_request(in, classes.next(), derive(args.seed, kServeRhs, tag));
      std::this_thread::sleep_until(
          Clock::now() + std::chrono::duration<double>(due - now_s()));
      r->scheduled = due;
      {
        const auto span = Tracer::span(tracer, "serve.submit");
        r->sent = now_s();
        submit(s, *r, derive(args.seed, kSolveSeed, tag));
      }
      r->id = r->on_factor ? factor_base + ++factor_n : gram_base + ++gram_n;
      sent.push_back(r);
      v.push(r);
    }
    v.finish();
    s.gram->drain();
    s.factor->drain();
    tally(v);
    res.offered = static_cast<long long>(sent.size());
    for (const auto& r : sent) {
      const CompletionLog::Entry e =
          (r->on_factor ? s.factor_log : s.gram_log)->get(r->id);
      res.open_latency.push_back(e.done - r->scheduled);
      res.open[r->kind].push_back(e.done - r->scheduled);
      res.late.push_back(r->sent - r->scheduled);
      if (e.run >= 0.0) {
        res.queue_wait.push_back(e.queue_wait);
        res.run[r->kind].push_back(e.run);
      }
    }
  }
  return res;
}

void put_serve_layer(const ServeResult& res, Services& s) {
  const auto n = static_cast<long long>(res.queue_wait.size());
  put("serve.queue_wait_p50_s", median(res.queue_wait), "s", n);
  put("serve.queue_wait_p99_s", quantile(res.queue_wait, 0.99), "s", n);
  for (int k = 0; k < kClasses; ++k)
    put(std::string("serve.run_p50_s.") + kClassNames[k], median(res.run[k]),
        "s", static_cast<long long>(res.run[k].size()));
  const ServiceStats g = s.gram->stats();
  const ServiceStats f = s.factor->stats();
  put("serve.rejected", static_cast<double>(g.rejected + f.rejected), "count");
  put("serve.shed", static_cast<double>(g.shed_deadline + f.shed_deadline), "count");
  put("serve.queue_high_water",
      static_cast<double>(std::max(g.queue_high_water, f.queue_high_water)), "count");
  put("loadgen.late_p99_s", quantile(res.late, 0.99), "s",
      static_cast<long long>(res.late.size()));
  put("loadgen.offered", static_cast<double>(res.offered), "count");
}

/// Block, Kaczmarz and FCG probes on the serve inputs, 1 worker.
void run_serve_kernels(const Args& args, const ServeInputs& in, Tracer* tracer) {
  ThreadPool pool(1);
  const int sweeps = args.smoke ? 5 : 40;
  {
    SpdProblem problem(pool, in.gram);
    const MultiVector b =
        random_multivector(in.gram.rows(), 4, derive(args.seed, kServeRhs, 7));
    SolveControls c = class_controls(kBlock4);
    c.rel_tol = 0.0;
    c.sweeps = sweeps;
    std::vector<double> ups;
    for (int r = 0; r < 3; ++r) {
      MultiVector x(in.gram.rows(), 4);
      const auto span = Tracer::span(tracer, "core.block4");
      const double t0 = now_s();
      const SolveOutcome out = problem.solve(b, x, c);
      ups.push_back(static_cast<double>(out.updates) / (now_s() - t0));
    }
    put("core.block4_updates_per_s", median(ups), "1/s", 3);

    std::vector<double> iters;
    for (std::uint64_t r = 0; r < 3; ++r) {
      const std::vector<double> bv =
          random_vector(in.gram.rows(), derive(args.seed, kServeRhs, 20 + r));
      std::vector<double> x(bv.size(), 0.0);
      SolveControls f = class_controls(kSpdFcg);
      f.seed = derive(args.seed, kSolveSeed, 20 + r);
      SolveOutcome out;
      {
        const auto span = Tracer::span(tracer, "iter.fcg");
        out = problem.solve(bv, x, f);
      }
      count(out.converged() && within(check_residual(in.gram, bv, x), f.rel_tol));
      iters.push_back(out.iterations);
    }
    put("iter.fcg_iterations", median(iters), "count", 3);
  }
  {
    LsqProblem problem(pool, in.factor);
    const std::vector<double> b =
        consistent_rhs(in.factor, derive(args.seed, kServeRhs, 8));
    SolveControls c = class_controls(kKaczmarz);
    c.rel_tol = 0.0;
    c.sweeps = sweeps;
    std::vector<double> ups;
    for (int r = 0; r < 3; ++r) {
      std::vector<double> x(static_cast<std::size_t>(in.factor.cols()), 0.0);
      const auto span = Tracer::span(tracer, "core.kaczmarz");
      const double t0 = now_s();
      const SolveOutcome out = problem.solve(b, x, c);
      ups.push_back(static_cast<double>(out.updates) / (now_s() - t0));
    }
    put("core.kaczmarz_updates_per_s", median(ups), "1/s", 3);
  }
}

/// Serve layer on the serve inputs.  `full` is the serve_mix workload
/// itself (end-to-end metrics, measured for the run's whole window);
/// otherwise a short run gives the serve and loadgen rows of the other
/// workloads' ledgers.
void run_serve_probe(const Args& args, const ServeInputs& in, Tracer* tracer,
                     bool full) {
  Services s;
  if (full) {
    std::vector<double> setup;
    const int reps = args.smoke ? 2 : 15;
    for (int r = 0; r < reps; ++r) {
      const auto span = Tracer::span(tracer, "serve.setup");
      setup.push_back(build_services(args, in, s));
    }
    g_series["setup_s"] = setup;
    put("setup_s", median(setup), "s", reps);
  } else {
    build_services(args, in, s);
  }
  const double total = full ? args.seconds : (args.smoke ? 1.0 : 4.0);
  const ServeResult res =
      serve_phases(args, in, s, kClosedShare * total, (1.0 - kClosedShare) * total, tracer);
  if (full) {
    const long long nc = sample_count(res.closed);
    const auto no = static_cast<long long>(res.open_latency.size());
    put("tts_s", class_median(res.closed), "s", nc);
    put("solves_per_s",
        static_cast<double>(res.closed_verified) / res.closed_seconds, "1/s", nc);
    for (int k = 0; k < kClasses; ++k) {
      g_series[std::string("closed_s.") + kClassNames[k]] = res.closed[k];
      g_series[std::string("open_s.") + kClassNames[k]] = res.open[k];
    }
    put("latency_p50_s", class_median(res.open, hd_quantile), "s", no);
    put("latency_p99_s", hd_quantile(res.open_latency, 0.99), "s", no);
    if (tracer != nullptr)
      put("trace.overhead_frac",
          class_median(res.closed_traced) / class_median(res.closed_plain) - 1.0,
          "ratio", nc);
  }
  if (tracer == nullptr) return;
  put_serve_layer(res, s);
  s.gram.reset();
  s.factor.reset();
  run_serve_kernels(args, in, tracer);
}

void run_serve_mix(const Args& args, Tracer* tracer) {
  const ServeInputs in = make_serve_inputs(args);
  run_serve_probe(args, in, tracer, /*full=*/true);
  if (tracer == nullptr) return;
  // Problem, core and kernel rows on the serve Gram, with the spd_rgs
  // class's controls: the handle and solve every shard runs.
  ThreadPool pool(args.nproc);
  SolveWorkload w;
  w.a = in.gram;
  w.controls = class_controls(kSpdRgs);
  w.engine_sweeps = 200;
  SolvePhase ph = run_solve_phase(args, w, pool, tracer, args.smoke ? 0.2 : 2.0);
  put_solve_layers(args, w, pool, ph, tracer);
  ph.problem.reset();
  run_ledger_common(args, w.a, tracer);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") args.workload = val();
    else if (k == "--seed") args.seed = std::stoull(val());
    else if (k == "--seconds") args.seconds = std::stod(val());
    else if (k == "--trace") args.trace = val() == "1";
    else if (k == "--smoke") args.smoke = true;
    else {
      std::fprintf(stderr, "tts_bench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  args.nproc = static_cast<int>(detail::auto_pool_size(0, std::thread::hardware_concurrency()));
  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  const double t_begin = now_s();
  try {
    if (args.workload == "gram_tts") {
      run_solve_workload(args, make_gram_tts(args), t);
    } else if (args.workload == "laplacian_1m") {
      run_solve_workload(args, make_laplacian_1m(args), t);
    } else if (args.workload == "serve_mix") {
      run_serve_mix(args, t);
    } else {
      std::fprintf(stderr, "tts_bench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tts_bench: %s\n", e.what());
    return 1;
  }
  put("peak_rss_mb", peak_rss_mb(), "MB");

  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"smoke\": "
      << (args.smoke ? "true" : "false") << ", \"wall_s\": " << now_s() - t_begin
      << ", \"host\": {\"cpu_model\": \"" << json_escape(cpu_model())
      << "\", \"nproc\": " << args.nproc << ", \"l2_bytes\": "
      << sysconf(_SC_LEVEL2_CACHE_SIZE) << ", \"l3_bytes\": "
      << sysconf(_SC_LEVEL3_CACHE_SIZE) << ", \"compiler\": \""
      << json_escape(TTS_COMPILER) << " (" << json_escape(__VERSION__)
      << ")\", \"flags\": \"" << json_escape(TTS_CXX_FLAGS) << "\"}, \"inputs\": [";
  for (std::size_t i = 0; i < g_inputs.size(); ++i) {
    const InputInfo& in = g_inputs[i];
    out << (i ? ", " : "") << "{\"name\": \"" << in.name << "\", \"rows\": "
        << in.rows << ", \"cols\": " << in.cols << ", \"nnz\": " << in.nnz
        << ", \"working_set_bytes_computed\": "
        << working_set_bytes(in.rows, in.cols, in.nnz) << "}";
  }
  out << "], \"attempted\": " << g_counts.attempted << ", \"failed\": "
      << g_counts.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : g_metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\", \"samples\": " << m.samples << "}";
    first = false;
  }
  out << "}, \"series\": {";
  first = true;
  for (const auto& [name, v] : g_series) {
    out << (first ? "" : ", ") << "\"" << name << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
    out << "]";
    first = false;
  }
  out << "}, \"spans\": " << (args.trace ? tracer.summary_json() : "{}") << "}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
