#include "api/solver.hpp"

#include <thread>
#include <utility>

#include "core/autotune.hpp"
#include "runtime/engine.hpp"
#include "runtime/parallel_hybrid.hpp"

namespace luqr {

SolverConfig& SolverConfig::hybrid_options(const core::HybridOptions& o) {
  grid(o.grid_p, o.grid_q);
  scope_ = o.scope;
  variant_ = o.variant;
  tree_ = o.tree;
  exact_inv_norm_ = o.exact_inv_norm;
  track_growth_ = o.track_growth;
  return *this;
}

core::HybridOptions SolverConfig::hybrid_options() const {
  core::HybridOptions o;
  o.grid_p = grid_p_;
  o.grid_q = grid_q_;
  o.scope = scope_;
  o.variant = variant_;
  o.tree = tree_;
  o.exact_inv_norm = exact_inv_norm_;
  o.track_growth = track_growth_;
  return o;
}

void SolverConfig::validate() const {
  if (has_autotune_) {
    LUQR_REQUIRE(external_ == nullptr,
                 "auto-tuning needs a CriterionSpec, not an external "
                 "Criterion instance");
    LUQR_REQUIRE(criterion_.tunable(),
                 "auto-tuning supports the max/sum/mumps criteria");
  }
  if (engine_ != nullptr) {
    LUQR_REQUIRE(!scheduler_.trace,
                 "the per-task trace needs a quiescent engine of its own; "
                 "it is unavailable on a shared engine");
  }
  if (precision_ != Precision::F64) {
    LUQR_REQUIRE(external_ == nullptr,
                 "reduced-precision factorization needs a CriterionSpec (the "
                 "F32_IR fallback refactorization reuses it); an external "
                 "Criterion instance cannot be replayed");
  }
}

Solver::Solver(SolverConfig config) : config_(std::move(config)) {
  config_.validate();
}

CriterionSpec Solver::effective_criterion(const Matrix<double>& a) const {
  LUQR_REQUIRE(config_.external_criterion() == nullptr,
               "an external Criterion instance has no spec to report");
  if (!config_.has_autotune_target()) return config_.criterion();
  const auto tuned = core::auto_tune_alpha(
      a, config_.criterion(), config_.autotune_target_lu_fraction(),
      config_.tile_size(), config_.hybrid_options());
  return tuned.spec;
}

Criterion* Solver::resolve_criterion(const Matrix<double>& a,
                                     std::unique_ptr<Criterion>& owned) const {
  if (Criterion* external = config_.external_criterion()) return external;
  owned = make_criterion(effective_criterion(a));
  return owned.get();
}

int Solver::resolve_threads() const {
  if (config_.engine() != nullptr) return config_.engine()->num_threads();
  if (config_.threads() > 0) return config_.threads();
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

Backend Solver::resolve_backend(int n_tiles) const {
  switch (config_.backend()) {
    case Backend::Serial: return Backend::Serial;
    case Backend::Parallel: return Backend::Parallel;
    case Backend::Auto: break;
  }
  // Auto: a worker pool pays off only with real concurrency and enough
  // tiles for the trailing updates to overlap the panel's critical path.
  if (resolve_threads() < 2 || n_tiles < 4) return Backend::Serial;
  return Backend::Parallel;
}

core::Factorization Solver::factor(const Matrix<double>& a) const {
  LUQR_REQUIRE(a.rows() == a.cols(), "Solver::factor: matrix must be square");
  const core::HybridOptions options = config_.hybrid_options();
  const int nb = config_.tile_size();
  const int n_tiles = (a.rows() + nb - 1) / nb;

  if (config_.precision() != Precision::F64) {
    // Reduced-precision route: narrow the input, factor in f32 through the
    // same serial/parallel drivers (the criterion sees double-widened panel
    // statistics, so the LU-vs-QR decisions are made exactly as specified),
    // and retain the f64 original for residuals / the F32_IR fallback.
    const CriterionSpec spec = effective_criterion(a);
    const auto crit = make_criterion(spec);
    Matrix<float> af(a.rows(), a.cols());
    for (int j = 0; j < a.cols(); ++j)
      for (int i = 0; i < a.rows(); ++i)
        af(i, j) = static_cast<float>(a(i, j));
    TileMatrix<float> tiles = TileMatrix<float>::from_dense(af, nb);
    core::TransformLogT<float> log;
    core::FactorizationStatsT<float> stats;
    if (resolve_backend(n_tiles) == Backend::Serial) {
      stats = core::hybrid_factor(tiles, *crit, options, &log);
    } else {
      stats = config_.engine() != nullptr
                  ? rt::parallel_hybrid_factor_on(
                        *config_.engine(), tiles, *crit, options, &log,
                        config_.scheduler(), config_.scheduler_stats())
                  : rt::parallel_hybrid_factor(
                        tiles, *crit, options, resolve_threads(), &log,
                        config_.scheduler(), config_.scheduler_stats());
    }
    return core::Factorization::adopt_f32(a, std::move(tiles),
                                          std::move(stats), std::move(log),
                                          options, config_.precision(),
                                          config_.refine(), &spec);
  }

  std::unique_ptr<Criterion> owned;
  Criterion* criterion = resolve_criterion(a, owned);

  if (resolve_backend(n_tiles) == Backend::Serial)
    return core::Factorization::compute(a, *criterion, nb, options);

  TileMatrix<double> tiles = TileMatrix<double>::from_dense(a, nb);
  core::TransformLog log;
  core::FactorizationStats stats =
      config_.engine() != nullptr
          ? rt::parallel_hybrid_factor_on(*config_.engine(), tiles, *criterion,
                                          options, &log, config_.scheduler(),
                                          config_.scheduler_stats())
          : rt::parallel_hybrid_factor(tiles, *criterion, options,
                                       resolve_threads(), &log,
                                       config_.scheduler(),
                                       config_.scheduler_stats());
  return core::Factorization::adopt(a, std::move(tiles), std::move(stats),
                                    std::move(log), options);
}

core::SolveResult Solver::solve(const Matrix<double>& a,
                                const Matrix<double>& b) const {
  if (config_.precision() != Precision::F64 ||
      config_.refinement_sweeps() > 0) {
    // Refinement (classic sweeps or LU-IR) needs the retained original, and
    // the reduced-precision routes need the precision-aware handle — go
    // through factor().
    const core::Factorization fac = factor(a);
    core::SolveResult result;
    result.x = fac.solve(b, &result.report, config_.refinement_sweeps());
    result.stats = fac.stats();
    return result;
  }

  // Fused-RHS fast path (the paper's experimental setup): factor [A | B],
  // then back-substitute the transformed B.
  const core::HybridOptions options = config_.hybrid_options();
  std::unique_ptr<Criterion> owned;
  Criterion* criterion = resolve_criterion(a, owned);

  TileMatrix<double> aug = core::make_augmented(a, b, config_.tile_size());
  core::SolveResult result;
  if (resolve_backend(aug.mt()) == Backend::Parallel) {
    result.stats =
        config_.engine() != nullptr
            ? rt::parallel_hybrid_factor_on(
                  *config_.engine(), aug, *criterion, options,
                  static_cast<core::TransformLog*>(nullptr),
                  config_.scheduler(), config_.scheduler_stats())
            : rt::parallel_hybrid_factor(
                  aug, *criterion, options, resolve_threads(),
                  static_cast<core::TransformLog*>(nullptr),
                  config_.scheduler(), config_.scheduler_stats());
  } else {
    result.stats = core::hybrid_factor(aug, *criterion, options);
  }
  result.x = core::solve_augmented(aug, &result.stats, a.rows(), b.cols());
  return result;
}

}  // namespace luqr

// ---------------------------------------------------------------------------
// Historical free-function entry points, kept as thin wrappers over the
// facade. Defined here (not in their own layers' .cpp files) so core/ and
// runtime/ never include upward into api/.
// ---------------------------------------------------------------------------

namespace luqr::core {

SolveResult hybrid_solve(const Matrix<double>& a, const Matrix<double>& b,
                         Criterion& criterion, int nb,
                         const HybridOptions& options) {
  return Solver(SolverConfig()
                    .hybrid_options(options)
                    .tile_size(nb)
                    .criterion(criterion)
                    .backend(Backend::Serial))
      .solve(a, b);
}

}  // namespace luqr::core

namespace luqr::rt {

core::SolveResult parallel_hybrid_solve(const Matrix<double>& a,
                                        const Matrix<double>& b,
                                        Criterion& criterion, int nb,
                                        const core::HybridOptions& options,
                                        int num_threads) {
  LUQR_REQUIRE(num_threads >= 1, "need at least one worker thread");
  return Solver(SolverConfig()
                    .hybrid_options(options)
                    .tile_size(nb)
                    .criterion(criterion)
                    .backend(Backend::Parallel)
                    .threads(num_threads))
      .solve(a, b);
}

}  // namespace luqr::rt
