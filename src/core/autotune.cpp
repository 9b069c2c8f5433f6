#include <cmath>

#include "core/autotune.hpp"
#include "criteria/criteria.hpp"

namespace luqr::core {

namespace {

// LU fraction of a factorization of the sample at threshold alpha.
double fraction_at(const Matrix<double>& sample, const CriterionSpec& spec,
                   double alpha, int nb, const HybridOptions& options) {
  auto criterion = make_criterion(spec.with_alpha(alpha));
  // Factor a throwaway tiled copy; the criterion sees only the panel, so
  // no RHS is needed.
  TileMatrix<double> tiles = TileMatrix<double>::from_dense(sample, nb);
  const auto stats = hybrid_factor(tiles, *criterion, options);
  return stats.lu_fraction();
}

}  // namespace

AutoTuneResult auto_tune_alpha(const Matrix<double>& sample,
                               const CriterionSpec& spec,
                               double target_lu_fraction, int nb,
                               const HybridOptions& options,
                               int max_evaluations) {
  LUQR_REQUIRE(target_lu_fraction >= 0.0 && target_lu_fraction <= 1.0,
               "target LU fraction must be in [0, 1]");
  LUQR_REQUIRE(spec.tunable(),
               "auto_tune_alpha supports the max/sum/mumps criteria");
  LUQR_REQUIRE(max_evaluations >= 4, "need at least 4 evaluations");

  AutoTuneResult result;
  result.spec = spec;
  auto evaluate = [&](double alpha) {
    ++result.evaluations;
    return fraction_at(sample, spec, alpha, nb, options);
  };
  auto settle = [&](double alpha, double fraction) {
    result.alpha = alpha;
    result.achieved_lu_fraction = fraction;
    result.spec = spec.with_alpha(alpha);
  };

  // Bracket the target: fraction is monotone nondecreasing in alpha.
  double lo = 1e-8, hi = 1e8;
  double f_lo = evaluate(lo);
  double f_hi = evaluate(hi);
  if (f_lo >= target_lu_fraction) {
    settle(lo, f_lo);
    return result;
  }
  if (f_hi <= target_lu_fraction) {
    settle(hi, f_hi);
    return result;
  }

  // Log-space bisection; track the best point seen.
  settle(hi, f_hi);
  double best_err = std::abs(f_hi - target_lu_fraction);
  while (result.evaluations < max_evaluations) {
    const double mid = std::sqrt(lo * hi);
    const double f_mid = evaluate(mid);
    const double err = std::abs(f_mid - target_lu_fraction);
    if (err < best_err) {
      best_err = err;
      settle(mid, f_mid);
    }
    if (f_mid < target_lu_fraction) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi / lo < 1.05) break;  // threshold resolved
  }
  return result;
}

AutoTuneResult auto_tune_alpha(const Matrix<double>& sample,
                               const std::string& criterion_kind,
                               double target_lu_fraction, int nb,
                               const HybridOptions& options,
                               int max_evaluations) {
  return auto_tune_alpha(sample, CriterionSpec::parse(criterion_kind, 0.0),
                         target_lu_fraction, nb, options, max_evaluations);
}

}  // namespace luqr::core
