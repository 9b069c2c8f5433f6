#include "baselines/baselines.hpp"

#include "api/solver.hpp"

namespace luqr::baselines {

core::SolveResult lupp_solve(const Matrix<double>& a, const Matrix<double>& b,
                             int nb) {
  AlwaysLU criterion;
  core::HybridOptions options;
  options.scope = core::PivotScope::Panel;
  return Solver(SolverConfig()
                    .hybrid_options(options)
                    .tile_size(nb)
                    .criterion(criterion)
                    .backend(Backend::Serial))
      .solve(a, b);
}

}  // namespace luqr::baselines
