#include "baselines/baselines.hpp"
#include "core/step_graph.hpp"

namespace luqr::baselines {

core::SolveResult hqr_solve(const Matrix<double>& a, const Matrix<double>& b,
                            int nb, int grid_p, int grid_q,
                            const hqr::TreeConfig& tree) {
  TileMatrix<double> aug = core::make_augmented(a, b, nb);
  core::HybridOptions options;
  options.grid_p = grid_p;
  options.grid_q = grid_q;
  options.tree = tree;

  // The hybrid step graph without a criterion: every step is a QR step and
  // no panel stage runs.
  core::SolveResult result;
  result.stats = core::factor_inline<double>(aug, nullptr, options, nullptr);
  core::back_substitute(aug);
  result.x = core::extract_solution(aug, a.rows(), b.cols());
  return result;
}

}  // namespace luqr::baselines
