#include "core/factorization.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "kernels/blas.hpp"
#include "kernels/lapack.hpp"
#include "kernels/norms.hpp"

namespace luqr::core {

using kern::ConstMatrixView;
using kern::Diag;
using kern::Side;
using kern::Trans;
using kern::Uplo;

template <typename T>
FactorizationT<T> FactorizationT<T>::compute(const Matrix<T>& a,
                                             Criterion& criterion, int nb,
                                             const HybridOptions& options) {
  LUQR_REQUIRE(a.rows() == a.cols(), "Factorization: matrix must be square");
  FactorizationT f;
  f.n_scalar_ = a.rows();
  f.original_ = a;
  f.options_ = options;
  f.factored_ = TileMatrix<T>::from_dense(a, nb);
  f.stats_ = hybrid_factor(f.factored_, criterion, options, &f.log_);
  return f;
}

template <typename T>
FactorizationT<T> FactorizationT<T>::adopt(const Matrix<T>& original,
                                           TileMatrix<T> factored,
                                           FactorizationStatsT<T> stats,
                                           TransformLogT<T> log,
                                           const HybridOptions& options) {
  LUQR_REQUIRE(original.rows() == original.cols(),
               "Factorization: matrix must be square");
  LUQR_REQUIRE(factored.mt() == factored.nt(),
               "adopt: factored tiles must be square");
  LUQR_REQUIRE(factored.rows() >= original.rows(),
               "adopt: factored tiles smaller than the matrix");
  LUQR_REQUIRE(static_cast<int>(log.size()) == factored.mt(),
               "adopt: transform log does not cover every step");
  FactorizationT f;
  f.n_scalar_ = original.rows();
  f.original_ = original;
  f.options_ = options;
  f.factored_ = std::move(factored);
  f.stats_ = std::move(stats);
  f.log_ = std::move(log);
  return f;
}

template <typename T>
void FactorizationT<T>::apply_transformations(TileMatrix<T>& b) const {
  const int n = factored_.mt();
  const int nb = factored_.nb();
  LUQR_REQUIRE(b.mt() == n && b.nb() == nb, "rhs tiling mismatch");

  for (int k = 0; k < n; ++k) {
    const StepLogT<T>& step = log_[static_cast<std::size_t>(k)];
    if (step.lu) {
      const LuVariant variant = stats_.steps[static_cast<std::size_t>(k)].variant;
      if (variant == LuVariant::A1) {
        // Replay the stacked domain interchanges on the RHS rows.
        for (int s = 0; s < static_cast<int>(step.piv.size()); ++s) {
          const int p = step.piv[static_cast<std::size_t>(s)];
          const int t1 = step.domain_rows[static_cast<std::size_t>(s / nb)];
          const int t2 = step.domain_rows[static_cast<std::size_t>(p / nb)];
          const int r1 = s % nb, r2 = p % nb;
          if (t1 == t2 && r1 == r2) continue;
          for (int col = 0; col < b.nt(); ++col) {
            auto tile1 = b.tile(t1, col);
            auto tile2 = b.tile(t2, col);
            for (int c = 0; c < nb; ++c) std::swap(tile1(r1, c), tile2(r2, c));
          }
        }
        // b_k <- L11^{-1} b_k.
        for (int col = 0; col < b.nt(); ++col) {
          auto bk = b.tile(k, col);
          kern::trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1),
                     ConstMatrixView<T>(factored_.tile(k, k)), bk);
        }
      } else if (variant == LuVariant::A2) {
        // b_k <- Q^T b_k from the diagonal GEQRT.
        for (int col = 0; col < b.nt(); ++col)
          kern::unmqr(Trans::Yes, ConstMatrixView<T>(factored_.tile(k, k)),
                      step.diag_t->cview(), b.tile(k, col));
      }
      // B1/B2: row k is untouched (block LU).
      // Eliminations: b_i -= A_ik b_k with the stored L blocks.
      for (int i = k + 1; i < n; ++i) {
        for (int col = 0; col < b.nt(); ++col) {
          auto bi = b.tile(i, col);
          kern::gemm(Trans::No, Trans::No, T(-1),
                     ConstMatrixView<T>(factored_.tile(i, k)),
                     ConstMatrixView<T>(b.tile(k, col)), T(1), bi);
        }
      }
    } else {
      // Replay the QR step's orthogonal operations in execution order.
      for (const QrOpT<T>& op : step.qr_ops) {
        for (int col = 0; col < b.nt(); ++col) {
          switch (op.kind) {
            case QrKind::Geqrt:
              kern::unmqr(Trans::Yes,
                          ConstMatrixView<T>(factored_.tile(op.killer, k)),
                          op.t->cview(), b.tile(op.killer, col));
              break;
            case QrKind::Ts:
              kern::tsmqr(Trans::Yes,
                          ConstMatrixView<T>(factored_.tile(op.killed, k)),
                          op.t->cview(), b.tile(op.killer, col),
                          b.tile(op.killed, col));
              break;
            case QrKind::Tt:
              kern::ttmqr(Trans::Yes,
                          ConstMatrixView<T>(factored_.tile(op.killed, k)),
                          op.t->cview(), b.tile(op.killer, col),
                          b.tile(op.killed, col));
              break;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wide RHS path: all columns in one dense panel, at the exact RHS width
// ---------------------------------------------------------------------------
//
// The per-tile-column layout slices a W-column RHS into ceil(W/nb) separate
// nb-wide tile columns (one column pads up to a whole nb-wide tile), so
// every kernel of the replay and the back-substitution runs ceil(W/nb)
// times at width nb. The wide layout keeps the RHS as one (mt*nb) x W
// column-major panel addressed through nb-row block views, so each of those
// kernels runs once at the exact RHS width: bigger products for batched
// RHS, and — the serving hot path — no padded-to-nb waste for one column (a
// cache-hit single-RHS solve does O(n^2) work instead of O(n^2 nb)).
//
// Bitwise equality with the per-tile-column path (asserted by the tests)
// rests on every kernel the solve runs being a column-by-column operation
// once its branch is fixed, and on fixing that branch at width nb:
//   (1) GEMM: the packed kernel's per-element sums depend only on KC, the
//       simple loops work column by column; the wide path passes nb as the
//       dispatch width, so every element goes through the kernel an nb x nb
//       x nb product picks.
//   (2) TRSM and the row interchanges are exactly per-column operations —
//       the blocked TRSM dispatches on the triangle dimension alone and
//       runs its inner updates through the packed GEMM unconditionally (see
//       trsm_wants_blocked).
//   (3) The orthogonal applies (UNMQR/TSMQR/TTMQR) take the same dispatch
//       width nb, which fixes both their densified-V/loop branch and their
//       inner GEMMs' paths; TRMM and their loop branches are per-column.

template <typename T>
Matrix<T> FactorizationT<T>::solve(const Matrix<T>& b, int refinement_sweeps,
                                   RhsPath path) const {
  LUQR_REQUIRE(b.rows() == n_scalar_, "rhs row count mismatch");
  const int nb = factored_.nb();
  const int mt = factored_.mt();
  const bool wide = path != RhsPath::PerTileColumn;

  auto solve_once = [&](const Matrix<T>& rhs) {
    if (wide && rhs.cols() > 0) {
      Matrix<T> wb(mt * nb, rhs.cols());
      for (int j = 0; j < rhs.cols(); ++j)
        for (int i = 0; i < rhs.rows(); ++i) wb(i, j) = rhs(i, j);
      apply_transformations_wide(wb);
      solve_triangular_wide(wb);
      Matrix<T> x(n_scalar_, rhs.cols());
      for (int j = 0; j < rhs.cols(); ++j)
        for (int i = 0; i < n_scalar_; ++i) x(i, j) = wb(i, j);
      return x;
    }
    TileMatrix<T> bt_tiles(mt, (rhs.cols() + nb - 1) / nb, nb);
    for (int j = 0; j < rhs.cols(); ++j)
      for (int i = 0; i < rhs.rows(); ++i) bt_tiles.at(i, j) = rhs(i, j);
    apply_transformations(bt_tiles);
    back_substitute(factored_, &stats_, bt_tiles, 0);
    Matrix<T> x(n_scalar_, rhs.cols());
    for (int j = 0; j < rhs.cols(); ++j)
      for (int i = 0; i < n_scalar_; ++i) x(i, j) = bt_tiles.at(i, j);
    return x;
  };

  Matrix<T> x = solve_once(b);
  for (int sweep = 0; sweep < refinement_sweeps; ++sweep) {
    // r = b - A x, d = A^{-1} r (reusing the factorization), x += d.
    Matrix<T> r = b;
    kern::gemm(Trans::No, Trans::No, T(-1), original_.cview(), x.cview(), T(1),
               r.view());
    const Matrix<T> d = solve_once(r);
    for (int j = 0; j < x.cols(); ++j)
      for (int i = 0; i < x.rows(); ++i) x(i, j) += d(i, j);
  }
  return x;
}

template <typename T>
void FactorizationT<T>::apply_transformations_wide(Matrix<T>& wb) const {
  const int n = factored_.mt();
  const int nb = factored_.nb();
  const int wp = wb.cols();
  LUQR_REQUIRE(wb.rows() == n * nb, "wide rhs shape mismatch");
  auto rb = [&](int i) { return wb.view().block(i * nb, 0, nb, wp); };

  for (int k = 0; k < n; ++k) {
    const StepLogT<T>& step = log_[static_cast<std::size_t>(k)];
    if (step.lu) {
      const LuVariant variant = stats_.steps[static_cast<std::size_t>(k)].variant;
      if (variant == LuVariant::A1) {
        // Replay the stacked domain interchanges across the full width.
        for (int s = 0; s < static_cast<int>(step.piv.size()); ++s) {
          const int p = step.piv[static_cast<std::size_t>(s)];
          const int t1 = step.domain_rows[static_cast<std::size_t>(s / nb)];
          const int t2 = step.domain_rows[static_cast<std::size_t>(p / nb)];
          const int r1 = s % nb, r2 = p % nb;
          if (t1 == t2 && r1 == r2) continue;
          const int row1 = t1 * nb + r1, row2 = t2 * nb + r2;
          for (int c = 0; c < wp; ++c) std::swap(wb(row1, c), wb(row2, c));
        }
        // b_k <- L11^{-1} b_k, all columns at once (TRSM is per-column).
        auto bk = rb(k);
        kern::trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1),
                   ConstMatrixView<T>(factored_.tile(k, k)), bk);
      } else if (variant == LuVariant::A2) {
        // b_k <- Q^T b_k from the diagonal GEQRT, dispatched at width nb.
        kern::unmqr(Trans::Yes, ConstMatrixView<T>(factored_.tile(k, k)),
                    step.diag_t->cview(), rb(k), nullptr, nb);
      }
      // B1/B2: row k is untouched (block LU).
      // Eliminations: one full-width GEMM per trailing tile row,
      // dispatched at width nb.
      for (int i = k + 1; i < n; ++i)
        kern::gemm(Trans::No, Trans::No, T(-1),
                   ConstMatrixView<T>(factored_.tile(i, k)),
                   ConstMatrixView<T>(rb(k)), T(1), rb(i), nullptr, nb);
    } else {
      // QR step: orthogonal ops in execution order, dispatched at width nb.
      for (const QrOpT<T>& op : step.qr_ops) {
        switch (op.kind) {
          case QrKind::Geqrt:
            kern::unmqr(Trans::Yes,
                        ConstMatrixView<T>(factored_.tile(op.killer, k)),
                        op.t->cview(), rb(op.killer), nullptr, nb);
            break;
          case QrKind::Ts:
            kern::tsmqr(Trans::Yes,
                        ConstMatrixView<T>(factored_.tile(op.killed, k)),
                        op.t->cview(), rb(op.killer), rb(op.killed), nullptr,
                        nb);
            break;
          case QrKind::Tt:
            kern::ttmqr(Trans::Yes,
                        ConstMatrixView<T>(factored_.tile(op.killed, k)),
                        op.t->cview(), rb(op.killer), rb(op.killed), nullptr,
                        nb);
            break;
        }
      }
    }
  }
}

template <typename T>
void FactorizationT<T>::solve_triangular_wide(Matrix<T>& wb) const {
  const int n = factored_.mt();
  const int nb = factored_.nb();
  const int wp = wb.cols();
  auto rb = [&](int i) { return wb.view().block(i * nb, 0, nb, wp); };

  for (int k = n - 1; k >= 0; --k) {
    const auto diag = factored_.tile(k, k);
    const StepRecordT<T>* rec = nullptr;
    if (k < static_cast<int>(stats_.steps.size()) &&
        stats_.steps[static_cast<std::size_t>(k)].kind == StepKind::LU) {
      rec = &stats_.steps[static_cast<std::size_t>(k)];
    }
    const bool b1 = rec && rec->variant == LuVariant::B1;
    const bool b2 = rec && rec->variant == LuVariant::B2;
    auto bk = rb(k);
    for (int j = k + 1; j < n; ++j)
      kern::gemm(Trans::No, Trans::No, T(-1),
                 ConstMatrixView<T>(factored_.tile(k, j)),
                 ConstMatrixView<T>(rb(j)), T(1), bk, nullptr, nb);
    if (b1) {
      kern::laswp(bk, rec->diag_piv, /*forward=*/true);
      kern::trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1),
                 ConstMatrixView<T>(diag), bk);
    } else if (b2) {
      kern::unmqr(Trans::Yes, ConstMatrixView<T>(diag), rec->diag_t->cview(),
                  bk, nullptr, nb);
    }
    kern::trsm(Side::Left, Uplo::Upper, Trans::No, Diag::NonUnit, T(1),
               ConstMatrixView<T>(diag), bk);
  }
}

template <typename T>
std::size_t FactorizationT<T>::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += factored_.allocated_bytes();
  bytes += static_cast<std::size_t>(original_.rows()) * original_.cols() *
           sizeof(T);
  for (const StepLogT<T>& step : log_) {
    bytes += sizeof(StepLogT<T>);
    bytes += step.domain_rows.size() * sizeof(int) + step.piv.size() * sizeof(int);
    if (step.diag_t)
      bytes += static_cast<std::size_t>(step.diag_t->rows()) *
               step.diag_t->cols() * sizeof(T);
    for (const QrOpT<T>& op : step.qr_ops) {
      bytes += sizeof(QrOpT<T>);
      if (op.t)
        bytes += static_cast<std::size_t>(op.t->rows()) * op.t->cols() *
                 sizeof(T);
    }
  }
  for (const StepRecordT<T>& rec : stats_.steps) {
    bytes += sizeof(StepRecordT<T>) + rec.diag_piv.size() * sizeof(int);
    // rec.diag_t aliases the log's diag_t (shared_ptr); counted once above.
  }
  return bytes;
}

template class FactorizationT<double>;
template class FactorizationT<float>;

// ---------------------------------------------------------------------------
// Factorization: the precision-aware public handle
// ---------------------------------------------------------------------------

namespace {

template <typename Dst, typename Src>
Matrix<Dst> convert_matrix(const Matrix<Src>& m) {
  Matrix<Dst> out(m.rows(), m.cols());
  for (int j = 0; j < m.cols(); ++j)
    for (int i = 0; i < m.rows(); ++i)
      out(i, j) = static_cast<Dst>(m(i, j));
  return out;
}

// Widen a float step trace to the double record type for reporting. The
// B2 diagonal T factors are engine-internal (the float solve path replays
// them); the widened summary drops them.
FactorizationStats widen_stats(const FactorizationStatsT<float>& s) {
  FactorizationStats out;
  out.lu_steps = s.lu_steps;
  out.qr_steps = s.qr_steps;
  out.growth_factor = s.growth_factor;
  out.steps.reserve(s.steps.size());
  for (const StepRecordT<float>& r : s.steps) {
    StepRecord w;
    w.k = r.k;
    w.kind = r.kind;
    w.variant = r.variant;
    w.inv_norm_akk = r.inv_norm_akk;
    w.max_below = r.max_below;
    w.diag_piv = r.diag_piv;
    out.steps.push_back(std::move(w));
  }
  return out;
}

// Scaled residual max_j ||r_j||_inf / (anorm ||x_j||_inf + ||b_j||_inf) —
// the per-column HPL-style backward error the IR loop drives down and the
// report surfaces.
double scaled_residual(const Matrix<double>& r, const Matrix<double>& x,
                       const Matrix<double>& b, double anorm) {
  double worst = 0.0;
  for (int j = 0; j < r.cols(); ++j) {
    double rn = 0.0, xn = 0.0, bn = 0.0;
    for (int i = 0; i < r.rows(); ++i) {
      rn = std::max(rn, std::abs(r(i, j)));
      xn = std::max(xn, std::abs(x(i, j)));
      bn = std::max(bn, std::abs(b(i, j)));
    }
    const double denom = anorm * xn + bn;
    worst = std::max(worst, denom > 0.0 ? rn / denom
                                        : (rn > 0.0
                                               ? std::numeric_limits<double>::infinity()
                                               : 0.0));
  }
  return worst;
}

}  // namespace

Factorization Factorization::compute(const Matrix<double>& a,
                                     Criterion& criterion, int nb,
                                     const HybridOptions& options) {
  Factorization f;
  f.precision_ = Precision::F64;
  f.f64_ = std::make_shared<FactorizationT<double>>(
      FactorizationT<double>::compute(a, criterion, nb, options));
  f.n_scalar_ = f.f64_->order();
  f.nb_ = f.f64_->tile_size();
  f.options_ = options;
  return f;
}

Factorization Factorization::adopt(const Matrix<double>& original,
                                   TileMatrix<double> factored,
                                   FactorizationStats stats, TransformLog log,
                                   const HybridOptions& options) {
  Factorization f;
  f.precision_ = Precision::F64;
  f.f64_ = std::make_shared<FactorizationT<double>>(
      FactorizationT<double>::adopt(original, std::move(factored),
                                    std::move(stats), std::move(log), options));
  f.n_scalar_ = f.f64_->order();
  f.nb_ = f.f64_->tile_size();
  f.options_ = options;
  return f;
}

Factorization Factorization::adopt_f32(const Matrix<double>& original,
                                       TileMatrix<float> factored,
                                       FactorizationStatsT<float> stats,
                                       TransformLogT<float> log,
                                       const HybridOptions& options,
                                       Precision precision,
                                       const RefineOptions& refine,
                                       const CriterionSpec* fallback) {
  LUQR_REQUIRE(precision == Precision::F32 || precision == Precision::F32_IR,
               "adopt_f32: precision must be F32 or F32_IR");
  LUQR_REQUIRE(precision != Precision::F32_IR || fallback != nullptr,
               "adopt_f32: F32_IR needs a fallback criterion spec");
  Factorization f;
  f.precision_ = precision;
  f.refine_ = refine;
  f.original_ = original;
  f.stats_summary_ = widen_stats(stats);
  f.f32_ = std::make_shared<FactorizationT<float>>(
      FactorizationT<float>::adopt(convert_matrix<float>(original),
                                   std::move(factored), std::move(stats),
                                   std::move(log), options));
  f.n_scalar_ = f.f32_->order();
  f.nb_ = f.f32_->tile_size();
  f.options_ = options;
  if (fallback) {
    f.has_fallback_spec_ = true;
    f.fallback_spec_ = *fallback;
  }
  f.fallback_ = std::make_shared<FallbackSlot>();
  return f;
}

const FactorizationStats& Factorization::stats() const {
  return f64_ ? f64_->stats() : stats_summary_;
}

Matrix<double> Factorization::solve_through_f32(const Matrix<double>& rhs,
                                                int refinement_sweeps,
                                                RhsPath path) const {
  const Matrix<float> narrowed = convert_matrix<float>(rhs);
  return convert_matrix<double>(f32_->solve(narrowed, refinement_sweeps, path));
}

const FactorizationT<double>& Factorization::fallback_f64() const {
  std::lock_guard<std::mutex> lk(fallback_->mu);
  if (!fallback_->fac) {
    LUQR_REQUIRE(has_fallback_spec_,
                 "F32_IR fallback requested without a criterion spec");
    const auto crit = make_criterion(fallback_spec_);
    fallback_->fac = std::make_shared<FactorizationT<double>>(
        FactorizationT<double>::compute(original_, *crit, nb_, options_));
  }
  return *fallback_->fac;
}

Matrix<double> Factorization::solve(const Matrix<double>& b,
                                    int refinement_sweeps, RhsPath path) const {
  return solve(b, nullptr, refinement_sweeps, path);
}

Matrix<double> Factorization::solve(const Matrix<double>& b, SolveReport* report,
                                    int refinement_sweeps, RhsPath path) const {
  SolveReport rep;
  rep.precision = precision_;

  if (precision_ == Precision::F64) {
    Matrix<double> x = f64_->solve(b, refinement_sweeps, path);
    if (report) *report = rep;
    return x;
  }

  if (precision_ == Precision::F32) {
    Matrix<double> x = solve_through_f32(b, refinement_sweeps, path);
    if (report) *report = rep;
    return x;
  }

  // F32_IR: LU-IR against the retained f64 original. Each iteration solves
  // the correction through the f32 factors and re-evaluates the f64 scaled
  // residual; the loop runs until it stops making progress (two consecutive
  // iterations that fail to halve the best residual) or hits the cap, so a
  // converging solve is driven all the way to its f64 limiting accuracy —
  // not merely to the tolerance — and the report's residual is comparable
  // to a pure-f64 solve's.
  const double eps = std::numeric_limits<double>::epsilon();
  const double tol = refine_.tolerance > 0.0
                         ? refine_.tolerance
                         : 4.0 * std::max(n_scalar_, 1) * eps;
  const double anorm =
      kern::lange(kern::Norm::Inf, original_.cview());

  Matrix<double> x = solve_through_f32(b, 0, path);
  Matrix<double> r(b.rows(), b.cols());
  auto residual_of = [&](const Matrix<double>& xx) {
    r = b;
    kern::gemm(Trans::No, Trans::No, -1.0, original_.cview(), xx.cview(), 1.0,
               r.view());
    return scaled_residual(r, xx, b, anorm);
  };

  const auto t_refine0 = std::chrono::steady_clock::now();
  const auto refine_elapsed_us = [t_refine0] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t_refine0)
            .count());
  };
  double rho = residual_of(x);
  Matrix<double> best_x = x;
  double best_rho = rho;
  int iters = 0;
  int stall = 0;
  while (iters < refine_.max_iterations && stall < 2 && best_rho > eps &&
         std::isfinite(rho)) {
    // r currently holds b - A x for the latest x.
    const Matrix<double> d = solve_through_f32(r, 0, path);
    for (int j = 0; j < x.cols(); ++j)
      for (int i = 0; i < x.rows(); ++i) x(i, j) += d(i, j);
    ++iters;
    rho = residual_of(x);
    stall = (std::isfinite(rho) && rho < 0.5 * best_rho) ? 0 : stall + 1;
    if (std::isfinite(rho) && rho < best_rho) {
      best_rho = rho;
      best_x = x;
    } else {
      // Restore the best iterate so a diverging correction never degrades
      // the result (and the residual buffer matches it again).
      x = best_x;
      residual_of(x);
    }
  }

  rep.refine_iterations = iters;
  rep.converged = best_rho <= tol;
  rep.residual = best_rho;
  rep.refine_us = refine_elapsed_us();

  if (!rep.converged && has_fallback_spec_) {
    // Refinement stalled above the tolerance: refactor in f64 and serve the
    // solve from the full-precision factors, reporting the fallback.
    Matrix<double> xf = fallback_f64().solve(b, refinement_sweeps, path);
    rep.fell_back = true;
    rep.residual = residual_of(xf);
    rep.converged = rep.residual <= tol;
    rep.refine_us = refine_elapsed_us();
    if (report) *report = rep;
    return xf;
  }

  if (report) *report = rep;
  return best_x;
}

std::size_t Factorization::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  if (f64_) bytes += f64_->memory_bytes();
  if (f32_) {
    bytes += f32_->memory_bytes();
    // The retained f64 original (the engine's copy is float).
    bytes += static_cast<std::size_t>(original_.rows()) * original_.cols() *
             sizeof(double);
  }
  if (fallback_) {
    std::lock_guard<std::mutex> lk(fallback_->mu);
    if (fallback_->fac) bytes += fallback_->fac->memory_bytes();
  }
  return bytes;
}

}  // namespace luqr::core
