#include "core/step_graph.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/panel.hpp"
#include "hqr/trees.hpp"
#include "kernels/blas.hpp"
#include "kernels/lapack.hpp"
#include "kernels/norms.hpp"
#include "kernels/workspace.hpp"

namespace luqr::core {

using kern::ConstMatrixView;
using kern::Diag;
using kern::Side;
using kern::Trans;
using kern::Uplo;

template <typename T>
struct StepGraph<T>::Step {
  int k = 0;
  PanelFactorizationT<T> pf;
  std::vector<std::vector<T>> backup;  // empty without a panel stage
  bool lu = false;
  // One T factor per QR factor kernel, allocated at emission so the
  // pointers are stable task keys. Shared with the TransformLog's QrOps
  // when a log is kept: the tasks fill them in.
  std::vector<std::shared_ptr<Matrix<T>>> t_factors;
  // track_growth: max tile 1-norm over the trailing submatrix (rows/cols
  // >= k+1) after this step, reduced over the final writer of each tile.
  std::atomic<double> step_max{0.0};
};

namespace {

void atomic_max(std::atomic<double>& m, double v) {
  double cur = m.load(std::memory_order_relaxed);
  while (v > cur &&
         !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Tile 1-norm, widened to double at every precision so the growth
// reduction is precision-uniform.
template <typename T>
double tile_norm(ConstMatrixView<T> t) {
  return static_cast<double>(kern::lange(kern::Norm::One, t));
}

template <typename T>
double max_trailing_tile_norm(const TileMatrix<T>& a, int k) {
  double best = 0.0;
  for (int j = k; j < a.mt(); ++j)
    for (int i = k; i < a.mt(); ++i) best = std::max(best, tile_norm(a.tile(i, j)));
  return best;
}

std::vector<int> rows_for_scope(const ProcessGrid& grid, PivotScope scope, int k,
                                int n) {
  switch (scope) {
    case PivotScope::Tile:
      return {k};
    case PivotScope::Domain:
      return grid.diagonal_domain(k, n);
    case PivotScope::Panel: {
      std::vector<int> rows(static_cast<std::size_t>(n - k));
      for (int i = k; i < n; ++i) rows[static_cast<std::size_t>(i - k)] = i;
      return rows;
    }
  }
  throw Error("unknown pivot scope");
}

// Replay the stacked domain interchanges on tile column j. Stacked row s
// lives in tile domain_rows[s / nb], local row s % nb.
template <typename T>
void swap_column(TileMatrix<T>& a, const PanelFactorizationT<T>& pf, int j) {
  const int nb = a.nb();
  for (int s = 0; s < static_cast<int>(pf.piv.size()); ++s) {
    const int p = pf.piv[static_cast<std::size_t>(s)];
    const int t1 = pf.domain_rows[static_cast<std::size_t>(s / nb)];
    const int t2 = pf.domain_rows[static_cast<std::size_t>(p / nb)];
    const int r1 = s % nb, r2 = p % nb;
    if (t1 == t2 && r1 == r2) continue;
    auto tile1 = a.tile(t1, j);
    auto tile2 = a.tile(t2, j);
    for (int c = 0; c < nb; ++c) std::swap(tile1(r1, c), tile2(r2, c));
  }
}

// Right-multiply M in place by the permutation matrix P recorded by a
// forward laswp pivot vector: N = M * P with (P x)_i = x_{arr[i]}, i.e.
// N(:, j) = M(:, pos[j]) where pos inverts the swap simulation. Used by the
// B1 eliminate stage (A_kk^{-1} = U^{-1} L^{-1} P).
template <typename T>
void permute_columns_right(kern::MatrixView<T> m, const std::vector<int>& piv) {
  const int n = m.cols;
  std::vector<int> arr(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) arr[static_cast<std::size_t>(i)] = i;
  for (int j = 0; j < static_cast<int>(piv.size()); ++j)
    std::swap(arr[static_cast<std::size_t>(j)],
              arr[static_cast<std::size_t>(piv[static_cast<std::size_t>(j)])]);
  std::vector<int> pos(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pos[static_cast<std::size_t>(arr[static_cast<std::size_t>(i)])] = i;
  std::vector<T> tmp(static_cast<std::size_t>(m.rows) * n);
  kern::MatrixView<T> t(tmp.data(), m.rows, n, m.rows);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m.rows; ++i)
      t(i, j) = m(i, pos[static_cast<std::size_t>(j)]);
  kern::copy(kern::ConstMatrixView<T>(t), m);
}

// Right-multiply M in place by Q^T from a GEQRT factorization (V, T):
// M Q^T = (Q M^T)^T, realized through a transpose buffer.
template <typename T>
void apply_qt_from_right(kern::MatrixView<T> m, ConstMatrixView<T> v,
                         ConstMatrixView<T> t) {
  std::vector<T> buf(static_cast<std::size_t>(m.rows) * m.cols);
  kern::MatrixView<T> mt(buf.data(), m.cols, m.rows, m.cols);
  for (int j = 0; j < m.cols; ++j)
    for (int i = 0; i < m.rows; ++i) mt(j, i) = m(i, j);
  kern::unmqr(Trans::No, v, t, mt);  // Q * M^T
  for (int j = 0; j < m.cols; ++j)
    for (int i = 0; i < m.rows; ++i) m(i, j) = mt(j, i);
}

}  // namespace

template <typename T>
StepGraph<T>::StepGraph(TileMatrix<T>& a, Criterion* criterion,
                        const HybridOptions& options, TransformLogT<T>* log)
    : a_(a),
      criterion_(criterion),
      options_(options),
      log_(log),
      grid_(options.grid_p, options.grid_q),
      n_(a.mt()),
      steps_(static_cast<std::size_t>(a.mt())) {
  LUQR_REQUIRE(a.nt() >= n_, "matrix must contain its square part");
  if (log_) log_->clear();
  if (options_.track_growth) initial_max_ = max_trailing_tile_norm(a_, 0);
}

template <typename T>
StepGraph<T>::~StepGraph() = default;

template <typename T>
void StepGraph<T>::emit(TaskSink& sink, int k) {
  auto& slot = steps_[static_cast<std::size_t>(k)];
  slot = std::make_unique<Step>();
  Step* s = slot.get();
  s->k = k;
  if (criterion_ == nullptr) {
    decide(sink, *s);  // no panel stage: a QR step
    return;
  }

  // A2/B1/B2 factor the diagonal tile only (paper §II-C); A1 stacks the
  // rows of the configured pivot scope.
  std::vector<int> rows = options_.variant == LuVariant::A1
                              ? rows_for_scope(grid_, options_.scope, k, n_)
                              : std::vector<int>{k};
  // The panel writes its domain tiles and reads the rest of the panel (the
  // criterion statistics cover the whole panel).
  std::vector<Dep> deps;
  std::vector<bool> in_domain(static_cast<std::size_t>(n_), false);
  for (int r : rows) {
    deps.push_back({a_.tile_key(r, k), Access::ReadWrite});
    in_domain[static_cast<std::size_t>(r)] = true;
  }
  for (int i = k; i < n_; ++i)
    if (!in_domain[static_cast<std::size_t>(i)])
      deps.push_back({a_.tile_key(i, k), Access::Read});

  TaskSink* out = &sink;
  sink.emit(
      [this, out, s, rows = std::move(rows)] {
        const bool qr_factor = options_.variant == LuVariant::A2 ||
                               options_.variant == LuVariant::B2;
        s->pf = qr_factor ? factor_panel_qr_tile(a_, s->k, s->backup)
                          : factor_panel(a_, s->k, rows, options_.exact_inv_norm,
                                         s->backup);
        s->lu = criterion_->accept_lu(s->pf.stats);
        decide(*out, *s);
      },
      deps, {"panel", TaskRole::Panel, k, k});
}

// The post-decision half of the paper's Propagate task: record the step,
// emit its LU or QR updates, then hand the next step to the sink. Steps
// decide in k order (each panel depends on the previous step's updates of
// its column), so the trace and the log need no further synchronization.
template <typename T>
void StepGraph<T>::decide(TaskSink& sink, Step& s) {
  const int k = s.k;
  StepRecordT<T> rec;
  rec.k = k;
  rec.kind = s.lu ? StepKind::LU : StepKind::QR;
  rec.variant = options_.variant;
  rec.inv_norm_akk = s.pf.stats.inv_norm_akk;
  for (double nrm : s.pf.stats.below_tile_norms)
    rec.max_below = std::max(rec.max_below, nrm);
  if (s.lu && options_.variant == LuVariant::B1) rec.diag_piv = s.pf.piv;
  if (s.lu && options_.variant == LuVariant::B2) rec.diag_t = s.pf.diag_t;
  stats_.steps.push_back(std::move(rec));

  StepLogT<T>* step_log = nullptr;
  if (log_) {
    step_log = &log_->emplace_back();
    step_log->lu = s.lu;
    if (s.lu) {
      step_log->domain_rows = s.pf.domain_rows;
      step_log->piv = s.pf.piv;
      step_log->diag_t = s.pf.diag_t;
    }
  }

  if (s.lu) {
    ++stats_.lu_steps;
    emit_lu(sink, s);
  } else {
    ++stats_.qr_steps;
    emit_qr(sink, s, step_log);
  }

  if (k + 1 < n_) {
    TaskSink* out = &sink;
    sink.advance([this, out, k] { emit(*out, k + 1); });
  } else {
    sink.advance(nullptr);
  }
}

template <typename T>
void StepGraph<T>::emit_lu(TaskSink& sink, Step& s) {
  TileMatrix<T>& a = a_;
  Step* c = &s;
  const int k = s.k;
  const int n = n_;
  const int nt = a.nt();
  const LuVariant variant = options_.variant;
  const bool growth = options_.track_growth;
  const void* diag = a.tile_key(k, k);
  std::vector<bool> in_domain(static_cast<std::size_t>(n), false);
  for (int r : s.pf.domain_rows) in_domain[static_cast<std::size_t>(r)] = true;

  // Apply, per trailing column (column k+1 gates the next panel). A1 replays
  // the stacked interchanges and applies L11^{-1} (SWPTRSM); A2 applies the
  // diagonal tile's Q^T. The B variants leave row k untouched (block LU).
  if (variant == LuVariant::A1 || variant == LuVariant::A2) {
    for (int j = k + 1; j < nt; ++j) {
      std::vector<Dep> deps;
      for (int r : s.pf.domain_rows)
        deps.push_back({a.tile_key(r, j), Access::ReadWrite});
      deps.push_back({diag, Access::Read});
      if (variant == LuVariant::A1) {
        sink.emit(
            [&a, c, j, k] {
              swap_column(a, c->pf, j);
              kern::trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1),
                         std::as_const(a).tile(k, k), a.tile(k, j));
            },
            deps, {"swptrsm", TaskRole::Apply, k, j});
      } else {
        sink.emit(
            [&a, c, j, k] {
              kern::unmqr(Trans::Yes, std::as_const(a).tile(k, k),
                          c->pf.diag_t->cview(), a.tile(k, j));
            },
            deps, {"unmqr", TaskRole::Apply, k, j});
      }
    }
  }

  // Eliminate the rows below the diagonal domain (domain rows of an A1
  // stacked panel already hold their block of L): A_ik <- A_ik U^{-1} for
  // the A variants (U of the LU or R of the QR factor), A_ik <- A_ik
  // A_kk^{-1} = A_ik U^{-1} L^{-1} P for B1 and A_ik R^{-1} Q^T for B2.
  for (int i = k + 1; i < n; ++i) {
    if (in_domain[static_cast<std::size_t>(i)]) continue;
    sink.emit(
        [&a, c, i, k, variant] {
          const auto akk = std::as_const(a).tile(k, k);
          auto aik = a.tile(i, k);
          kern::trsm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, T(1),
                     akk, aik);
          if (variant == LuVariant::B1) {
            kern::trsm(Side::Right, Uplo::Lower, Trans::No, Diag::Unit, T(1),
                       akk, aik);
            permute_columns_right(aik, c->pf.piv);
          } else if (variant == LuVariant::B2) {
            apply_qt_from_right(aik, akk, c->pf.diag_t->cview());
          }
        },
        {{a.tile_key(i, k), Access::ReadWrite}, {diag, Access::Read}},
        {"trsm", TaskRole::Gate, k, k});
  }

  // Update: the embarrassingly parallel Schur complement. The GEMM is the
  // final writer of trailing tile (i, j) in this step.
  for (int i = k + 1; i < n; ++i) {
    for (int j = k + 1; j < nt; ++j) {
      sink.emit(
          [&a, c, i, j, k, n, growth] {
            // The executing thread's arena: packing scratch allocated once
            // per worker, reused by every task that lands on it.
            kern::Workspace& ws = kern::tls_workspace();
            auto aij = a.tile(i, j);
            kern::gemm(Trans::No, Trans::No, T(-1), std::as_const(a).tile(i, k),
                       std::as_const(a).tile(k, j), T(1), aij, &ws);
            if (growth && j < n)
              atomic_max(c->step_max, tile_norm(ConstMatrixView<T>(aij)));
          },
          {{a.tile_key(i, j), Access::ReadWrite},
           {a.tile_key(i, k), Access::Read},
           {a.tile_key(k, j), Access::Read}},
          {"gemm", TaskRole::Update, k, j});
    }
  }
}

template <typename T>
void StepGraph<T>::emit_qr(TaskSink& sink, Step& s, StepLogT<T>* step_log) {
  TileMatrix<T>& a = a_;
  Step* c = &s;
  const int k = s.k;
  const int n = n_;
  const int nb = a.nb();
  const int nt = a.nt();
  const bool growth = options_.track_growth;

  // Propagate's QR branch: drop the LU factorization of the domain and
  // restore the panel from its backup.
  if (!s.backup.empty()) {
    std::vector<Dep> deps;
    for (int r : s.pf.domain_rows)
      deps.push_back({a.tile_key(r, k), Access::ReadWrite});
    sink.emit(
        [&a, c, k, nb] {
          for (std::size_t t = 0; t < c->pf.domain_rows.size(); ++t) {
            auto tile = a.tile(c->pf.domain_rows[t], k);
            const auto& buf = c->backup[t];
            for (int j = 0; j < nb; ++j)
              for (int i = 0; i < nb; ++i)
                tile(i, j) = buf[static_cast<std::size_t>(j) * nb + i];
          }
        },
        deps, {"restore", TaskRole::Gate, k, k});
  }

  const auto list = hqr::elimination_list(grid_.panel_domains(k, n), options_.tree);

  // Allocate the block-reflector factors, walking the elimination list in
  // replay order: each row is GEQRT'd before it first acts (as a killer, or
  // in a TT elimination), then the elimination itself. The log's QrOps are
  // recorded in that order, referencing the storage the tasks fill in. A
  // row's GEQRT only touches that row, which no earlier elimination of the
  // step has touched, so emitting all GEQRTs first is equivalent.
  std::vector<Matrix<T>*> row_t(static_cast<std::size_t>(n), nullptr);
  std::vector<Matrix<T>*> elim_t;
  elim_t.reserve(list.size());
  auto new_t = [&](QrKind kind, int killer, int killed) {
    auto t = std::make_shared<Matrix<T>>(nb, nb);
    s.t_factors.push_back(t);
    if (step_log) step_log->qr_ops.push_back({kind, killer, killed, t});
    return t.get();
  };
  auto plan_geqrt = [&](int row) {
    if (row_t[static_cast<std::size_t>(row)] == nullptr)
      row_t[static_cast<std::size_t>(row)] = new_t(QrKind::Geqrt, row, row);
  };
  for (const auto& e : list) {
    plan_geqrt(e.killer);
    if (e.kernel == hqr::ElimKernel::TT) plan_geqrt(e.killed);
    elim_t.push_back(new_t(
        e.kernel == hqr::ElimKernel::TS ? QrKind::Ts : QrKind::Tt, e.killer,
        e.killed));
  }
  // Single-row panel: still triangularize the diagonal tile.
  if (list.empty()) plan_geqrt(k);

  for (int row = k; row < n; ++row) {
    Matrix<T>* t = row_t[static_cast<std::size_t>(row)];
    if (t == nullptr) continue;
    sink.emit([&a, row, k, t] { kern::geqrt(a.tile(row, k), t->view()); },
              {{a.tile_key(row, k), Access::ReadWrite}, {t->data(), Access::Write}},
              {"geqrt", TaskRole::Gate, k, k});
    for (int j = k + 1; j < nt; ++j) {
      sink.emit(
          [&a, row, j, k, t] {
            kern::unmqr(Trans::Yes, std::as_const(a).tile(row, k), t->cview(),
                        a.tile(row, j), &kern::tls_workspace());
          },
          {{a.tile_key(row, j), Access::ReadWrite},
           {a.tile_key(row, k), Access::Read},
           {t->data(), Access::Read}},
          {"unmqr", TaskRole::Update, k, j});
    }
  }

  for (std::size_t ei = 0; ei < list.size(); ++ei) {
    const auto& e = list[ei];
    Matrix<T>* t = elim_t[ei];
    const bool ts = e.kernel == hqr::ElimKernel::TS;
    sink.emit(
        [&a, e, k, t, ts] {
          if (ts) {
            kern::tsqrt(a.tile(e.killer, k), a.tile(e.killed, k), t->view());
          } else {
            kern::ttqrt(a.tile(e.killer, k), a.tile(e.killed, k), t->view());
          }
        },
        {{a.tile_key(e.killer, k), Access::ReadWrite},
         {a.tile_key(e.killed, k), Access::ReadWrite},
         {t->data(), Access::Write}},
        {ts ? "tsqrt" : "ttqrt", TaskRole::Gate, k, k});
    for (int j = k + 1; j < nt; ++j) {
      // A row is killed exactly once and never reappears in the list, so
      // this update performs the final write of tile (killed, j) this step
      // — the growth contribution. (Killer rows > k get their final write
      // where they are later killed; row k is outside the trailing block.)
      sink.emit(
          [&a, c, e, j, k, n, t, ts, growth] {
            kern::Workspace& ws = kern::tls_workspace();
            if (ts) {
              kern::tsmqr(Trans::Yes, std::as_const(a).tile(e.killed, k),
                          t->cview(), a.tile(e.killer, j), a.tile(e.killed, j),
                          &ws);
            } else {
              kern::ttmqr(Trans::Yes, std::as_const(a).tile(e.killed, k),
                          t->cview(), a.tile(e.killer, j), a.tile(e.killed, j),
                          &ws);
            }
            if (growth && j < n)
              atomic_max(c->step_max, tile_norm(std::as_const(a).tile(e.killed, j)));
          },
          {{a.tile_key(e.killer, j), Access::ReadWrite},
           {a.tile_key(e.killed, j), Access::ReadWrite},
           {a.tile_key(e.killed, k), Access::Read},
           {t->data(), Access::Read}},
          {ts ? "tsmqr" : "ttmqr", TaskRole::Update, k, j});
    }
  }
}

template <typename T>
FactorizationStatsT<T> StepGraph<T>::take_stats() {
  if (options_.track_growth && initial_max_ > 0.0) {
    for (const auto& s : steps_) {
      if (!s) continue;  // a failed step cut the decision chain short
      stats_.growth_factor =
          std::max(stats_.growth_factor,
                   s->step_max.load(std::memory_order_relaxed) / initial_max_);
    }
  }
  return std::move(stats_);
}

template <typename T>
FactorizationStatsT<T> factor_inline(TileMatrix<T>& a, Criterion* criterion,
                                     const HybridOptions& options,
                                     TransformLogT<T>* log) {
  StepGraph<T> graph(a, criterion, options, log);
  InlineSink sink;
  if (graph.steps() > 0) sink.run([&] { graph.emit(sink, 0); });
  return graph.take_stats();
}

template class StepGraph<double>;
template class StepGraph<float>;
template FactorizationStatsT<double> factor_inline(TileMatrix<double>&, Criterion*,
                                                   const HybridOptions&,
                                                   TransformLogT<double>*);
template FactorizationStatsT<float> factor_inline(TileMatrix<float>&, Criterion*,
                                                  const HybridOptions&,
                                                  TransformLogT<float>*);

}  // namespace luqr::core
