#include "core/step_graph.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "core/panel.hpp"
#include "hqr/trees.hpp"
#include "kernels/blas.hpp"
#include "kernels/lapack.hpp"
#include "kernels/norms.hpp"
#include "kernels/workspace.hpp"
#include "obs/metrics.hpp"

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
  bool lu = false;
  // One block reflector per QR factor kernel, allocated at emission so the
  // pointers are stable task keys. Shared with the TransformLog's QrOps
  // when a log is kept: the factor tasks fill them in.
  std::vector<std::shared_ptr<ReflectorT<T>>> reflectors;
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

// Max tile norm over tile rows [0, mt) of tile column j.
template <typename T>
double max_column_tile_norm(const TileMatrix<T>& a, int j) {
  double best = 0.0;
  for (int i = 0; i < a.mt(); ++i) best = std::max(best, tile_norm(a.tile(i, j)));
  return best;
}

// Time the convert stage spends tiling dense input, summed over its tasks.
obs::Counter& convert_us_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "luqr_driver_convert_us_total", {},
      "Microseconds the step graph's convert tasks spent tiling dense input");
  return c;
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

template <typename T, typename S>
void convert_dense_column(TileMatrix<T>& tiles, int tj, ConstMatrixView<S> a,
                          ConstMatrixView<S> b, Matrix<T>* keep) {
  const int nb = tiles.nb();
  const int mt = tiles.mt();
  if (tj >= mt) {
    const int c0 = (tj - mt) * nb;
    tiles.load_column(tj, b.block(0, c0, b.rows, std::min(nb, b.cols - c0)),
                      /*identity_pad=*/false);
    return;
  }
  const int c0 = tj * nb;
  const ConstMatrixView<S> cols = a.block(0, c0, a.rows, std::min(nb, a.cols - c0));
  tiles.load_column(tj, cols, /*identity_pad=*/true);
  if (keep == nullptr) return;
  for (int c = 0; c < cols.cols; ++c) {
    const S* src = &cols(0, c);
    T* dst = &(*keep)(0, c0 + c);
    for (int i = 0; i < cols.rows; ++i) dst[i] = static_cast<T>(src[i]);
  }
}

template <typename T>
TileMatrix<T> DenseSource<T>::tiles(int nb) const {
  LUQR_REQUIRE(nb > 0, "tile size must be positive");
  const int mt = (n_ + nb - 1) / nb;
  return TileMatrix<T>::for_overwrite(mt, mt + (nrhs_ + nb - 1) / nb, nb);
}

template <typename T>
StepGraph<T>::StepGraph(TileMatrix<T>& a, Criterion* criterion,
                        const HybridOptions& options, TransformLogT<T>* log,
                        const DenseSource<T>* source)
    : a_(a),
      criterion_(criterion),
      options_(options),
      log_(log),
      source_(source),
      grid_(options.grid_p, options.grid_q),
      n_(a.mt()),
      steps_(static_cast<std::size_t>(a.mt())) {
  LUQR_REQUIRE(a.nt() >= n_, "matrix must contain its square part");
  if (source_) {
    const int nb = a.nb();
    LUQR_REQUIRE(n_ == (source_->order() + nb - 1) / nb &&
                     a.nt() == n_ + (source_->rhs_cols() + nb - 1) / nb,
                 "tile grid does not match the dense source");
  }
  if (log_) log_->clear();
  if (options_.track_growth && !source_) {
    double best = 0.0;
    for (int j = 0; j < n_; ++j) best = std::max(best, max_column_tile_norm(a_, j));
    initial_max_.store(best, std::memory_order_relaxed);
  }
  if (criterion_ != nullptr) {
    std::size_t tiles = 0;
    for (int k = 0; k < n_; ++k) tiles = std::max(tiles, panel_rows(k).size());
    backup_.resize(tiles * static_cast<std::size_t>(a.nb()) * a.nb());
  }
}

template <typename T>
StepGraph<T>::~StepGraph() = default;

// The panel's domain: A2/B1/B2 factor the diagonal tile only (paper
// §II-C); A1 stacks the rows of the configured pivot scope.
template <typename T>
std::vector<int> StepGraph<T>::panel_rows(int k) const {
  return options_.variant == LuVariant::A1
             ? rows_for_scope(grid_, options_.scope, k, n_)
             : std::vector<int>{k};
}

template <typename T>
void StepGraph<T>::emit_convert(TaskSink& sink) {
  for (int j = 0; j < a_.nt(); ++j) {
    std::vector<Dep> deps;
    deps.reserve(static_cast<std::size_t>(a_.mt()));
    for (int i = 0; i < a_.mt(); ++i)
      deps.push_back({a_.tile_key(i, j), Access::Write});
    sink.emit([this, j] { convert(j); }, deps, {"convert", TaskRole::Convert, 0, j});
  }
}

template <typename T>
void StepGraph<T>::convert(int j) {
  const auto t0 = std::chrono::steady_clock::now();
  source_->convert_column(a_, j);
  if (options_.track_growth && j < n_)
    atomic_max(initial_max_, max_column_tile_norm(std::as_const(a_), j));
  convert_us_total().add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

template <typename T>
void StepGraph<T>::emit(TaskSink& sink, int k) {
  if (k == 0 && source_) emit_convert(sink);
  auto& slot = steps_[static_cast<std::size_t>(k)];
  slot = std::make_unique<Step>();
  Step* s = slot.get();
  s->k = k;
  if (criterion_ == nullptr) {
    decide(sink, *s);  // no panel stage: a QR step
    return;
  }

  std::vector<int> rows = panel_rows(k);
  // The panel writes its domain tiles and the backup buffer, and reads the
  // rest of the panel (the criterion statistics cover the whole panel).
  std::vector<Dep> deps;
  std::vector<bool> in_domain(static_cast<std::size_t>(n_), false);
  for (int r : rows) {
    deps.push_back({a_.tile_key(r, k), Access::ReadWrite});
    in_domain[static_cast<std::size_t>(r)] = true;
  }
  for (int i = k; i < n_; ++i)
    if (!in_domain[static_cast<std::size_t>(i)])
      deps.push_back({a_.tile_key(i, k), Access::Read});
  deps.push_back({backup_.data(), Access::Write});
  // A2/B2 factor the diagonal tile by GEQRT; the panel task builds its
  // reflector, which the step's applies read.
  const bool qr_factor =
      options_.variant == LuVariant::A2 || options_.variant == LuVariant::B2;
  std::shared_ptr<ReflectorT<T>> diag_q;
  if (qr_factor) {
    diag_q = std::make_shared<ReflectorT<T>>();
    deps.push_back({diag_q.get(), Access::Write});
  }

  TaskSink* out = &sink;
  sink.emit(
      [this, out, s, rows = std::move(rows), diag_q = std::move(diag_q)] {
        s->pf = diag_q ? factor_panel_qr_tile(
                             a_, s->k, backup_.data(), diag_q,
                             /*keep_t=*/options_.variant == LuVariant::B2)
                       : factor_panel(a_, s->k, rows, options_.exact_inv_norm,
                                      backup_.data());
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
      deps.push_back({variant == LuVariant::A1
                          ? diag
                          : static_cast<const void*>(s.pf.diag_t.get()),
                      Access::Read});
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
              c->pf.diag_t->apply_qt(a.tile(k, j), a.tile(k, j),
                                     &kern::tls_workspace());
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
            apply_qt_from_right(aik, akk, c->pf.diag_tfactor.cview());
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
  if (criterion_ != nullptr) {
    std::vector<Dep> deps;
    for (int r : s.pf.domain_rows)
      deps.push_back({a.tile_key(r, k), Access::ReadWrite});
    deps.push_back({backup_.data(), Access::Read});
    const T* saved = backup_.data();
    sink.emit([&a, c, k, saved] { a.restore_column(k, c->pf.domain_rows, saved); },
              deps, {"restore", TaskRole::Gate, k, k});
  }

  const auto list = hqr::elimination_list(grid_.panel_domains(k, n), options_.tree);

  // Allocate the block reflectors, walking the elimination list in replay
  // order: each row is GEQRT'd before it first acts (as a killer, or in a
  // TT elimination), then the elimination itself. The log's QrOps are
  // recorded in that order, referencing the reflectors the tasks fill in. A
  // row's GEQRT only touches that row, which no earlier elimination of the
  // step has touched, so emitting all GEQRTs first is equivalent.
  std::vector<ReflectorT<T>*> row_q(static_cast<std::size_t>(n), nullptr);
  std::vector<ReflectorT<T>*> elim_q;
  elim_q.reserve(list.size());
  auto new_q = [&](QrKind kind, int killer, int killed) {
    auto q = std::make_shared<ReflectorT<T>>();
    s.reflectors.push_back(q);
    if (step_log) step_log->qr_ops.push_back({kind, killer, killed, q});
    return q.get();
  };
  auto plan_geqrt = [&](int row) {
    if (row_q[static_cast<std::size_t>(row)] == nullptr)
      row_q[static_cast<std::size_t>(row)] = new_q(QrKind::Geqrt, row, row);
  };
  for (const auto& e : list) {
    plan_geqrt(e.killer);
    if (e.kernel == hqr::ElimKernel::TT) plan_geqrt(e.killed);
    elim_q.push_back(new_q(
        e.kernel == hqr::ElimKernel::TS ? QrKind::Ts : QrKind::Tt, e.killer,
        e.killed));
  }
  // Single-row panel: still triangularize the diagonal tile.
  if (list.empty()) plan_geqrt(k);

  // Each factor task computes T into its worker's arena and builds the
  // reflector from it and the tile's fresh V. The updates read only the
  // reflector, so the factor task's next write of its tiles (a later TS/TT
  // elimination) need not wait for them.
  for (int row = k; row < n; ++row) {
    ReflectorT<T>* q = row_q[static_cast<std::size_t>(row)];
    if (q == nullptr) continue;
    sink.emit(
        [&a, row, k, nb, q] {
          kern::Workspace& ws = kern::tls_workspace();
          kern::Workspace::Frame frame(ws);
          kern::MatrixView<T> t(ws.alloc<T>(static_cast<std::size_t>(nb) * nb),
                                nb, nb, nb);
          kern::geqrt(a.tile(row, k), t, &ws);
          q->set(QrKind::Geqrt, std::as_const(a).tile(row, k),
                 ConstMatrixView<T>(t));
        },
        {{a.tile_key(row, k), Access::ReadWrite}, {q, Access::Write}},
        {"geqrt", TaskRole::Gate, k, k});
    for (int j = k + 1; j < nt; ++j) {
      sink.emit(
          [&a, row, j, q] {
            q->apply_qt(a.tile(row, j), a.tile(row, j), &kern::tls_workspace());
          },
          {{a.tile_key(row, j), Access::ReadWrite}, {q, Access::Read}},
          {"unmqr", TaskRole::Update, k, j});
    }
  }

  for (std::size_t ei = 0; ei < list.size(); ++ei) {
    const auto& e = list[ei];
    ReflectorT<T>* q = elim_q[ei];
    const bool ts = e.kernel == hqr::ElimKernel::TS;
    sink.emit(
        [&a, e, k, nb, q, ts] {
          kern::Workspace& ws = kern::tls_workspace();
          kern::Workspace::Frame frame(ws);
          kern::MatrixView<T> t(ws.alloc<T>(static_cast<std::size_t>(nb) * nb),
                                nb, nb, nb);
          if (ts) {
            kern::tsqrt(a.tile(e.killer, k), a.tile(e.killed, k), t, &ws);
          } else {
            kern::ttqrt(a.tile(e.killer, k), a.tile(e.killed, k), t, &ws);
          }
          q->set(ts ? QrKind::Ts : QrKind::Tt, std::as_const(a).tile(e.killed, k),
                 ConstMatrixView<T>(t));
        },
        {{a.tile_key(e.killer, k), Access::ReadWrite},
         {a.tile_key(e.killed, k), Access::ReadWrite},
         {q, Access::Write}},
        {ts ? "tsqrt" : "ttqrt", TaskRole::Gate, k, k});
    for (int j = k + 1; j < nt; ++j) {
      // A row is killed exactly once and never reappears in the list, so
      // this update performs the final write of tile (killed, j) this step
      // — the growth contribution. (Killer rows > k get their final write
      // where they are later killed; row k is outside the trailing block.)
      sink.emit(
          [&a, c, e, j, n, q, growth] {
            q->apply_qt(a.tile(e.killer, j), a.tile(e.killed, j),
                        &kern::tls_workspace());
            if (growth && j < n)
              atomic_max(c->step_max, tile_norm(std::as_const(a).tile(e.killed, j)));
          },
          {{a.tile_key(e.killer, j), Access::ReadWrite},
           {a.tile_key(e.killed, j), Access::ReadWrite},
           {q, Access::Read}},
          {ts ? "tsmqr" : "ttmqr", TaskRole::Update, k, j});
    }
  }
}

template <typename T>
FactorizationStatsT<T> StepGraph<T>::take_stats() {
  const double initial_max = initial_max_.load(std::memory_order_relaxed);
  if (options_.track_growth && initial_max > 0.0) {
    for (const auto& s : steps_) {
      if (!s) continue;  // a failed step cut the decision chain short
      stats_.growth_factor =
          std::max(stats_.growth_factor,
                   s->step_max.load(std::memory_order_relaxed) / initial_max);
    }
  }
  return std::move(stats_);
}

template <typename T>
FactorizationStatsT<T> factor_inline(TileMatrix<T>& a, Criterion* criterion,
                                     const HybridOptions& options,
                                     TransformLogT<T>* log,
                                     const DenseSource<T>* source) {
  StepGraph<T> graph(a, criterion, options, log, source);
  InlineSink sink;
  if (graph.steps() > 0) sink.run([&] { graph.emit(sink, 0); });
  return graph.take_stats();
}

template void convert_dense_column(TileMatrix<double>&, int,
                                   ConstMatrixView<double>,
                                   ConstMatrixView<double>, Matrix<double>*);
template void convert_dense_column(TileMatrix<float>&, int,
                                   ConstMatrixView<float>,
                                   ConstMatrixView<float>, Matrix<float>*);
template void convert_dense_column(TileMatrix<float>&, int,
                                   ConstMatrixView<double>,
                                   ConstMatrixView<double>, Matrix<float>*);
template class DenseSource<double>;
template class DenseSource<float>;
template class StepGraph<double>;
template class StepGraph<float>;
template FactorizationStatsT<double> factor_inline(TileMatrix<double>&, Criterion*,
                                                   const HybridOptions&,
                                                   TransformLogT<double>*,
                                                   const DenseSource<double>*);
template FactorizationStatsT<float> factor_inline(TileMatrix<float>&, Criterion*,
                                                  const HybridOptions&,
                                                  TransformLogT<float>*,
                                                  const DenseSource<float>*);

}  // namespace luqr::core
