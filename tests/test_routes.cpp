// Route-equivalence oracle. The hybrid solver promises one answer however its
// steps are scheduled: serial == parallel, fused == retained, serve ==
// one-shot, batch == solo. One seeded generator over the configuration
// lattice checks that promise, in the style of QuickCheck (Claessen & Hughes,
// ICFP 2000).
//
// A draw picks the backend (Serial, a Parallel owned pool, or a shared engine
// through SolverConfig::engine), precision, LU variant, decision mix, QR
// trees, grid, pivot scope, nb (n a multiple of nb, or padded), the width W
// of b, 0 or 2 refinement sweeps, growth tracking and the serve owner's
// grain, and every route in kRouteName solves the drawn A x = b. Each must
// return, bit for bit, the x of one reference, the serial retained solve,
// with its step counts, growth factor and solve report. Where columns fuse,
// fused/core runs the core fused-RHS driver (tile [A | b], factor, back-
// substitute) in the working precision, so F32 draws check float fused ==
// float retained, which no Solver route runs. The reference is
// built apart from the spec Solver (an external criterion instance at F64,
// float factors adopted by hand at reduced precision), so factor/serial is
// checked too. At F64 without sweeps solve/serial is the fused driver, so the
// reference equals it. Multi-member routes solve a split of b's columns, each
// member against its own reference; where columns fuse, column j of the
// W-wide reference equals column j solved alone. The submit_many miss also
// sends a second matrix, against that matrix's reference. Engine-backend
// draws also compare the engine sink's tiles, step trace and transform log
// with the inline sink's.
//
// Each checked route marks its cell (route, precision, variant, decision
// mix, padded or not, width class). The test prints the table and asserts
// that every row of kMustReach, drawn once, reaches its cells; a few free
// draws explore the rest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/batch.hpp"
#include "api/solver.hpp"
#include "core/hybrid.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"
#include "runtime/engine.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "serve/service.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr {
namespace {

using core::LuVariant;
using luqr::testing::expect_bitwise;
using luqr::testing::random_matrix;
using luqr::testing::settle_until;

constexpr const char* kVariantName[] = {"A1", "A2", "B1", "B2"};

enum class Mix { LU, QR, Mixed };
enum class Width { One, UpToNb, BeyondNb };
enum class Where { Serial, Pool, Shared };
enum class Grain { Coarse, Fine };

enum Route {
  kSolveSerial, kSolvePool, kSolveShared,     // Solver::solve
  kFactorSerial, kFactorPool, kFactorShared,  // Solver::factor + solve
  kServeCoarse, kServeFine,                   // submit_solve owning a miss
  kServeHit, kServeBatch,                     // submit_solve hit, submit_batch
  kManyMiss, kManySkim, kManyAttach,          // submit_many
  kFactorSolveMany, kSolveMany,               // batch::
  kFusedCore,                                 // core fused-RHS driver in T
  kRoutes
};
constexpr const char* kRouteName[kRoutes] = {
    "solve/serial", "solve/pool",   "solve/shared", "factor/serial",
    "factor/pool",  "factor/shared", "serve/coarse", "serve/fine",
    "serve/hit",    "serve/batch",  "many/miss",    "many/skim",
    "many/attach",  "batch/factor_solve_many",      "batch/solve_many",
    "fused/core"};

// The routes a draw on this backend and grain runs (and fused/core where its
// columns fuse).
std::vector<Route> routes_of(Where where, Grain grain) {
  std::vector<Route> r = {kSolveSerial, kFactorSerial,
                          grain == Grain::Coarse ? kServeCoarse : kServeFine,
                          kServeHit, kServeBatch, kManyMiss, kManySkim,
                          kManyAttach, kFactorSolveMany, kSolveMany};
  if (where != Where::Serial) {
    r.push_back(static_cast<Route>(kSolveSerial + static_cast<int>(where)));
    r.push_back(static_cast<Route>(kFactorSerial + static_cast<int>(where)));
  }
  return r;
}

constexpr int kPrecisions = 3, kVariants = 4, kMixes = 3, kWidths = 3;
constexpr int kShapes = kMixes * 2 * kWidths;  // per precision and variant
constexpr int kCells = kRoutes * kPrecisions * kVariants * kShapes;

int cell(Route route, Precision p, LuVariant v, Mix mix, bool padded, Width w) {
  return (((route * kPrecisions + static_cast<int>(p)) * kVariants +
           static_cast<int>(v)) * kMixes + static_cast<int>(mix)) * 2 * kWidths +
         (padded ? kWidths : 0) + static_cast<int>(w);
}

// The knobs a must-reach row fixes. nb = 0, sweeps = -1 and growth = -1
// leave those drawn; growth = 1 turns growth tracking on. A deep row fixes
// six 16-wide tile rows on a 2x2 grid and, on a pool, four threads: the
// deepest graphs, with look-ahead across the most steps. A wide row fixes
// four 128-wide tile rows (blocked panels, packed reflectors, three
// eliminations in a first QR step) on a wide_p x 1 grid (wide_p = 2 adds
// the distributed TT tree) with the local tree `local`.
enum class Shape { Drawn, Deep, Wide };

struct Row {
  Precision precision;
  LuVariant variant;
  Mix mix;
  bool padded;
  Width width;
  Where where;
  Grain grain;
  int nb = 0;
  int sweeps = -1;
  int growth = -1;
  Shape shape = Shape::Drawn;
  int wide_p = 1;
  hqr::LocalTree local = hqr::LocalTree::FlatTS;
};

using P = Precision;
using V = LuVariant;
constexpr bool kPad = true, kExact = false;
constexpr Shape kDeep = Shape::Deep, kWide = Shape::Wide;
constexpr hqr::LocalTree kFlatTs = hqr::LocalTree::FlatTS,
                         kGreedy = hqr::LocalTree::Greedy;

// The first rows hold the configurations the former pairwise parity tests
// checked (named in the comments); the rest reach cells no test did.
const Row kMustReach[] = {
    // SecondPassMatchesFusedSolveBitwise, one-shot == serial driver, serve
    // cold and warm hits; deep: serial == parallel, the engine sink and the
    // growth factor on both sinks, mixed and all-LU.
    {P::F64, V::A1, Mix::Mixed, kExact, Width::One, Where::Pool, Grain::Coarse, 0, -1, 1, kDeep},
    {P::F64, V::A1, Mix::LU, kExact, Width::One, Where::Pool, Grain::Coarse, 0, -1, 1, kDeep},
    // AllQrStepsReplayCorrectly; serial == parallel all-QR.
    {P::F64, V::A1, Mix::QR, kExact, Width::One, Where::Pool, Grain::Fine},
    // ExactWidthPanelOnAllLuFactorizations.
    {P::F64, V::A1, Mix::LU, kExact, Width::UpToNb, Where::Shared, Grain::Coarse},
    {P::F64, V::A1, Mix::LU, kPad, Width::One, Where::Serial, Grain::Fine},
    // Deep: shared engine == owned pool == serial, mixed, 2..nb columns;
    // fine-grained serve owner. SingleThreadAgrees: pool draws of 1 thread.
    {P::F64, V::A1, Mix::Mixed, kExact, Width::UpToNb, Where::Shared, Grain::Fine, 0, -1, -1, kDeep},
    // RetainedMatchesFusedBitwiseAtEveryWidth; SmallTilesUnblockedMirror
    // (nb = 8 keeps the tile products on the unpacked loops).
    {P::F64, V::A1, Mix::Mixed, kExact, Width::BeyondNb, Where::Pool, Grain::Coarse, 8},
    // RefinementAndPaddingBitwise's parity half; padded serve orders.
    {P::F64, V::A1, Mix::Mixed, kPad, Width::UpToNb, Where::Serial, Grain::Coarse, 0, 0},
    // ParallelRetainedPaddedSizes; padded batch-library members.
    {P::F64, V::A1, Mix::Mixed, kPad, Width::One, Where::Pool, Grain::Fine},
    // Refinement sweeps through serve, an unfused batch and solve_many.
    {P::F64, V::A1, Mix::Mixed, kExact, Width::UpToNb, Where::Pool, Grain::Coarse, 0, 2},
    // BlockedPanelParity: nb = 64 puts the panels on the blocked kernels.
    {P::F64, V::A1, Mix::Mixed, kExact, Width::UpToNb, Where::Pool, Grain::Fine, 64},
    // RetainedMatchesFusedQrStepsAndVariants; deep: serial == parallel and
    // the engine sink with its growth factor, per variant.
    {P::F64, V::A2, Mix::Mixed, kExact, Width::UpToNb, Where::Pool, Grain::Coarse, 0, -1, 1, kDeep},
    {P::F64, V::B1, Mix::Mixed, kExact, Width::UpToNb, Where::Pool, Grain::Fine, 0, -1, 1, kDeep},
    {P::F64, V::B2, Mix::Mixed, kExact, Width::UpToNb, Where::Shared, Grain::Coarse, 0, -1, 1, kDeep},
    {P::F64, V::A2, Mix::LU, kExact, Width::BeyondNb, Where::Pool, Grain::Fine},
    {P::F64, V::B1, Mix::LU, kExact, Width::One, Where::Pool, Grain::Coarse, 0, -1, -1, kDeep},
    {P::F64, V::B2, Mix::LU, kExact, Width::BeyondNb, Where::Pool, Grain::Coarse},
    {P::F64, V::A2, Mix::QR, kExact, Width::One, Where::Pool, Grain::Coarse},
    {P::F64, V::B1, Mix::QR, kExact, Width::One, Where::Shared, Grain::Fine},
    {P::F64, V::B2, Mix::QR, kExact, Width::One, Where::Pool, Grain::Fine},
    // PrecisionBitwise; deep: the f32 engine sink with growth. F32_IR
    // without sweeps: only the serve fusion gate keeps members apart.
    {P::F32, V::A1, Mix::Mixed, kExact, Width::UpToNb, Where::Pool, Grain::Coarse, 0, -1, 1, kDeep},
    {P::F32_IR, V::A1, Mix::Mixed, kExact, Width::UpToNb, Where::Pool, Grain::Fine, 0, 0},
    {P::F32_IR, V::A1, Mix::Mixed, kPad, Width::One, Where::Shared, Grain::Coarse},
    // No test reached these: every route under A2/B1/B2 at reduced
    // precision, padded and beyond nb.
    {P::F32, V::A2, Mix::Mixed, kPad, Width::One, Where::Shared, Grain::Fine, 0, -1, 1, kDeep},
    {P::F32, V::B1, Mix::QR, kExact, Width::BeyondNb, Where::Serial, Grain::Coarse},
    {P::F32, V::B2, Mix::LU, kPad, Width::UpToNb, Where::Pool, Grain::Fine},
    {P::F32_IR, V::A2, Mix::LU, kExact, Width::UpToNb, Where::Pool, Grain::Coarse},
    {P::F32_IR, V::B1, Mix::Mixed, kPad, Width::BeyondNb, Where::Pool, Grain::Fine, 0, 0, 1},
    {P::F32_IR, V::B2, Mix::Mixed, kPad, Width::One, Where::Shared, Grain::Coarse, 0, -1, 1},
    {P::F64, V::B1, Mix::Mixed, kPad, Width::BeyondNb, Where::Serial, Grain::Fine},
    // Float fused == float retained (fused/core) on QR-heavy draws, up to
    // nb + 4 columns; formerly the f32 half of
    // ExactWidthPanelOnQrFactorizations. The wide rows run every variant at
    // nb = 128, FlatTS and Greedy each on one process row and on two.
    {P::F32, V::A1, Mix::QR, kExact, Width::BeyondNb, Where::Serial, Grain::Coarse, 0, 0, -1, kWide, 1, kFlatTs},
    {P::F32, V::A2, Mix::Mixed, kPad, Width::UpToNb, Where::Pool, Grain::Fine, 0, 0, -1, kWide, 2, kGreedy},
    {P::F32, V::B1, Mix::Mixed, kPad, Width::One, Where::Pool, Grain::Coarse, 0, 0, -1, kWide, 1, kGreedy},
    {P::F32, V::B2, Mix::Mixed, kExact, Width::BeyondNb, Where::Shared, Grain::Coarse, 0, 0, -1, kWide, 2, kFlatTs},
    {P::F32, V::B1, Mix::Mixed, kPad, Width::BeyondNb, Where::Pool, Grain::Coarse, 32, 0},
    {P::F32, V::B2, Mix::QR, kExact, Width::One, Where::Serial, Grain::Fine, 32, 0},
    {P::F32, V::A1, Mix::Mixed, kExact, Width::UpToNb, Where::Shared, Grain::Coarse, 16, 0},
};

constexpr int kFreeDraws = 4;

// One drawn configuration: a row's knobs plus the ones drawn within it.
struct Draw {
  Row row;
  CriterionSpec criterion;
  core::PivotScope scope = core::PivotScope::Domain;
  hqr::TreeConfig tree;
  int grid_p = 1, grid_q = 1;
  int nb = 16, n = 48, width = 1, sweeps = 0;
  bool growth = false;
  int threads = 1;  // the owned pool's size
  std::uint64_t seed = 0;

  // Everything but the backend.
  SolverConfig config() const {
    return SolverConfig()
        .criterion(criterion)
        .tile_size(nb)
        .grid(grid_p, grid_q)
        .variant(row.variant)
        .pivot_scope(scope)
        .trees(tree)
        .precision(row.precision)
        .refinement_sweeps(sweeps)
        .track_growth(growth);
  }

  bool default_tree() const {
    const hqr::TreeConfig defaults;
    return tree.local == defaults.local && tree.dist == defaults.dist;
  }

  // Column j of a W-wide solve is column j solved alone: no sweeps couple
  // the columns, and F32_IR (which iterates on the joint residual) is off.
  bool fuses() const { return sweeps == 0 && row.precision != Precision::F32_IR; }
  // The service solves a job's members in one wide solve only at F64.
  bool serve_fuses() const { return sweeps == 0 && row.precision == Precision::F64; }

  std::string describe() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "seed=%llu %s %s criterion=%s scope=%d tree=%s/%s "
                  "grid=%dx%d nb=%d n=%d W=%d sweeps=%d growth=%d backend=%d "
                  "threads=%d grain=%d",
                  static_cast<unsigned long long>(seed),
                  to_string(row.precision).c_str(),
                  kVariantName[static_cast<int>(row.variant)],
                  criterion.name().c_str(), static_cast<int>(scope),
                  hqr::to_string(tree.local).c_str(),
                  hqr::to_string(tree.dist).c_str(), grid_p, grid_q, nb, n,
                  width, sweeps, growth ? 1 : 0, static_cast<int>(row.where),
                  threads, static_cast<int>(row.grain));
    return buf;
  }
};

// A random criterion whose seed makes the mt steps take both LU and QR.
// On more than two tile rows one of its QR steps comes before the last, so
// it eliminates tiles below the diagonal.
CriterionSpec mixed_random(int mt, Rng& rng) {
  for (;;) {
    const CriterionSpec spec = CriterionSpec::random(0.5, rng.next_u64());
    const auto crit = make_criterion(spec);
    int lu = 0;
    bool eliminates = false;
    for (int k = 0; k < mt; ++k) {
      const bool step_lu = crit->accept_lu(PanelInfo{});
      lu += step_lu ? 1 : 0;
      eliminates = eliminates || (!step_lu && k + 1 < mt);
    }
    if (lu > 0 && lu < mt && (mt <= 2 || eliminates)) return spec;
  }
}

// Draw every knob from `seed`, within `row` when one is given.
Draw make_draw(std::uint64_t seed, const Row* row) {
  Rng rng(seed);
  const auto pick = [&rng](int count) {
    return static_cast<int>(rng.below(static_cast<std::uint64_t>(count)));
  };
  Draw d;
  d.seed = seed;
  d.row = row ? *row
              : Row{static_cast<Precision>(pick(kPrecisions)),
                    static_cast<LuVariant>(pick(kVariants)),
                    static_cast<Mix>(pick(kMixes)), pick(2) == 1,
                    static_cast<Width>(pick(kWidths)),
                    static_cast<Where>(pick(3)), static_cast<Grain>(pick(2))};
  const bool deep = d.row.shape == Shape::Deep;
  const bool wide = d.row.shape == Shape::Wide;
  static constexpr int kTiles[] = {8, 16, 32};
  d.nb = deep ? 16 : wide ? 128 : d.row.nb != 0 ? d.row.nb : kTiles[pick(3)];
  // At most four tile rows and n <= 96 below nb = 64; a mix needs two.
  const int max_mt = std::max(2, std::min(4, 96 / d.nb));
  const int mt = deep                      ? 6
                 : wide                    ? 4
                 : d.row.mix == Mix::Mixed ? 2 + pick(max_mt - 1)
                                           : 1 + pick(max_mt);
  d.n = mt * d.nb - (d.row.padded ? 1 + pick(d.nb - 1) : 0);
  // Beyond nb: just past one tile of columns, or past two.
  d.width = d.row.width == Width::One      ? 1
            : d.row.width == Width::UpToNb ? 2 + pick(d.nb - 1)
                                           : (1 + pick(2)) * d.nb + 1 + pick(4);
  d.sweeps = d.row.sweeps >= 0 ? d.row.sweeps : 2 * pick(2);
  d.growth = d.row.growth >= 0 ? d.row.growth == 1 : pick(2) == 1;
  d.threads = deep ? 4 : 1 + pick(3);
  d.tree = {static_cast<hqr::LocalTree>(pick(5)),
            static_cast<hqr::DistTree>(pick(4))};
  static constexpr int kGrids[][2] = {{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 1}};
  const int g = deep ? 3 : pick(5);
  d.grid_p = kGrids[g][0];
  d.grid_q = kGrids[g][1];
  if (wide) {
    d.tree.local = d.row.local;
    d.grid_p = d.row.wide_p;
    d.grid_q = 1;
  }
  d.scope = static_cast<core::PivotScope>(pick(3));
  switch (d.row.mix) {
    case Mix::LU: d.criterion = CriterionSpec::always_lu(); break;
    case Mix::QR: d.criterion = CriterionSpec::always_qr(); break;
    case Mix::Mixed: {
      // Free draws also let the max criterion decide from the panel
      // statistics, whatever mix that gives.
      static constexpr double kAlpha[] = {2.0, 10.0, 50.0};
      d.criterion = row == nullptr && pick(2) == 0
                        ? CriterionSpec::max(kAlpha[pick(3)])
                        : mixed_random(mt, rng);
    }
  }
  return d;
}

// One member's solution and solve report, with the statistics of the
// factorization that solved it where the route exposes them.
struct Answer {
  Matrix<double> x;
  SolveReport report;
  const core::FactorizationStats* stats = nullptr;
};

// Column block [c0, c0 + w) of m.
Matrix<double> columns(const Matrix<double>& m, int c0, int w) {
  Matrix<double> out(m.rows(), w);
  for (int j = 0; j < w; ++j)
    for (int i = 0; i < m.rows(); ++i) out(i, j) = m(i, c0 + j);
  return out;
}

// b's columns as at most three members: column 0, the next one or two, the
// rest.
std::vector<Matrix<double>> split(const Matrix<double>& b) {
  std::vector<Matrix<double>> members;
  for (int c0 = 0; c0 < b.cols();) {
    const int w = members.empty() ? 1
                  : members.size() == 1 ? std::min(2, b.cols() - c0)
                                        : b.cols() - c0;
    members.push_back(columns(b, c0, w));
    c0 += w;
  }
  return members;
}

// The engine sink's factor data (tiles, step trace, transform log, growth)
// equals the inline sink's, in the working scalar T.
template <typename T>
void expect_same_factor_data(const Draw& d, const Matrix<double>& a,
                             rt::Engine& shared) {
  const Matrix<T> at = luqr::testing::converted<T>(a);
  const core::HybridOptions opt = d.config().hybrid_options();
  TileMatrix<T> want = TileMatrix<T>::from_dense(at, d.nb);
  core::TransformLogT<T> want_log;
  const auto want_stats =
      core::hybrid_factor(want, *make_criterion(d.criterion), opt, &want_log);
  TileMatrix<T> got = TileMatrix<T>::from_dense(at, d.nb);
  core::TransformLogT<T> log;
  const auto crit = make_criterion(d.criterion);
  const auto stats =
      d.row.where == Where::Shared
          ? rt::parallel_hybrid_factor_on(shared, got, *crit, opt, &log)
          : rt::parallel_hybrid_factor(got, *crit, opt, d.threads, &log);

  for (int j = 0; j < got.cols(); ++j)
    for (int i = 0; i < got.rows(); ++i)
      ASSERT_EQ(got.at(i, j), want.at(i, j)) << "tile element " << i << "," << j;
  EXPECT_EQ(stats.growth_factor, want_stats.growth_factor);
  const auto same_matrix = [](const Matrix<T>& x, const Matrix<T>& y) {
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::equal(x.data(), x.data() + x.rows() * x.cols(), y.data());
  };
  // A block reflector: its packed operands or its loop-branch V and T.
  const auto same = [&](const std::shared_ptr<core::ReflectorT<T>>& x,
                        const std::shared_ptr<core::ReflectorT<T>>& y) {
    if (!x || !y) return !x && !y;
    return x->kind == y->kind && x->packed.size() == y->packed.size() &&
           std::equal(x->packed.data(), x->packed.data() + x->packed.size(),
                      y->packed.data()) &&
           same_matrix(x->v, y->v) && same_matrix(x->t, y->t);
  };
  ASSERT_EQ(stats.steps.size(), want_stats.steps.size());
  ASSERT_EQ(log.size(), want_log.size());
  for (std::size_t k = 0; k < log.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "step " << k);
    EXPECT_EQ(stats.steps[k].kind, want_stats.steps[k].kind);
    EXPECT_EQ(stats.steps[k].diag_piv, want_stats.steps[k].diag_piv);
    EXPECT_TRUE(same(stats.steps[k].diag_t, want_stats.steps[k].diag_t));
    EXPECT_EQ(log[k].lu, want_log[k].lu);
    EXPECT_EQ(log[k].piv, want_log[k].piv);
    EXPECT_EQ(log[k].domain_rows, want_log[k].domain_rows);
    EXPECT_TRUE(same(log[k].diag_t, want_log[k].diag_t));
    ASSERT_EQ(log[k].qr_ops.size(), want_log[k].qr_ops.size());
    for (std::size_t o = 0; o < log[k].qr_ops.size(); ++o) {
      const auto& g = log[k].qr_ops[o];
      const auto& w = want_log[k].qr_ops[o];
      EXPECT_EQ(g.kind, w.kind) << "op " << o;
      EXPECT_EQ(g.killer, w.killer) << "op " << o;
      EXPECT_EQ(g.killed, w.killed) << "op " << o;
      EXPECT_TRUE(same(g.reflector, w.reflector)) << "op " << o;
    }
  }
}

// The replies' answers; `hits` counts the cache hits among them.
std::vector<Answer> answers(std::vector<serve::JobHandle>& handles,
                            std::size_t& hits) {
  std::vector<Answer> out;
  for (serve::JobHandle& h : handles) {
    serve::SolveReply r = h.get();
    hits += r.cache_hit ? 1 : 0;
    out.push_back(Answer{std::move(r.x), r.report});
  }
  return out;
}

class Oracle {
 public:
  explicit Oracle(std::shared_ptr<rt::Engine> shared)
      : shared_(std::move(shared)) {}

  // Run every route of draw d against the reference. The services work on
  // their own threads while this one runs the Solver and batch routes.
  void run(const Draw& d) {
    SCOPED_TRACE(d.describe());
    d_ = d;
    a_ = gen::generate(gen::MatrixKind::Random, d.n, d.seed);
    b_ = random_matrix(d.n, d.width, d.seed + 1);
    // Columns at scales 1, 1e6 and 1e-6: refinement on the joint residual
    // of several columns then takes a different path from each alone.
    for (int j = 0; j < d.width; ++j) {
      const double scale = j % 3 == 0 ? 1.0 : j % 3 == 1 ? 1e6 : 1e-6;
      for (int i = 0; i < d.n; ++i) b_(i, j) *= scale;
    }
    members_ = split(b_);
    static constexpr const char* kWhere[] = {"serial", "pool x", "shared"};
    for (const std::string& knob :
         {std::string("backend ") + kWhere[static_cast<int>(d.row.where)] +
              (d.row.where == Where::Pool ? std::to_string(d.threads) : ""),
          "grid " + std::to_string(d.grid_p) + "x" + std::to_string(d.grid_q),
          std::string("tree ") + (d.default_tree() ? "default " : "other ") +
              kVariantName[static_cast<int>(d.row.variant)],
          "nb " + std::to_string(d.nb), "sweeps " + std::to_string(d.sweeps),
          "tile rows " + std::to_string((d.n + d.nb - 1) / d.nb),
          "W/nb " + std::to_string(d.width / d.nb),
          std::string("growth ") + (d.growth ? "on" : "off")})
      ++knobs_[knob];

    if (!reference()) return;
    serve::SolveService miss_svc(service_config(1)),
        svc(service_config(d.row.grain == Grain::Fine ? 2 : 1));
    std::vector<serve::JobHandle> miss = start_many_miss(miss_svc);
    Served served = start_serve_routes(svc);
    solver_routes();
    fused_route();
    if (d.row.where != Where::Serial) {
      if (d.row.precision == Precision::F64)
        expect_same_factor_data<double>(d, a_, *shared_);
      else
        expect_same_factor_data<float>(d, a_, *shared_);
    }
    batch_routes();
    check_many_miss(miss_svc, miss);
    check_serve_routes(svc, served);
  }

  // Add another oracle's cells and knob counts to this one's.
  void merge(const Oracle& other) {
    reached_.insert(other.reached_.begin(), other.reached_.end());
    for (const auto& [knob, count] : other.knobs_) knobs_[knob] += count;
  }

  const std::set<int>& reached() const { return reached_; }
  // Draws per value of the knobs outside the cells.
  const std::map<std::string, int>& knobs() const { return knobs_; }

 private:
  // The serial retained factorization of `a`, built apart from the spec
  // Solver the factor/serial route runs. At F64 the serial Solver takes an
  // external criterion instance made from the spec. Reduced precision needs
  // the spec itself, so there the inline sink factors from_dense tiles of
  // float(a) and the float factors are adopted by hand.
  std::shared_ptr<core::Factorization> reference_factor(
      const Matrix<double>& a) const {
    const auto criterion = make_criterion(d_.criterion);
    const core::HybridOptions opt = d_.config().hybrid_options();
    if (d_.row.precision == Precision::F64)
      return std::make_shared<core::Factorization>(
          luqr::testing::factor_serial(a, *criterion, d_.nb, opt));
    Matrix<float> narrowed = luqr::testing::converted<float>(a);
    TileMatrix<float> tiles = TileMatrix<float>::from_dense(narrowed, d_.nb);
    core::TransformLogT<float> log;
    auto stats = core::hybrid_factor(tiles, *criterion, opt, &log);
    return std::make_shared<core::Factorization>(core::Factorization::adopt_f32(
        a, std::move(narrowed), std::move(tiles), std::move(stats),
        std::move(log), opt, d_.row.precision, d_.config().refine(),
        &d_.criterion));
  }

  // fac's answer to b (one entry) and to each member. Where columns fuse,
  // a member's answer is its columns of the W-wide solve.
  void expected(const core::Factorization& fac, std::vector<Answer>& whole,
                std::vector<Answer>& members) const {
    whole.assign(1, Answer{});
    whole[0].x = fac.solve(b_, &whole[0].report, d_.sweeps);
    members.clear();
    for (int k = 0, c0 = 0; k < static_cast<int>(members_.size()); ++k) {
      const int w = members_[k].cols();
      Answer m{columns(whole[0].x, c0, w), whole[0].report};
      if (!d_.fuses()) m.x = fac.solve(members_[k], &m.report, d_.sweeps);
      members.push_back(std::move(m));
      c0 += w;
    }
  }

  // The reference's answers to b and to each member. False when its
  // factorization has the wrong shape.
  bool reference() {
    ref_ = reference_factor(a_);
    const core::FactorizationStats& st = ref_->stats();
    const int steps = st.lu_steps + st.qr_steps;
    if (ref_->order() != d_.n || steps != (d_.n + d_.nb - 1) / d_.nb) {
      ADD_FAILURE() << "reference of order " << ref_->order() << " in " << steps
                    << " steps";
      return false;
    }
    mix_ = st.lu_steps == 0 ? Mix::QR : st.qr_steps == 0 ? Mix::LU : Mix::Mixed;
    EXPECT_TRUE(!d_.growth || st.growth_factor >= 1.0) << st.growth_factor;
    expected(*ref_, want_, member_want_);
    const SolveReport& report = want_[0].report;
    EXPECT_EQ(report.precision, d_.row.precision);
    EXPECT_TRUE(report.converged || report.fell_back);  // never silent
    const double residual = verify::relative_residual(a_, want_[0].x, b_);
    EXPECT_LT(residual, d_.row.precision == Precision::F32 ? 1e-4 : 1e-13);
    if (d_.fuses())
      for (int j = 0; j < d_.width; ++j)
        expect_bitwise(ref_->solve(columns(b_, j, 1)), columns(want_[0].x, j, 1),
                       "column " + std::to_string(j) + " of the W-wide reference");
    return true;
  }

  // The answers equal the expected ones bit for bit, with the same report
  // and, where the route exposes them, the same factor statistics.
  void check(Route route, const std::vector<Answer>& got,
             const std::vector<Answer>& want) {
    const std::string name = kRouteName[route];
    ASSERT_EQ(got.size(), want.size()) << name;
    const core::FactorizationStats& ref = ref_->stats();
    for (std::size_t k = 0; k < got.size(); ++k) {
      const std::string what = name + " member " + std::to_string(k);
      expect_bitwise(got[k].x, want[k].x, what);
      const SolveReport& g = got[k].report;
      const SolveReport& w = want[k].report;
      EXPECT_EQ(g.precision, w.precision) << what;
      EXPECT_EQ(g.refine_iterations, w.refine_iterations) << what;
      EXPECT_EQ(g.converged, w.converged) << what;
      EXPECT_EQ(g.fell_back, w.fell_back) << what;
      if (const core::FactorizationStats* st = got[k].stats) {
        EXPECT_EQ(st->lu_steps, ref.lu_steps) << what;
        EXPECT_EQ(st->qr_steps, ref.qr_steps) << what;
        EXPECT_EQ(st->growth_factor, ref.growth_factor) << what;
      }
    }
    const Width width = d_.width == 1        ? Width::One
                        : d_.width <= d_.nb ? Width::UpToNb
                                             : Width::BeyondNb;
    reached_.insert(cell(route, d_.row.precision, d_.row.variant, mix_,
                         d_.n % d_.nb != 0, width));
  }

  // The draw's config on a backend; batch routes run inline on Serial.
  Solver solver(Where where) const {
    SolverConfig cfg = d_.config();
    switch (where) {
      case Where::Serial: cfg.backend(Backend::Serial).threads(1); break;
      case Where::Pool: cfg.backend(Backend::Parallel).threads(d_.threads); break;
      case Where::Shared: cfg.backend(Backend::Parallel).engine(shared_); break;
    }
    return Solver(cfg);
  }

  // Solver::solve and Solver::factor + Factorization::solve on the serial
  // backend and on the draw's engine backend.
  void solver_routes() {
    std::vector<Where> backends = {Where::Serial};
    if (d_.row.where != Where::Serial) backends.push_back(d_.row.where);
    for (const Where where : backends) {
      const Solver s = solver(where);
      const int offset = static_cast<int>(where);
      if (where == Where::Shared) {
        EXPECT_EQ(s.resolve_threads(), shared_->num_threads());
      }
      const core::SolveResult one_shot = s.solve(a_, b_);
      check(static_cast<Route>(kSolveSerial + offset),
            {Answer{one_shot.x, one_shot.report, &one_shot.stats}}, want_);
      const core::Factorization fac = s.factor(a_);
      EXPECT_EQ(fac.order(), d_.n);
      Answer got{{}, {}, &fac.stats()};
      got.x = fac.solve(b_, &got.report, d_.sweeps);
      check(static_cast<Route>(kFactorSerial + offset), {got}, want_);
    }
  }

  // The core fused-RHS driver on the draw's matrix in the working scalar:
  // make_augmented + hybrid_factor on the inline sink + solve_augmented,
  // then widened. Only where columns fuse (no sweeps, not F32_IR).
  template <typename T>
  Matrix<double> fused_core() const {
    using luqr::testing::converted;
    const Matrix<T> at = converted<T>(a_), bt = converted<T>(b_);
    TileMatrix<T> aug = core::make_augmented(at, bt, d_.nb);
    const auto crit = make_criterion(d_.criterion);
    const auto stats =
        core::hybrid_factor(aug, *crit, d_.config().hybrid_options());
    const Matrix<T> x = core::solve_augmented(aug, &stats, d_.n, d_.width);
    Matrix<double> wide(x.rows(), x.cols());
    for (int j = 0; j < x.cols(); ++j)
      for (int i = 0; i < x.rows(); ++i) wide(i, j) = static_cast<double>(x(i, j));
    return wide;
  }

  void fused_route() {
    if (!d_.fuses()) return;
    Matrix<double> x = d_.row.precision == Precision::F64 ? fused_core<double>()
                                                          : fused_core<float>();
    check(kFusedCore, {Answer{std::move(x), want_[0].report}}, want_);
  }

  // Two workers (the fine grain needs more than one). A fine-grained owner
  // blocks its dispatcher, so a second one lets a job attach meanwhile.
  serve::ServiceConfig service_config(int dispatchers) const {
    serve::ServiceConfig cfg;
    cfg.solver = d_.config();
    cfg.threads = 2;
    cfg.dispatchers = dispatchers;
    cfg.parallel_factor_tiles = d_.row.grain == Grain::Fine ? 1 : 0;
    cfg.sampler_period_ms = 0;
    cfg.watchdog_period_ms = 0;
    return cfg;
  }

  // One service's routes: the owner of a miss with a submit_many member
  // attached to its pending factorization, then a cache hit, submit_batch
  // and submit_many skim hits. The marker factors a one-tile matrix.
  struct Served {
    serve::SolveReply owner;
    serve::JobHandle marker;
    std::vector<serve::JobHandle> attached, hit, batch, skim;
  };

  Served start_serve_routes(serve::SolveService& svc) {
    Served out;
    serve::JobHandle owner;
    {
      // Both workers held: the owner's factorization stays pending (on the
      // engine, or on a dispatcher for the fine grain) until the
      // submit_many member has attached to it.
      luqr::testing::WorkerGate g0(svc.engine()), g1(svc.engine());
      owner = svc.submit_solve(a_, b_);
      settle_until(
          svc,
          [](const serve::ServiceStats& s) {
            return s.queue_depth == 0 && s.pending_factorizations == 1;
          },
          "the owner's factorization pending");
      out.attached = svc.submit_many(std::vector<Matrix<double>>{a_},
                                     std::vector<Matrix<double>>{b_},
                                     serve::Priority::Interactive);
      // One dispatcher is free, so it resolves the marker, a miss on
      // another matrix, only after the member: the marker's probe miss
      // shows that the member has attached.
      out.marker = svc.submit_factor(
          gen::generate(gen::MatrixKind::Random, d_.nb, d_.seed + 3));
      settle_until(
          svc,
          [](const serve::ServiceStats& s) {
            return s.queue_depth == 0 && s.cache.misses == 3;
          },
          "the submit_many member attached");
    }
    out.owner = owner.get();  // cached from here on
    out.hit.push_back(svc.submit_solve(a_, b_));
    out.batch = svc.submit_batch(a_, members_, serve::Priority::Normal);
    out.skim = svc.submit_many(
        std::vector<Matrix<double>>(members_.size(), a_), members_);
    return out;
  }

  void check_serve_routes(serve::SolveService& svc, Served& served) {
    EXPECT_FALSE(served.owner.cache_hit);
    EXPECT_GT(served.owner.factor_us, 0u);
    check(d_.row.grain == Grain::Coarse ? kServeCoarse : kServeFine,
          {Answer{std::move(served.owner.x), served.owner.report}}, want_);
    serve::SolveReply r = served.attached[0].get();
    EXPECT_FALSE(r.cache_hit) << "the submit_many member did not attach";
    EXPECT_EQ(r.factor_us, 0u) << "the submit_many member did not attach";
    check(kManyAttach, {Answer{std::move(r.x), r.report}}, want_);
    const std::uint64_t m = members_.size();
    std::size_t hits = 0;
    check(kServeHit, answers(served.hit, hits), want_);
    check(kServeBatch, answers(served.batch, hits), member_want_);
    check(kManySkim, answers(served.skim, hits), member_want_);
    EXPECT_EQ(hits, 1 + 2 * m);
    const serve::SolveReply marker = served.marker.get();
    EXPECT_FALSE(marker.cache_hit);
    EXPECT_GT(marker.factor_us, 0u);

    const serve::ServiceStats s = svc.stats();
    EXPECT_EQ(s.factors_coarse, d_.row.grain == Grain::Coarse ? 2u : 0u);
    EXPECT_EQ(s.factors_inline_parallel, d_.row.grain == Grain::Fine ? 2u : 0u);
    EXPECT_EQ(s.cache.misses, 3u);  // the owner's and marker's probes, the skim
    EXPECT_EQ(s.cache.hits, 2 + m);  // the hit, the batch, the skims
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(s.batch_members, m);
    EXPECT_EQ(s.batch_hits_skimmed, m);
    EXPECT_EQ(s.batched_jobs, 1 + m);
    const bool fused = m > 1 && d_.serve_fuses();  // the batch's members
    EXPECT_EQ(s.fused_rhs_columns, fused ? static_cast<std::uint64_t>(d_.width) : 0u);
    EXPECT_EQ(s.completed, 4 + 2 * m);
    EXPECT_EQ(s.failed, 0u);
  }

  // A fresh service: one submit_many call of kManyMissCalls members, more
  // than two chunks' worth (the service's chunks hold at least 8), that
  // alternate by shared pointer between A and a second matrix. Each matrix
  // gets every member once, then repeats of the one-column member 0. Each
  // matrix's members form one job that misses once and factors once; its
  // members straddle chunk boundaries, split there and fuse within each piece.
  static constexpr int kManyMissCalls = 18;

  std::size_t many_miss_member(int i) const {
    const std::size_t k = static_cast<std::size_t>(i / 2);
    return k < members_.size() ? k : 0;
  }

  std::vector<serve::JobHandle> start_many_miss(serve::SolveService& svc) {
    a2_ = gen::generate(gen::MatrixKind::Random, d_.n, d_.seed + 2);
    const std::shared_ptr<const Matrix<double>> matrix[] = {
        std::make_shared<const Matrix<double>>(a_),
        std::make_shared<const Matrix<double>>(a2_)};
    std::vector<std::shared_ptr<const Matrix<double>>> as;
    std::vector<Matrix<double>> bs;
    for (int i = 0; i < kManyMissCalls; ++i) {
      as.push_back(matrix[i % 2]);
      bs.push_back(members_[many_miss_member(i)]);
    }
    return svc.submit_many(as, bs);
  }

  void check_many_miss(serve::SolveService& svc,
                       std::vector<serve::JobHandle>& handles) {
    std::vector<Answer> whole2, member_want2, want;
    expected(*reference_factor(a2_), whole2, member_want2);
    for (int i = 0; i < kManyMissCalls; ++i)
      want.push_back((i % 2 == 0 ? member_want_ : member_want2)[many_miss_member(i)]);
    std::size_t hits = 0;  // a piece after the first may find its matrix cached
    check(kManyMiss, answers(handles, hits), want);
    const serve::ServiceStats s = svc.stats();
    EXPECT_EQ(s.cache.misses, 2u);  // one probe miss per distinct matrix
    // Once per matrix, unless a piece's probe and pending check straddle its
    // owner's completion (a benign double factorization): at most once per
    // piece of the three chunks.
    const std::uint64_t factors = s.factors_coarse + s.factors_inline_parallel;
    EXPECT_GE(factors, 2u);
    EXPECT_LE(factors, 4u);
    EXPECT_EQ(s.factors_inline_parallel, d_.row.grain == Grain::Fine ? factors : 0u);
    EXPECT_EQ(s.batched_jobs, static_cast<std::uint64_t>(kManyMissCalls));
    EXPECT_GE(s.batches_executed, 2u);
    EXPECT_LE(s.batches_executed, static_cast<std::uint64_t>(kManyMissCalls));
    EXPECT_EQ(s.fused_rhs_columns > 0, d_.serve_fuses());
    EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kManyMissCalls));
    EXPECT_EQ(s.failed, 0u);
  }

  // The batch library on the draw's backend: factor_solve_many with one copy
  // of A per member, whose factorizations then serve their members again,
  // and solve_many over one factor_many factorization.
  void batch_routes() {
    const Solver s = solver(d_.row.where);
    const std::vector<Matrix<double>> as(members_.size(), a_);
    const auto fused = batch::factor_solve_many(s, as, members_);
    std::vector<Answer> got, again;
    for (std::size_t k = 0; k < fused.size(); ++k) {
      if (!fused[k].ok()) std::rethrow_exception(fused[k].error);
      const core::Factorization& fac = *fused[k].factorization;
      got.push_back(Answer{fused[k].x, fused[k].report, &fac.stats()});
      again.push_back(Answer{{}, {}, &fac.stats()});
      again.back().x = fac.solve(members_[k], &again.back().report, d_.sweeps);
    }
    check(kFactorSolveMany, got, member_want_);
    check(kFactorSolveMany, again, member_want_);

    const auto factored = batch::factor_many(s, {a_});
    if (!factored[0].ok()) std::rethrow_exception(factored[0].error);
    const std::vector<batch::FactorizationPtr> facs(members_.size(),
                                                    factored[0].factorization);
    const auto solved = batch::solve_many(s, facs, members_, d_.sweeps);
    got.clear();
    for (std::size_t k = 0; k < solved.size(); ++k) {
      if (!solved[k].ok()) std::rethrow_exception(solved[k].error);
      got.push_back(Answer{solved[k].x, solved[k].report, &facs[k]->stats()});
    }
    check(kSolveMany, got, member_want_);
  }

  std::shared_ptr<rt::Engine> shared_;
  std::set<int> reached_;
  std::map<std::string, int> knobs_;
  Draw d_;
  Matrix<double> a_, a2_, b_;
  std::vector<Matrix<double>> members_;
  std::shared_ptr<core::Factorization> ref_;
  Mix mix_ = Mix::Mixed;
  std::vector<Answer> want_, member_want_;
};

void print_coverage(const Oracle& oracle, std::size_t must_reach, int draws) {
  const std::set<int>& reached = oracle.reached();
  // Cells reached among the shapes of (route, precision, variant) blocks
  // [lo, hi).
  const auto count = [&reached](int lo, int hi) {
    return static_cast<int>(std::distance(reached.lower_bound(lo * kShapes),
                                          reached.lower_bound(hi * kShapes)));
  };
  constexpr int kBlocks = kPrecisions * kVariants;
  std::printf(
      "route-equivalence coverage: %zu of %d cells in %d draws (must-reach "
      "list: %zu cells); per precision and variant, the (mix, padded, width) "
      "shapes reached of %d\n%-24s %5s | F64 A1..B2  | F32         | F32_IR\n",
      reached.size(), kCells, draws, must_reach, kShapes, "route", "cells");
  for (int r = 0; r < kRoutes; ++r) {
    std::printf("%-24s %5d", kRouteName[r], count(r * kBlocks, (r + 1) * kBlocks));
    for (int pv = 0; pv < kBlocks; ++pv)
      std::printf("%s%2d", pv % kVariants ? " " : " | ",
                  count(r * kBlocks + pv, r * kBlocks + pv + 1));
    std::printf("\n");
  }
  std::printf("draws per knob:");
  for (const auto& [knob, n] : oracle.knobs())
    std::printf(" %s=%d", knob.c_str(), n);
  std::printf("\n");
}

TEST(RouteOracle, EveryRouteMatchesTheSerialRetainedReference) {
  std::vector<Draw> draws;
  for (const Row& row : kMustReach)
    draws.push_back(make_draw(1000 + draws.size(), &row));
  for (int k = 0; k < kFreeDraws; ++k)
    draws.push_back(make_draw(1 + static_cast<std::uint64_t>(k), nullptr));

  // Two oracles take the draws in turn, each on its own thread; most of a
  // draw waits on pools and services, so the two overlap.
  const auto engine = std::make_shared<rt::Engine>(3);
  Oracle oracle(engine), helper_oracle(engine);
  std::atomic<std::size_t> next{0};
  const auto work = [&draws, &next](Oracle& o) {
    for (std::size_t i; (i = next++) < draws.size();) o.run(draws[i]);
  };
  std::thread helper(work, std::ref(helper_oracle));
  work(oracle);
  helper.join();
  oracle.merge(helper_oracle);

  std::set<int> must;
  for (std::size_t i = 0; i < std::size(kMustReach); ++i) {
    const Row& row = kMustReach[i];
    std::vector<Route> routes = routes_of(row.where, row.grain);
    if (row.sweeps == 0 && row.precision != Precision::F32_IR)
      routes.push_back(kFusedCore);
    for (Route route : routes) {
      const int c = cell(route, row.precision, row.variant, row.mix,
                         row.padded, row.width);
      must.insert(c);
      EXPECT_EQ(oracle.reached().count(c), 1u)
          << kRouteName[route] << " missed its must-reach cell: "
          << draws[i].describe();
    }
  }
  print_coverage(oracle, must.size(), static_cast<int>(draws.size()));

  // Every draw runs the serve, submit_many and batch routes; some ran them
  // on a non-default tree under A2, B1 and B2.
  for (const char* v : {"A2", "B1", "B2"})
    EXPECT_GT(oracle.knobs().count(std::string("tree other ") + v), 0u) << v;
  // Some draws solved more than two tiles of columns at once.
  EXPECT_GT(oracle.knobs().count("W/nb 2"), 0u);
  // The shared engine served every draw and is idle and reusable after.
  engine->wait_idle();
  EXPECT_TRUE(engine->idle());
}

}  // namespace
}  // namespace luqr
