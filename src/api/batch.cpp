#include "api/batch.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/batch.hpp"
#include "kernels/workspace.hpp"
#include "runtime/chunk.hpp"
#include "runtime/engine.hpp"

namespace luqr::batch {

namespace {

// Chunk-local solver: same numerical configuration, serial backend. Serial
// and Parallel factorizations are bitwise identical (repo invariant), so
// running each matrix serially inside a chunk task changes nothing the
// caller can observe — while keeping chunk tasks self-contained on a shared
// engine (no nested parallel factorization, no stats out-param racing
// across chunks).
Solver chunk_solver(const Solver& solver) {
  SolverConfig cfg = solver.config();
  cfg.backend(Backend::Serial);
  cfg.engine(nullptr);
  cfg.scheduler_stats(nullptr);
  return Solver(cfg);
}

// Where the chunks run: the configured shared engine, a temporary pool when
// the thread resolution asks for one and the batch is worth it, or inline.
struct Exec {
  std::unique_ptr<rt::Engine> owned;
  rt::Engine* engine = nullptr;
  int lanes = 1;
};

Exec make_exec(const Solver& solver, std::size_t count) {
  Exec ex;
  if (solver.config().engine() != nullptr) {
    ex.engine = solver.config().engine().get();
    ex.lanes = std::max(1, ex.engine->num_threads());
  } else {
    const int threads = solver.resolve_threads();
    if (threads > 1 && count >= 2) {
      ex.owned = std::make_unique<rt::Engine>(threads);
      ex.engine = ex.owned.get();
      ex.lanes = threads;
    }
  }
  return ex;
}

// A stateful external Criterion advances across factorizations; sharing one
// across concurrently running chunks would make results depend on chunk
// interleaving. The batched endpoints require the value-spec form, which
// Solver instantiates fresh per factorization.
void require_value_criterion(const Solver& solver, const char* what) {
  LUQR_REQUIRE(solver.config().external_criterion() == nullptr,
               std::string(what) +
                   ": an external stateful Criterion cannot be shared across "
                   "batch chunks; use a CriterionSpec");
}

// Shape-homogeneous execution order: bucket items by order, chunk each
// bucket independently. `order` receives the permutation; the returned
// chunks index into it.
std::vector<core::Chunk> plan(const std::vector<int>& orders, int lanes,
                              std::vector<std::size_t>& order) {
  order.clear();
  order.reserve(orders.size());
  std::vector<core::Chunk> chunks;
  for (const auto& bucket : core::bucket_by_order(orders)) {
    const std::size_t base = order.size();
    order.insert(order.end(), bucket.begin(), bucket.end());
    for (const core::Chunk& c :
         core::plan_chunks(bucket.size(), 0, lanes))
      chunks.push_back(core::Chunk{base + c.begin, base + c.end});
  }
  return chunks;
}

std::size_t scratch_estimate(Precision p, int n, int nb) {
  return p == Precision::F64 ? core::chunk_scratch_bytes_f64(n, nb)
                             : core::chunk_scratch_bytes_f32(n, nb);
}

// The one chunk runner of the three endpoints: items bucketed by order and
// chunked, each chunk one engine task (or inline) that opens a workspace
// frame pre-grown to its first item's shape, then runs step(i) for each of
// its items with that item's failure isolated in out[i].error. shape(i) is
// item i's {order, tile size}.
template <typename Outcome, typename Shape, typename Step>
void run_chunked(const Solver& solver, std::vector<Outcome>& out,
                 const Shape& shape, const Step& step, const char* name) {
  Exec ex = make_exec(solver, out.size());
  std::vector<int> orders(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) orders[i] = shape(i).first;
  std::vector<std::size_t> order;
  const std::vector<core::Chunk> chunks = plan(orders, ex.lanes, order);
  const Precision precision = solver.config().precision();

  rt::run_chunks_on(
      ex.engine, chunks,
      [&](std::size_t begin, std::size_t end) {
        kern::Workspace& ws = kern::tls_workspace();
        kern::Workspace::Frame frame(ws);
        const std::pair<int, int> head = shape(order[begin]);
        ws.reserve(scratch_estimate(precision, head.first, head.second));
        for (std::size_t p = begin; p < end; ++p) {
          const std::size_t i = order[p];
          try {
            step(i);
          } catch (...) {
            out[i].error = std::current_exception();
          }
        }
      },
      name);
}

}  // namespace

std::vector<FactorOutcome> factor_many(const Solver& solver,
                                       const std::vector<Matrix<double>>& as) {
  std::vector<FactorOutcome> out(as.size());
  if (as.empty()) return out;
  require_value_criterion(solver, "factor_many");
  const Solver local = chunk_solver(solver);
  const int nb = solver.config().tile_size();
  run_chunked(
      solver, out,
      [&](std::size_t i) { return std::make_pair(as[i].rows(), nb); },
      [&](std::size_t i) {
        out[i].factorization =
            std::make_shared<const core::Factorization>(local.factor(as[i]));
      },
      "batch-factor");
  return out;
}

std::vector<SolveOutcome> solve_many(const Solver& solver,
                                     const std::vector<FactorizationPtr>& facs,
                                     const std::vector<Matrix<double>>& bs,
                                     int refinement_sweeps) {
  LUQR_REQUIRE(facs.size() == bs.size(),
               "solve_many: one right-hand side per factorization");
  std::vector<SolveOutcome> out(facs.size());
  if (facs.empty()) return out;
  run_chunked(
      solver, out,
      [&](std::size_t i) {
        // A null entry fails in its step; it pre-grows nothing.
        return facs[i] != nullptr
                   ? std::make_pair(facs[i]->order(), facs[i]->tile_size())
                   : std::make_pair(0, 0);
      },
      [&](std::size_t i) {
        LUQR_REQUIRE(facs[i] != nullptr, "solve_many: null factorization entry");
        out[i].x = facs[i]->solve(bs[i], &out[i].report, refinement_sweeps);
      },
      "batch-solve");
  return out;
}

std::vector<FactorSolveOutcome> factor_solve_many(
    const Solver& solver, const std::vector<Matrix<double>>& as,
    const std::vector<Matrix<double>>& bs) {
  LUQR_REQUIRE(as.size() == bs.size(),
               "factor_solve_many: one right-hand side per matrix");
  std::vector<FactorSolveOutcome> out(as.size());
  if (as.empty()) return out;
  require_value_criterion(solver, "factor_solve_many");
  const Solver local = chunk_solver(solver);
  const int sweeps = solver.config().refinement_sweeps();
  const int nb = solver.config().tile_size();
  run_chunked(
      solver, out,
      [&](std::size_t i) { return std::make_pair(as[i].rows(), nb); },
      [&](std::size_t i) {
        auto fac =
            std::make_shared<const core::Factorization>(local.factor(as[i]));
        out[i].x = fac->solve(bs[i], &out[i].report, sweeps);
        out[i].factorization = std::move(fac);
      },
      "batch-factor-solve");
  return out;
}

}  // namespace luqr::batch
