// Umbrella header for the luqr library.
//
// The front door is the luqr::Solver facade (see examples/quickstart.cpp):
// configure once, then solve one-shot or factor once and serve many
// right-hand sides — on either backend.
//
//   luqr::Solver solver(luqr::SolverConfig()
//                           .criterion(luqr::CriterionSpec::max(6000.0))
//                           .tile_size(64)
//                           .grid(4, 4)
//                           .backend(luqr::Backend::Auto));
//   auto result = solver.solve(A, b);              // one-shot
//   double accuracy = luqr::verify::hpl3(A, result.x, b);
//
//   auto fac = solver.factor(A);                   // retained: solve-many
//   auto x1 = fac.solve(b1);                       // const + thread-safe
//
// For request-serving workloads, luqr::serve::SolveService wraps the same
// machinery in an asynchronous job service: bounded queue, priorities,
// factorization cache, batched multi-RHS (see serve/service.hpp).
//
// For bulk small-problem traffic (thousands of independent n <= 128
// systems), luqr::batch::factor_many / solve_many / factor_solve_many chunk
// the whole batch into a handful of engine tasks with per-chunk amortized
// scheduling and workspace reuse (see api/batch.hpp); the service exposes
// the same machinery as SolveService::submit_many.
//
// The low-level entry points (core::hybrid_solve, core::Factorization::
// compute) remain available and delegate to the same machinery; parallel
// solves go through Solver with Backend::Parallel.
#pragma once

#include "api/batch.hpp"
#include "api/solver.hpp"
#include "baselines/baselines.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/hybrid.hpp"
#include "core/autotune.hpp"
#include "core/factorization.hpp"
#include "core/solve.hpp"
#include "criteria/criteria.hpp"
#include "gen/generators.hpp"
#include "hqr/elimination.hpp"
#include "hqr/trees.hpp"
#include "kernels/blas.hpp"
#include "kernels/dense.hpp"
#include "kernels/lapack.hpp"
#include "io/matrix_market.hpp"
#include "kernels/norms.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "serve/service.hpp"
#include "sim/simulate.hpp"
#include "tile/process_grid.hpp"
#include "tile/tile_matrix.hpp"
#include "verify/verify.hpp"
