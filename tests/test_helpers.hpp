// Shared helpers for the luqr test suite.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "api/solver.hpp"
#include "common/rng.hpp"
#include "kernels/dense.hpp"
#include "kernels/reference.hpp"
#include "runtime/engine.hpp"

namespace luqr::testing {

/// The serial Solver with an external criterion and explicit hybrid options,
/// whose fused solve and retained factorization the tests use as references.
inline Solver serial_solver(Criterion& criterion, int nb,
                            const core::HybridOptions& options = {}) {
  return Solver(SolverConfig()
                    .hybrid_options(options)
                    .tile_size(nb)
                    .criterion(criterion)
                    .backend(Backend::Serial));
}

/// One-shot solve of A x = b on serial_solver.
inline core::SolveResult solve_serial(const Matrix<double>& a,
                                      const Matrix<double>& b,
                                      Criterion& criterion, int nb,
                                      const core::HybridOptions& options = {}) {
  return serial_solver(criterion, nb, options).solve(a, b);
}

/// The retained factorization of A on serial_solver.
inline core::Factorization factor_serial(const Matrix<double>& a,
                                         Criterion& criterion, int nb,
                                         const core::HybridOptions& options = {}) {
  return serial_solver(criterion, nb, options).factor(a);
}

/// Dense random matrix with i.i.d. standard Gaussian entries.
inline Matrix<double> random_matrix(int rows, int cols, std::uint64_t seed) {
  Matrix<double> m(rows, cols);
  Rng rng(seed);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i) m(i, j) = rng.gaussian();
  return m;
}

/// Random upper-triangular matrix (nonzero diagonal).
inline Matrix<double> random_upper(int n, std::uint64_t seed) {
  Matrix<double> m(n, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) m(i, j) = rng.gaussian();
    m(j, j) += (m(j, j) >= 0 ? 3.0 : -3.0);  // keep well-conditioned
  }
  return m;
}

/// Random unit-lower-triangular matrix.
inline Matrix<double> random_unit_lower(int n, std::uint64_t seed) {
  Matrix<double> m(n, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    m(j, j) = 1.0;
    for (int i = j + 1; i < n; ++i) m(i, j) = 0.5 * rng.gaussian();
  }
  return m;
}

/// EXPECT that two dense matrices agree to `tol` elementwise.
inline void expect_near(const Matrix<double>& a, const Matrix<double>& b,
                        double tol, const char* what = "matrices") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_LE(kern::max_abs_diff(a.cview(), b.cview()), tol) << what;
}

/// `m` rounded to the scalar type T (identity for double).
template <typename T>
Matrix<T> converted(const Matrix<double>& m) {
  Matrix<T> out(m.rows(), m.cols());
  for (int j = 0; j < m.cols(); ++j)
    for (int i = 0; i < m.rows(); ++i) out(i, j) = static_cast<T>(m(i, j));
  return out;
}

/// The columns of `c` followed by random filler columns up to a whole
/// number of nb-wide tiles — how the fused driver lays out a W-wide RHS.
template <typename T>
Matrix<T> padded_to_tiles(const Matrix<T>& c, int nb, std::uint64_t seed) {
  const int cols = (c.cols() + nb - 1) / nb * nb;
  Matrix<T> out = converted<T>(random_matrix(c.rows(), cols, seed));
  for (int j = 0; j < c.cols(); ++j)
    for (int i = 0; i < c.rows(); ++i) out(i, j) = c(i, j);
  return out;
}

/// EXPECT that `got` equals `want` bit for bit, naming the first element
/// that differs.
inline void expect_bitwise(const Matrix<double>& got, const Matrix<double>& want,
                           const std::string& what) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    ADD_FAILURE() << what << ": " << got.rows() << "x" << got.cols()
                  << ", want " << want.rows() << "x" << want.cols();
    return;
  }
  for (int j = 0; j < want.cols(); ++j)
    for (int i = 0; i < want.rows(); ++i)
      if (std::memcmp(&got(i, j), &want(i, j), sizeof(double)) != 0) {
        ADD_FAILURE() << what << " @ " << i << "," << j << ": " << got(i, j)
                      << ", want " << want(i, j);
        return;
      }
}

/// ASSERT that every column of `got` equals the same column of `ref` bit
/// for bit (`ref` may carry extra trailing columns).
template <typename T>
void expect_leading_columns_bitwise(const Matrix<T>& got, const Matrix<T>& ref,
                                    const char* what) {
  ASSERT_EQ(got.rows(), ref.rows()) << what;
  ASSERT_LE(got.cols(), ref.cols()) << what;
  for (int j = 0; j < got.cols(); ++j)
    for (int i = 0; i < got.rows(); ++i)
      ASSERT_EQ(got(i, j), ref(i, j)) << what << " @ " << i << "," << j;
}

/// Poll a service's stats until `done(stats)` holds. Fails the test, naming
/// `what`, if that takes more than ten seconds.
template <typename Service, typename Done>
void settle_until(Service& svc, Done done, const char* what) {
  const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done(svc.stats())) {
    if (std::chrono::steady_clock::now() > end) {
      ADD_FAILURE() << "the service did not settle: " << what;
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Holds one worker of an engine until release() (or destruction). A test
/// gates a service's engine with one gate per worker, so that whatever the
/// service admits meanwhile stays queued until the test lets it run. The
/// constructor returns once the gate task occupies its worker.
class WorkerGate {
 public:
  explicit WorkerGate(rt::Engine& engine) : s_(std::make_shared<State>()) {
    engine.submit(
        [s = s_] {
          std::unique_lock<std::mutex> lock(s->mu);
          s->held = true;
          s->cv.notify_all();
          s->cv.wait(lock, [&] { return s->open; });
        },
        {}, "test-gate");
    std::unique_lock<std::mutex> lock(s_->mu);
    s_->cv.wait(lock, [this] { return s_->held; });
  }
  ~WorkerGate() { release(); }
  WorkerGate(const WorkerGate&) = delete;
  WorkerGate& operator=(const WorkerGate&) = delete;

  void release() {
    {
      std::lock_guard<std::mutex> lock(s_->mu);
      s_->open = true;
    }
    s_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool held = false;
    bool open = false;
  };
  std::shared_ptr<State> s_;
};

}  // namespace luqr::testing
