// Tests for the alpha auto-tuner (§VII future work): it must hit target LU
// fractions within the step-count quantization, respect monotonicity, and
// handle the degenerate targets.
#include <gtest/gtest.h>

#include <cmath>

#include "core/autotune.hpp"
#include "core/factorization.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"

namespace luqr::core {
namespace {

TEST(AutoTune, HitsMidRangeTargets) {
  // 768/48 = 16 steps -> fractions quantized to 1/16; the criterion's floor
  // (final tiny panels always accept) adds slack, so allow ~2 steps of it.
  const auto sample = gen::generate(gen::MatrixKind::Random, 768, 3);
  HybridOptions opt;
  opt.grid_p = 4;
  opt.grid_q = 4;
  for (double target : {0.25, 0.5, 0.75}) {
    const auto r = auto_tune_alpha(sample, "max", target, 48, opt);
    EXPECT_NEAR(r.achieved_lu_fraction, target, 2.5 / 16.0)
        << "target " << target << " alpha " << r.alpha;
    EXPECT_LE(r.evaluations, 24);
  }
}

TEST(AutoTune, ExtremesReturnEndpoints) {
  const auto sample = gen::generate(gen::MatrixKind::Random, 256, 4);
  HybridOptions opt;
  opt.grid_p = 4;
  const auto all_lu = auto_tune_alpha(sample, "max", 1.0, 32, opt);
  EXPECT_GE(all_lu.achieved_lu_fraction, 0.99);
  const auto all_qr = auto_tune_alpha(sample, "max", 0.0, 32, opt);
  // The criterion floor: the last panels of a sample always pass, so the
  // achievable minimum is a few steps above zero.
  EXPECT_LE(all_qr.achieved_lu_fraction, 0.30);
}

TEST(AutoTune, WorksForSumAndMumps) {
  const auto sample = gen::generate(gen::MatrixKind::Random, 512, 5);
  HybridOptions opt;
  opt.grid_p = 4;
  for (const char* kind : {"max", "sum", "mumps"}) {
    const auto r = auto_tune_alpha(sample, kind, 0.5, 32, opt);
    EXPECT_NEAR(r.achieved_lu_fraction, 0.5, 0.25) << kind;
    EXPECT_GT(r.alpha, 0.0) << kind;
    // The tuner's count is the one a real factorization at that alpha gets.
    const CriterionSpec spec = CriterionSpec::parse(kind, 1.0);
    const auto fac = Factorization::compute(
        sample, *make_criterion(spec.with_alpha(r.alpha)), 32, opt);
    EXPECT_EQ(r.achieved_lu_fraction, fac.stats().lu_fraction()) << kind;
  }
}

TEST(AutoTune, DiagDominantSaturatesAtFullLu) {
  // Every step passes on a block diagonally dominant sample, so any target
  // below 1 resolves to the smallest bracketing alpha and reports the
  // achievable fraction honestly.
  const auto sample = gen::generate(gen::MatrixKind::DiagDominant, 256, 6);
  const auto r = auto_tune_alpha(sample, "sum", 0.5, 32, {});
  EXPECT_GE(r.achieved_lu_fraction, 0.0);
  EXPECT_LE(r.evaluations, 24);
}

TEST(AutoTune, TunedAlphaIsReusable) {
  // The tuned alpha, fed back into a real solve on a fresh matrix from the
  // same distribution, lands near the target fraction.
  const auto sample = gen::generate(gen::MatrixKind::Random, 512, 7);
  HybridOptions opt;
  opt.grid_p = 4;
  const auto r = auto_tune_alpha(sample, "max", 0.5, 32, opt);
  const auto fresh = gen::generate(gen::MatrixKind::Random, 512, 8);
  auto crit = make_criterion("max", r.alpha);
  Matrix<double> b(512, 1);
  const auto solve = hybrid_solve(fresh, b, *crit, 32, opt);
  EXPECT_NEAR(solve.stats.lu_fraction(), 0.5, 0.3);
}

TEST(AutoTune, RejectsBadArguments) {
  const auto sample = gen::generate(gen::MatrixKind::Random, 64, 9);
  EXPECT_THROW(auto_tune_alpha(sample, "max", 1.5, 16, {}), Error);
  EXPECT_THROW(auto_tune_alpha(sample, "random", 0.5, 16, {}), Error);
  EXPECT_THROW(auto_tune_alpha(sample, "max", 0.5, 16, {}, 2), Error);
}

}  // namespace
}  // namespace luqr::core
