/// \file test_checkpoint.cpp
/// \brief Crash-safe checkpoint/resume in the shared sweep loop: a
/// resumed run must replay the uninterrupted run's arithmetic bitwise,
/// configuration mismatches must refuse loudly, and the divergence
/// guardrail must report (and never checkpoint) a blown-up model.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/cp_als.hpp"
#include "core/cp_als_detail.hpp"
#include "core/tensor.hpp"
#include "io/checkpoint.hpp"
#include "io/tensor_io.hpp"
#include "util/rng.hpp"

namespace dmtk {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dmtk_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

Tensor test_tensor() {
  Rng rng(2024);
  return Tensor::random_uniform({12, 10, 8}, rng);
}

CpAlsOptions base_options() {
  CpAlsOptions o;
  o.rank = 4;
  o.tol = 0.0;  // never converge early: sweep counts are exact
  o.seed = 77;
  return o;
}

void expect_models_bitwise_equal(const Ktensor& a, const Ktensor& b) {
  ASSERT_EQ(a.factors.size(), b.factors.size());
  ASSERT_EQ(a.rank(), b.rank());
  for (index_t c = 0; c < a.rank(); ++c) {
    EXPECT_EQ(a.lambda_or_one(c), b.lambda_or_one(c)) << "lambda[" << c << "]";
  }
  for (std::size_t n = 0; n < a.factors.size(); ++n) {
    const Matrix& U = a.factors[n];
    const Matrix& V = b.factors[n];
    ASSERT_EQ(U.rows(), V.rows());
    ASSERT_EQ(U.cols(), V.cols());
    for (index_t j = 0; j < U.cols(); ++j) {
      for (index_t i = 0; i < U.rows(); ++i) {
        EXPECT_EQ(U(i, j), V(i, j))
            << "factor " << n << " at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST_F(CheckpointTest, ResumeReplaysTheUninterruptedRunBitwise) {
  const Tensor X = test_tensor();

  CpAlsOptions golden = base_options();
  golden.max_iters = 12;
  const CpAlsResult full = cp_als(X, golden);

  // Phase 1: run only 5 sweeps, checkpointing every sweep.
  CpAlsOptions part = base_options();
  part.max_iters = 5;
  part.checkpoint_path = path("run.dckp");
  const CpAlsResult head = cp_als(X, part);
  EXPECT_EQ(head.iterations, 5);
  ASSERT_TRUE(fs::exists(part.checkpoint_path));

  // Phase 2: resume to the full sweep budget (max_iters is deliberately
  // outside the options hash, so raising it is allowed).
  CpAlsOptions rest = part;
  rest.max_iters = 12;
  rest.resume = true;
  const CpAlsResult tail = cp_als(X, rest);
  EXPECT_EQ(tail.resumed_sweeps, 5);
  EXPECT_EQ(tail.iterations, 12);
  EXPECT_EQ(tail.final_fit, full.final_fit);
  expect_models_bitwise_equal(tail.model, full.model);
}

TEST_F(CheckpointTest, ResumeWithoutAnExistingCheckpointStartsFresh) {
  const Tensor X = test_tensor();
  CpAlsOptions o = base_options();
  o.max_iters = 4;
  o.checkpoint_path = path("fresh.dckp");
  o.resume = true;  // nothing there yet: a fresh start, not an error
  const CpAlsResult r = cp_als(X, o);
  EXPECT_EQ(r.resumed_sweeps, 0);
  EXPECT_EQ(r.iterations, 4);
  EXPECT_TRUE(fs::exists(o.checkpoint_path));
}

TEST_F(CheckpointTest, OptionsHashMismatchRefusesToResume) {
  const Tensor X = test_tensor();
  CpAlsOptions o = base_options();
  o.max_iters = 3;
  o.checkpoint_path = path("bind.dckp");
  (void)cp_als(X, o);

  CpAlsOptions other = o;
  other.resume = true;
  other.seed = o.seed + 1;  // any hashed field: seed, tol, scheme, ...
  try {
    (void)cp_als(X, other);
    FAIL() << "resume under a different configuration was accepted";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("options hash"), std::string::npos);
  }
}

TEST_F(CheckpointTest, OptionsHashIsStableAcrossReleases) {
  // Checkpoints on disk are bound to these values: a change to the hash
  // (a field added, dropped or reordered) would make every existing
  // checkpoint refuse to resume. Pinned for two fixed configurations.
  CpAlsOptions o;
  o.rank = 3;
  EXPECT_EQ(detail::cp_als_options_hash(Tensor({4, 5, 6}), o, 2),
            3636283492433254478ull);
  CpAlsOptionsF of;
  of.rank = 2;
  of.tol = 0.0;
  of.seed = 7;
  of.sweep_scheme = SweepScheme::DimTree;
  EXPECT_EQ(detail::cp_als_options_hash(TensorF({3, 4, 2, 5}), of, 4),
            4691776088949677921ull);
}

TEST_F(CheckpointTest, CheckpointCadenceFollowsCheckpointEvery) {
  const Tensor X = test_tensor();
  CpAlsOptions o = base_options();
  o.max_iters = 7;
  o.checkpoint_every = 3;
  o.checkpoint_path = path("cadence.dckp");
  (void)cp_als(X, o);
  // Sweeps 3 and 6 checkpoint; 7 is not a multiple, so the file holds 6.
  const io::Checkpoint ck = io::read_checkpoint<double>(o.checkpoint_path);
  EXPECT_EQ(ck.completed_sweeps, 6u);
}

TEST_F(CheckpointTest, ResumingACompletedRunIsANoop) {
  const Tensor X = test_tensor();
  CpAlsOptions o = base_options();
  o.max_iters = 5;
  o.checkpoint_path = path("done.dckp");
  const CpAlsResult first = cp_als(X, o);

  CpAlsOptions again = o;
  again.resume = true;
  const CpAlsResult second = cp_als(X, again);
  EXPECT_EQ(second.resumed_sweeps, 5);
  EXPECT_EQ(second.iterations, 5);
  expect_models_bitwise_equal(second.model, first.model);
}

TEST_F(CheckpointTest, ScalarKindMismatchIsAStructuredError) {
  Rng rng(3);
  io::Checkpoint ck;
  ck.options_hash = 1;
  ck.completed_sweeps = 1;
  ck.fit_old = 0.25;
  const std::vector<index_t> dims{5, 4, 3};
  ck.model = Ktensor::random(dims, 2, rng);
  const std::string p = path("f64.dckp");
  io::write_checkpoint(p, ck);
  EXPECT_THROW((void)io::read_checkpoint<float>(p), io::IoError);
  // The right scalar kind still reads.
  EXPECT_NO_THROW((void)io::read_checkpoint<double>(p));
}

TEST_F(CheckpointTest, DivergenceIsReportedAndNeverCheckpointed) {
  const Tensor X = test_tensor();
  CpAlsOptions o = base_options();
  o.max_iters = 10;
  o.checkpoint_path = path("blown.dckp");
  // An MTTKRP that detonates on the very first call: the sweep's lambda /
  // fit turn non-finite and the guardrail must catch it.
  o.mttkrp_override = [](const Tensor&, std::span<const Matrix>, index_t,
                         Matrix& M, const ExecContext&) {
    for (index_t j = 0; j < M.cols(); ++j) {
      for (index_t i = 0; i < M.rows(); ++i) {
        M(i, j) = std::numeric_limits<double>::quiet_NaN();
      }
    }
  };
  const CpAlsResult r = cp_als(X, o);
  EXPECT_EQ(r.status, CpAlsStatus::Diverged);
  EXPECT_FALSE(r.converged);
  // A diverged sweep must never overwrite a good checkpoint — here that
  // means no checkpoint at all was produced.
  EXPECT_FALSE(fs::exists(o.checkpoint_path));
}

TEST_F(CheckpointTest, StatusStringsAreStable) {
  EXPECT_STREQ(to_string(CpAlsStatus::Converged), "converged");
  EXPECT_STREQ(to_string(CpAlsStatus::MaxSweeps), "max-sweeps");
  EXPECT_STREQ(to_string(CpAlsStatus::Diverged), "diverged");
}

}  // namespace
}  // namespace dmtk
