#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "numeric/linalg.h"
#include "transferability/logme.h"
#include "util/rng.h"
#include "zoo/model_zoo.h"

namespace tg {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

// Test oracle: the cyclic Jacobi method (slow, but each rotation is
// backward stable and it converges to full accuracy). Ascending eigenvalues;
// eigenvector signs are whatever the rotations leave.
EigenDecomposition JacobiEigen(const Matrix& a) {
  const size_t n = a.rows();
  Matrix d = a;
  Matrix v = Matrix::Identity(n);
  for (int sweep = 0; sweep < 64; ++sweep) {
    double off = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) off += d(i, j) * d(i, j);
    }
    if (off < 1e-24) break;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        if (std::fabs(d(p, q)) < 1e-300) continue;
        const double theta = (d(q, q) - d(p, p)) / (2.0 * d(p, q));
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return d(x, x) < d(y, y); });
  EigenDecomposition out;
  out.eigenvalues.resize(n);
  out.eigenvectors = Matrix(n, n);
  for (size_t c = 0; c < n; ++c) {
    out.eigenvalues[c] = d(order[c], order[c]);
    for (size_t r = 0; r < n; ++r) out.eigenvectors(r, c) = v(r, order[c]);
  }
  return out;
}

// LogME (same fixed point as transferability/logme.cc) on the Jacobi
// spectrum of F^T F: the reference the production solver must reproduce.
double JacobiLogMe(const Matrix& f, const std::vector<int>& labels,
                   int num_classes) {
  const LogMeOptions options;
  const size_t n = f.rows();
  const size_t d = f.cols();
  const EigenDecomposition eig = JacobiEigen(f.TransposedMatMul(f));
  std::vector<double> sigma = eig.eigenvalues;
  for (double& s : sigma) s = std::max(s, 0.0);
  double total = 0.0;
  for (int k = 0; k < num_classes; ++k) {
    std::vector<double> fty(d, 0.0);
    double y_norm2 = 0.0;
    for (size_t r = 0; r < n; ++r) {
      if (labels[r] != k) continue;
      y_norm2 += 1.0;
      for (size_t c = 0; c < d; ++c) fty[c] += f(r, c);
    }
    std::vector<double> tmp(d, 0.0);
    for (size_t c = 0; c < d; ++c) {
      for (size_t r = 0; r < d; ++r) tmp[c] += eig.eigenvectors(r, c) * fty[r];
    }
    double alpha = 1.0, beta = 1.0, lam = 1.0;
    double alpha_de = 0.0, beta_de = y_norm2;
    for (int iter = 0; iter < options.max_fixed_point_iters; ++iter) {
      double gamma = 0.0, explained = 0.0;
      alpha_de = 0.0;
      for (size_t i = 0; i < d; ++i) {
        const double denom = alpha + beta * sigma[i];
        gamma += beta * sigma[i] / denom;
        const double m_i = beta * tmp[i] / denom;
        alpha_de += m_i * m_i;
        explained += tmp[i] * tmp[i] * beta * (2.0 * alpha + beta * sigma[i]) /
                     (denom * denom);
      }
      beta_de = std::max(y_norm2 - explained, 0.0);
      alpha = gamma / (alpha_de + 1e-5);
      beta = (static_cast<double>(n) - gamma) / (beta_de + 1e-5);
      const double new_lam = alpha / beta;
      if (std::fabs(new_lam - lam) / lam < options.tolerance) break;
      lam = new_lam;
    }
    double log_det = 0.0;
    for (double s : sigma) log_det += std::log(alpha + beta * s);
    total += (0.5 * static_cast<double>(d) * std::log(alpha) +
              0.5 * static_cast<double>(n) * std::log(beta) - 0.5 * log_det -
              0.5 * beta * beta_de - 0.5 * alpha * alpha_de -
              0.5 * static_cast<double>(n) * std::log(2.0 * M_PI)) /
             static_cast<double>(n);
  }
  return total / static_cast<double>(num_classes);
}

// Gram of 400 x 32 tanh features of a 16-dim latent, the shape LogME
// decomposes once per (model, dataset) pair in the zoo.
Matrix ProductionShapedGram(uint64_t seed) {
  Rng rng(seed);
  const Matrix latent = Matrix::Gaussian(400, 16, &rng);
  const Matrix projection = Matrix::Gaussian(16, 32, &rng);
  Matrix features = latent.MatMul(projection);
  for (size_t i = 0; i < features.rows(); ++i) {
    for (size_t f = 0; f < features.cols(); ++f) {
      features(i, f) =
          std::tanh(0.3 * features(i, f)) + 0.2 * rng.NextGaussian();
    }
  }
  return features.TransposedMatMul(features);
}

// max |A V - V diag(w)| and max |V^T V - I|.
std::pair<double, double> EigenResiduals(const Matrix& a,
                                         const EigenDecomposition& eig) {
  const Matrix& v = eig.eigenvectors;
  Matrix vw = v;
  for (size_t r = 0; r < v.rows(); ++r) {
    for (size_t c = 0; c < v.cols(); ++c) vw(r, c) *= eig.eigenvalues[c];
  }
  return {(a.MatMul(v) - vw).MaxAbs(),
          (v.TransposedMatMul(v) - Matrix::Identity(v.cols())).MaxAbs()};
}

// Eigenvalues ascending, V orthonormal, A V = V diag(w) to c * n * eps *
// ||A||, and each eigenvector's largest-magnitude component positive.
void ExpectValidDecomposition(const Matrix& a, const EigenDecomposition& eig) {
  const size_t n = a.rows();
  ASSERT_EQ(eig.eigenvalues.size(), n);
  ASSERT_EQ(eig.eigenvectors.rows(), n);
  ASSERT_EQ(eig.eigenvectors.cols(), n);
  for (size_t i = 1; i < n; ++i) {
    EXPECT_LE(eig.eigenvalues[i - 1], eig.eigenvalues[i]);
  }
  const double bound = 10.0 * static_cast<double>(n) * kEps;
  const auto [residual, orthogonality] = EigenResiduals(a, eig);
  EXPECT_LE(residual, bound * a.FrobeniusNorm());
  EXPECT_LE(orthogonality, bound);
  for (size_t c = 0; c < n; ++c) {
    double largest = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double x = eig.eigenvectors(r, c);
      if (std::fabs(x) > std::fabs(largest)) largest = x;
    }
    EXPECT_GT(largest, 0.0) << "eigenvector " << c;
  }
}

Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix a = Matrix::Gaussian(n + 4, n, rng);
  Matrix spd = a.TransposedMatMul(a);
  for (size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

TEST(CholeskyTest, FactorReconstructs) {
  Rng rng(1);
  Matrix a = RandomSpd(6, &rng);
  Result<Matrix> l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  Matrix reconstructed = l.value().MatMulTransposed(l.value());
  EXPECT_LT((reconstructed - a).MaxAbs(), 1e-9);
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(CholeskyFactor(Matrix(2, 3)).ok());
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  Result<Matrix> r = CholeskyFactor(a);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CholeskySolveTest, SolvesKnownSystem) {
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  Matrix b = Matrix::ColumnVector({10, 8});
  Result<Matrix> x = CholeskySolve(a, b);
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  Matrix ax = a.MatMul(x.value());
  EXPECT_NEAR(ax(0, 0), 10.0, 1e-10);
  EXPECT_NEAR(ax(1, 0), 8.0, 1e-10);
}

TEST(CholeskySolveTest, MultipleRightHandSides) {
  Rng rng(3);
  Matrix a = RandomSpd(5, &rng);
  Matrix b = Matrix::Gaussian(5, 3, &rng);
  Result<Matrix> x = CholeskySolve(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT((a.MatMul(x.value()) - b).MaxAbs(), 1e-8);
}

TEST(SymmetricEigenTest, DiagonalMatrix) {
  Matrix a = Matrix::FromRows({{3, 0}, {0, 1}});
  Result<EigenDecomposition> eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.value().eigenvalues[1], 3.0, 1e-12);
}

TEST(SymmetricEigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  Result<EigenDecomposition> eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.value().eigenvalues[1], 3.0, 1e-10);
}

TEST(SymmetricEigenTest, ReconstructsMatrix) {
  Rng rng(5);
  Matrix a = RandomSpd(8, &rng);
  Result<EigenDecomposition> eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  // A = V diag(w) V^T.
  const Matrix& v = eig.value().eigenvectors;
  Matrix vd = v;
  for (size_t r = 0; r < vd.rows(); ++r) {
    for (size_t c = 0; c < vd.cols(); ++c) {
      vd(r, c) *= eig.value().eigenvalues[c];
    }
  }
  Matrix reconstructed = vd.MatMulTransposed(v);
  EXPECT_LT((reconstructed - a).MaxAbs(), 1e-8);
}

TEST(SymmetricEigenTest, EigenvectorsOrthonormal) {
  Rng rng(7);
  Matrix a = RandomSpd(6, &rng);
  Result<EigenDecomposition> eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  const Matrix& v = eig.value().eigenvectors;
  Matrix gram = v.TransposedMatMul(v);
  EXPECT_LT((gram - Matrix::Identity(6)).MaxAbs(), 1e-9);
}

TEST(SymmetricEigenTest, ProductionGramsMatchJacobi) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Matrix a = ProductionShapedGram(seed);
    Result<EigenDecomposition> eig = SymmetricEigen(a);
    ASSERT_TRUE(eig.ok());
    ExpectValidDecomposition(a, eig.value());
    const EigenDecomposition oracle = JacobiEigen(a);
    for (size_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(eig.value().eigenvalues[i], oracle.eigenvalues[i],
                  1e-12 * a.FrobeniusNorm())
          << "seed " << seed << " eigenvalue " << i;
    }
  }
}

TEST(SymmetricEigenTest, ZeroMatrix) {
  const Matrix a(5, 5);
  Result<EigenDecomposition> eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  ExpectValidDecomposition(a, eig.value());
  for (double w : eig.value().eigenvalues) EXPECT_EQ(w, 0.0);
}

TEST(SymmetricEigenTest, UnsortedDiagonalGivesSortedUnitVectors) {
  const Matrix a = Matrix::FromRows(
      {{2, 0, 0, 0}, {0, -1, 0, 0}, {0, 0, 5, 0}, {0, 0, 0, 0.5}});
  Result<EigenDecomposition> eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  ExpectValidDecomposition(a, eig.value());
  EXPECT_EQ(eig.value().eigenvalues, (std::vector<double>{-1, 0.5, 2, 5}));
  const size_t axis[] = {1, 3, 0, 2};
  for (size_t c = 0; c < 4; ++c) {
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(eig.value().eigenvectors(r, c), r == axis[c] ? 1.0 : 0.0);
    }
  }
}

TEST(SymmetricEigenTest, OneByOne) {
  Result<EigenDecomposition> eig = SymmetricEigen(Matrix::FromRows({{-3}}));
  ASSERT_TRUE(eig.ok());
  EXPECT_EQ(eig.value().eigenvalues, std::vector<double>{-3.0});
  EXPECT_EQ(eig.value().eigenvectors(0, 0), 1.0);
}

TEST(SymmetricEigenTest, RepeatedEigenvalues) {
  // Q diag(1, 1, 1, 4, 4, 9) Q^T for a random orthogonal Q.
  Rng rng(21);
  const Matrix q = SymmetricEigen(RandomSpd(6, &rng)).value().eigenvectors;
  const std::vector<double> w = {1, 1, 1, 4, 4, 9};
  Matrix qw = q;
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < 6; ++c) qw(r, c) *= w[c];
  }
  Matrix a = qw.MatMulTransposed(q);
  for (size_t i = 0; i < 6; ++i) {  // exact symmetry
    for (size_t j = 0; j < i; ++j) a(i, j) = a(j, i);
  }
  Result<EigenDecomposition> eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  ExpectValidDecomposition(a, eig.value());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(eig.value().eigenvalues[i], w[i], 1e-13 * 9.0);
  }
}

TEST(SymmetricEigenTest, AlreadyTridiagonal) {
  // The path-graph Laplacian tridiag(-1, 2, -1): w_k = 2 - 2 cos(k pi/(n+1)).
  const size_t n = 12;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    if (i + 1 < n) a(i, i + 1) = a(i + 1, i) = -1.0;
  }
  Result<EigenDecomposition> eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  ExpectValidDecomposition(a, eig.value());
  for (size_t k = 1; k <= n; ++k) {
    EXPECT_NEAR(eig.value().eigenvalues[k - 1],
                2.0 - 2.0 * std::cos(static_cast<double>(k) * M_PI /
                                     static_cast<double>(n + 1)),
                1e-14);
  }
}

TEST(SymmetricEigenTest, LogMeOnZooPairsMatchesJacobiReference) {
  // Every image model on two public datasets: the production LogME must
  // match the Jacobi-based reference and rank each dataset's models alike.
  zoo::ModelZoo zoo;
  const std::vector<size_t> models = zoo.ModelsOfModality(zoo::Modality::kImage);
  std::vector<size_t> datasets = zoo.PublicDatasets(zoo::Modality::kImage);
  datasets.resize(2);
  ASSERT_GE(models.size() * datasets.size(), 200u);
  for (size_t d : datasets) {
    const zoo::DatasetSamples& samples = zoo.world().Samples(d);
    std::vector<double> scores, reference;
    for (size_t m : models) {
      const Matrix f = zoo.world().ExtractFeatures(m, d);
      Result<double> score = LogMeScore(f, samples.labels, samples.num_classes);
      ASSERT_TRUE(score.ok());
      scores.push_back(score.value());
      reference.push_back(JacobiLogMe(f, samples.labels, samples.num_classes));
      EXPECT_NEAR(scores.back(), reference.back(),
                  1e-10 * std::fabs(reference.back()))
          << "model " << m << " dataset " << d;
    }
    auto ranking = [](const std::vector<double>& v) {
      std::vector<size_t> order(v.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t x, size_t y) { return v[x] > v[y]; });
      return order;
    };
    EXPECT_EQ(ranking(scores), ranking(reference)) << "dataset " << d;
  }
}

TEST(SymmetricEigenTest, RejectsAsymmetric) {
  Matrix a = Matrix::FromRows({{1, 2}, {0, 1}});
  EXPECT_FALSE(SymmetricEigen(a).ok());
}

TEST(ThinSvdTest, ReconstructsTallMatrix) {
  Rng rng(9);
  Matrix a = Matrix::Gaussian(20, 6, &rng);
  Result<SingularValueDecomposition> svd = ThinSvd(a);
  ASSERT_TRUE(svd.ok());
  const auto& s = svd.value();
  ASSERT_EQ(s.singular_values.size(), 6u);
  // U diag(s) V^T == A.
  Matrix us = s.u;
  for (size_t r = 0; r < us.rows(); ++r) {
    for (size_t c = 0; c < us.cols(); ++c) {
      us(r, c) *= s.singular_values[c];
    }
  }
  Matrix reconstructed = us.MatMulTransposed(s.v);
  EXPECT_LT((reconstructed - a).MaxAbs(), 1e-7);
}

TEST(ThinSvdTest, SingularValuesDescending) {
  Rng rng(11);
  Matrix a = Matrix::Gaussian(15, 5, &rng);
  Result<SingularValueDecomposition> svd = ThinSvd(a);
  ASSERT_TRUE(svd.ok());
  for (size_t i = 1; i < svd.value().singular_values.size(); ++i) {
    EXPECT_GE(svd.value().singular_values[i - 1],
              svd.value().singular_values[i]);
  }
}

TEST(ThinSvdTest, RankDeficientDropsZeroSingulars) {
  // Two identical columns -> rank 1.
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Result<SingularValueDecomposition> svd = ThinSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_EQ(svd.value().singular_values.size(), 1u);
  EXPECT_NEAR(svd.value().singular_values[0],
              std::sqrt(2.0 * (1 + 4 + 9)), 1e-9);
}

TEST(ThinSvdTest, RejectsEmpty) { EXPECT_FALSE(ThinSvd(Matrix()).ok()); }

TEST(RidgeSolveTest, RecoversCoefficientsAtLowPenalty) {
  Rng rng(13);
  Matrix x = Matrix::Gaussian(200, 4, &rng);
  Matrix w_true = Matrix::ColumnVector({1.0, -2.0, 0.5, 3.0});
  Matrix y = x.MatMul(w_true);
  Result<Matrix> w = RidgeSolve(x, y, 1e-8);
  ASSERT_TRUE(w.ok());
  EXPECT_LT((w.value() - w_true).MaxAbs(), 1e-5);
}

TEST(RidgeSolveTest, PenaltyShrinksCoefficients) {
  Rng rng(15);
  Matrix x = Matrix::Gaussian(50, 3, &rng);
  Matrix y = Matrix::Gaussian(50, 1, &rng);
  Matrix w_small = RidgeSolve(x, y, 0.01).value();
  Matrix w_large = RidgeSolve(x, y, 1000.0).value();
  EXPECT_LT(w_large.FrobeniusNorm(), w_small.FrobeniusNorm());
}

TEST(RidgeSolveTest, RejectsNegativePenalty) {
  EXPECT_FALSE(RidgeSolve(Matrix(3, 2), Matrix(3, 1), -1.0).ok());
}

TEST(RidgeSolveTest, RejectsRowMismatch) {
  EXPECT_FALSE(RidgeSolve(Matrix(3, 2), Matrix(4, 1), 1.0).ok());
}

}  // namespace
}  // namespace tg
