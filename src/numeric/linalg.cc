#include "numeric/linalg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "numeric/kernels.h"

namespace tg {

Result<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix, got " +
                                   a.ShapeString());
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      // Rows i and j of L are filled left-to-right, so their first j entries
      // are valid contiguous prefixes: one kernel dot per element.
      double sum = a(i, j) - kernels::Dot(l.RowPtr(i), l.RowPtr(j), j);
      if (i == j) {
        if (sum <= 0.0) {
          return Status::FailedPrecondition(
              "matrix is not positive definite (pivot " +
              std::to_string(sum) + " at " + std::to_string(i) + ")");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

Result<Matrix> CholeskySolve(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch in CholeskySolve");
  }
  Result<Matrix> factor = CholeskyFactor(a);
  if (!factor.ok()) return factor.status();
  const Matrix& l = factor.value();
  const size_t n = a.rows();
  const size_t m = b.cols();

  // Forward substitution: L z = b.
  Matrix z = b;
  for (size_t c = 0; c < m; ++c) {
    for (size_t i = 0; i < n; ++i) {
      double sum = z(i, c);
      for (size_t k = 0; k < i; ++k) sum -= l(i, k) * z(k, c);
      z(i, c) = sum / l(i, i);
    }
  }
  // Back substitution: L^T x = z.
  Matrix x = z;
  for (size_t c = 0; c < m; ++c) {
    for (size_t ii = n; ii > 0; --ii) {
      const size_t i = ii - 1;
      double sum = x(i, c);
      for (size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x(k, c);
      x(i, c) = sum / l(i, i);
    }
  }
  return x;
}

Result<EigenDecomposition> SymmetricEigen(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("eigendecomposition requires square input");
  }
  const size_t n = a.rows();
  // Verify symmetry (within roundoff) so silent garbage cannot escape.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double scale = std::max({1.0, std::fabs(a(i, j)), std::fabs(a(j, i))});
      if (std::fabs(a(i, j) - a(j, i)) > 1e-8 * scale) {
        return Status::InvalidArgument("matrix is not symmetric");
      }
    }
  }
  EigenDecomposition out;
  if (n == 0) return out;

  // Householder tridiagonalization A = Q T Q^T (Golub & Van Loan, Alg.
  // 8.3.1): step k reflects the trailing block k+1.. by H_k = I - beta v v^T
  // and keeps v in row k of t. d/e get T's diagonal and off-diagonal.
  Matrix t = a;
  std::vector<double> d(n), e(n, 0.0), beta(n, 0.0), w(n);
  for (size_t k = 0; k + 1 < n; ++k) {
    double* v = t.RowPtr(k);  // v[j] for j > k
    e[k] = v[k + 1];
    double norm2 = 0.0;
    for (size_t j = k + 2; j < n; ++j) norm2 += v[j] * v[j];
    if (norm2 == 0.0) continue;  // row k is already tridiagonal
    norm2 += v[k + 1] * v[k + 1];
    e[k] = v[k + 1] > 0.0 ? -std::sqrt(norm2) : std::sqrt(norm2);
    beta[k] = 1.0 / (norm2 - e[k] * v[k + 1]);  // 2 / v^T v
    v[k + 1] -= e[k];
    // Block <- H B H = B - v w^T - w v^T, w = p - (beta/2)(p^T v) v and
    // p = beta B v.
    double pv = 0.0;
    for (size_t i = k + 1; i < n; ++i) {
      const double* ti = t.RowPtr(i);
      double acc = 0.0;
      for (size_t j = k + 1; j < n; ++j) acc += ti[j] * v[j];
      w[i] = beta[k] * acc;
      pv += w[i] * v[i];
    }
    for (size_t i = k + 1; i < n; ++i) w[i] -= 0.5 * beta[k] * pv * v[i];
    for (size_t i = k + 1; i < n; ++i) {
      double* ti = t.RowPtr(i);
      for (size_t j = k + 1; j < n; ++j) ti[j] -= v[i] * w[j] + w[i] * v[j];
    }
  }
  for (size_t i = 0; i < n; ++i) d[i] = t(i, i);
  // z = Q^T = H_{n-3} ... H_0, built right to left so each H_k only touches
  // the trailing block. The QL rotations below then act on contiguous rows
  // of z, and row j ends as eigenvector j.
  Matrix z = Matrix::Identity(n);
  for (size_t k = n; k-- > 0;) {
    if (beta[k] == 0.0) continue;
    const double* v = t.RowPtr(k);
    for (size_t r = k + 1; r < n; ++r) {
      double* zr = z.RowPtr(r);
      double dot = 0.0;
      for (size_t j = k + 1; j < n; ++j) dot += zr[j] * v[j];
      for (size_t j = k + 1; j < n; ++j) zr[j] -= beta[k] * dot * v[j];
    }
  }

  // Implicit QL with Wilkinson shifts (EISPACK tql2) on (d, e).
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr int kMaxIterations = 64;  // per eigenvalue; ~2 is typical
  double shift = 0.0;
  double tst1 = 0.0;
  for (size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    size_t m = l;
    while (m + 1 < n && std::fabs(e[m]) > kEps * tst1) ++m;
    for (int iter = 0; m > l && std::fabs(e[l]) > kEps * tst1; ++iter) {
      if (iter == kMaxIterations) {
        return Status::Internal("QL eigensolver did not converge");
      }
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      const double r = std::copysign(std::hypot(p, 1.0), p);
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (size_t i = l + 2; i < n; ++i) d[i] -= h;
      shift += h;
      p = d[m];
      double c = 1.0, c2 = 1.0, c3 = 1.0, s = 0.0, s2 = 0.0;
      const double el1 = e[l + 1];
      for (size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        // |p|, |e[i]| stay O(||A||): unscaled, this overflows only for
        // ||A|| near 1e154, and std::hypot would cost a fifth of the solver.
        const double rr = std::sqrt(p * p + e[i] * e[i]);
        e[i + 1] = s * rr;
        s = e[i] / rr;
        c = p / rr;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        double* zi = z.RowPtr(i);
        double* zi1 = z.RowPtr(i + 1);
        for (size_t k = 0; k < n; ++k) {
          const double x = zi1[k];
          zi1[k] = s * zi[k] + c * x;
          zi[k] = c * zi[k] - s * x;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift;
    e[l] = 0.0;
  }

  // Ascending eigenvalues; each eigenvector's largest-magnitude component
  // (first on ties) is made positive so the output is sign-deterministic.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return d[x] < d[y]; });
  out.eigenvalues.resize(n);
  out.eigenvectors = Matrix(n, n);
  for (size_t c = 0; c < n; ++c) {
    const double* v = z.RowPtr(order[c]);
    const double* big = std::max_element(v, v + n, [](double x, double y) {
      return std::fabs(x) < std::fabs(y);
    });
    const double sign = *big < 0.0 ? -1.0 : 1.0;
    out.eigenvalues[c] = d[order[c]];
    for (size_t r = 0; r < n; ++r) out.eigenvectors(r, c) = sign * v[r];
  }
  return out;
}

Result<SingularValueDecomposition> ThinSvd(const Matrix& a, double rank_tol) {
  if (a.empty()) return Status::InvalidArgument("SVD of empty matrix");
  // Gram matrix G = A^T A (d x d); eigenpairs give V and s^2.
  Matrix gram = a.TransposedMatMul(a);
  Result<EigenDecomposition> eig = SymmetricEigen(gram);
  if (!eig.ok()) return eig.status();

  const size_t d = a.cols();
  // Eigenvalues ascending -> iterate from the back for descending s.
  std::vector<double> svals;
  std::vector<size_t> cols;
  double max_ev = 0.0;
  for (double ev : eig.value().eigenvalues) max_ev = std::max(max_ev, ev);
  const double cutoff = std::max(max_ev * rank_tol * rank_tol, 0.0);
  for (size_t ci = d; ci > 0; --ci) {
    const size_t c = ci - 1;
    const double ev = eig.value().eigenvalues[c];
    if (ev <= cutoff || ev <= 0.0) continue;
    svals.push_back(std::sqrt(ev));
    cols.push_back(c);
  }
  const size_t r = svals.size();
  if (r == 0) return Status::FailedPrecondition("matrix has numerical rank 0");

  SingularValueDecomposition out;
  out.singular_values = svals;
  out.v = Matrix(d, r);
  for (size_t j = 0; j < r; ++j) {
    for (size_t i = 0; i < d; ++i) {
      out.v(i, j) = eig.value().eigenvectors(i, cols[j]);
    }
  }
  // U = A V diag(1/s).
  out.u = a.MatMul(out.v);
  for (size_t i = 0; i < out.u.rows(); ++i) {
    for (size_t j = 0; j < r; ++j) out.u(i, j) /= svals[j];
  }
  return out;
}

Result<Matrix> RidgeSolve(const Matrix& x, const Matrix& y, double lambda) {
  if (x.rows() != y.rows()) {
    return Status::InvalidArgument("X and y row counts differ");
  }
  if (lambda < 0.0) {
    return Status::InvalidArgument("ridge penalty must be non-negative");
  }
  Matrix gram = x.TransposedMatMul(x);
  for (size_t i = 0; i < gram.rows(); ++i) gram(i, i) += lambda;
  Matrix xty = x.TransposedMatMul(y);
  return CholeskySolve(gram, xty);
}

}  // namespace tg
