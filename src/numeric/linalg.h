// Dense linear-algebra routines needed by the library:
//   * Cholesky factorization / SPD solve  (ridge regression, LogME)
//   * symmetric eigendecomposition (Householder tridiagonalization + QL)
//   * thin SVD via the Gram-matrix eigendecomposition (LogME)
// Problem sizes are small (feature dims <= a few hundred), so numerically
// robust O(n^3) classics are the right tool.
#ifndef TG_NUMERIC_LINALG_H_
#define TG_NUMERIC_LINALG_H_

#include <vector>

#include "numeric/matrix.h"
#include "util/status.h"

namespace tg {

// Result of a symmetric eigendecomposition A = V diag(w) V^T.
struct EigenDecomposition {
  std::vector<double> eigenvalues;  // ascending
  Matrix eigenvectors;              // column i pairs with eigenvalues[i]
};

// Result of a thin SVD A (n x d, n >= d is not required) = U diag(s) V^T.
struct SingularValueDecomposition {
  Matrix u;                         // n x r
  std::vector<double> singular_values;  // descending, length r
  Matrix v;                         // d x r
};

// Cholesky factor L (lower triangular) with A = L L^T. Fails if A is not
// symmetric positive definite (within roundoff).
Result<Matrix> CholeskyFactor(const Matrix& a);

// Solves A x = b for SPD A via Cholesky. b may have multiple columns.
Result<Matrix> CholeskySolve(const Matrix& a, const Matrix& b);

// Householder tridiagonalization followed by implicit QL with Wilkinson
// shifts. `a` must be symmetric. Eigenvalues come out ascending; each
// eigenvector's largest-magnitude component is positive. Fails if QL does
// not converge.
Result<EigenDecomposition> SymmetricEigen(const Matrix& a);

// Thin SVD computed from the eigendecomposition of A^T A (d x d), suitable
// for the tall-skinny feature matrices used by LogME. Singular values below
// `rank_tol * max_sv` are dropped.
Result<SingularValueDecomposition> ThinSvd(const Matrix& a,
                                           double rank_tol = 1e-10);

// Solves the ridge system (X^T X + lambda I) w = X^T y. Returns d x y_cols.
Result<Matrix> RidgeSolve(const Matrix& x, const Matrix& y, double lambda);

}  // namespace tg

#endif  // TG_NUMERIC_LINALG_H_
