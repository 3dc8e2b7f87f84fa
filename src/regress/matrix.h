/**
 * @file
 * Dense matrix/vector algebra for the regression layer.
 *
 * Small and self-contained: the design matrices here are N x 16 (480
 * experiments by 16 factorial terms), so simple dense routines with
 * partial pivoting are exactly the right tool.
 */

#ifndef TREADMILL_REGRESS_MATRIX_H_
#define TREADMILL_REGRESS_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/logging.h"

namespace treadmill {
namespace regress {

/** Column vector. */
using Vec = std::vector<double>;

/** Row-major dense matrix. */
class Matrix
{
  public:
    /** Zero matrix of the given shape. */
    Matrix(std::size_t rows, std::size_t cols);

    Matrix(const Matrix &) = default;
    Matrix(Matrix &&) noexcept = default;
    Matrix &operator=(const Matrix &) = default;
    Matrix &operator=(Matrix &&) noexcept = default;

    std::size_t rows() const { return nRows; }
    std::size_t cols() const { return nCols; }

    /** Bounds-checked element access; inline because the regression
     *  kernels call it in their innermost loops. */
    double &
    at(std::size_t r, std::size_t c)
    {
        TM_ASSERT(r < nRows && c < nCols, "matrix index out of range");
        return data[r * nCols + c];
    }

    double
    at(std::size_t r, std::size_t c) const
    {
        TM_ASSERT(r < nRows && c < nCols, "matrix index out of range");
        return data[r * nCols + c];
    }

    /** Pointer to the cols() contiguous elements of row @p r, for
     *  kernels that walk a whole row. */
    double *
    rowData(std::size_t r)
    {
        TM_ASSERT(r < nRows, "row index out of range");
        return data.data() + r * nCols;
    }

    const double *
    rowData(std::size_t r) const
    {
        TM_ASSERT(r < nRows, "row index out of range");
        return data.data() + r * nCols;
    }

    /** n x n identity. */
    static Matrix identity(std::size_t n);

    /** This matrix transposed. */
    Matrix transpose() const;

    /** Matrix product this * other. */
    Matrix multiply(const Matrix &other) const;

    /** Matrix-vector product this * v. */
    Vec multiply(const Vec &v) const;

    /** X^T X (Gram matrix), computed directly. */
    Matrix gram() const;

    /** X^T v. */
    Vec transposeMultiply(const Vec &v) const;

    /** Copy of row r. */
    Vec row(std::size_t r) const;

    /** Build a matrix from the given rows of this one (with
     *  repetition), for bootstrap resampling. */
    Matrix selectRows(const std::vector<std::size_t> &indices) const;

  private:
    std::size_t nRows;
    std::size_t nCols;
    std::vector<double> data;
};

/** Dot product. */
double dot(const Vec &a, const Vec &b);

/**
 * Solve A x = b for symmetric positive-definite A via Cholesky.
 * @throws NumericalError when A is not positive definite.
 */
Vec solveCholesky(const Matrix &a, const Vec &b);

/**
 * Solve A x = b via Gaussian elimination with partial pivoting.
 * @throws NumericalError when A is singular.
 */
Vec solveLinearSystem(Matrix a, Vec b);

/**
 * Inverse of symmetric positive-definite A via Cholesky.
 * @throws NumericalError when A is not positive definite.
 */
Matrix invertSpd(const Matrix &a);

} // namespace regress
} // namespace treadmill

#endif // TREADMILL_REGRESS_MATRIX_H_
