#include "regress/matrix.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/logging.h"

namespace treadmill {
namespace regress {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : nRows(rows), nCols(cols), data(rows * cols, 0.0)
{
    if (rows == 0 || cols == 0)
        throw NumericalError("matrix dimensions must be positive");
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m.at(i, i) = 1.0;
    return m;
}

Matrix
Matrix::transpose() const
{
    Matrix t(nCols, nRows);
    for (std::size_t r = 0; r < nRows; ++r)
        for (std::size_t c = 0; c < nCols; ++c)
            t.at(c, r) = at(r, c);
    return t;
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    if (nCols != other.nRows)
        throw NumericalError("matrix product shape mismatch");
    Matrix out(nRows, other.nCols);
    for (std::size_t r = 0; r < nRows; ++r) {
        const double *a = rowData(r);
        double *o = out.rowData(r);
        for (std::size_t k = 0; k < nCols; ++k) {
            const double v = a[k];
            if (v == 0.0)
                continue;
            const double *b = other.rowData(k);
            for (std::size_t c = 0; c < other.nCols; ++c)
                o[c] += v * b[c];
        }
    }
    return out;
}

Vec
Matrix::multiply(const Vec &v) const
{
    if (v.size() != nCols)
        throw NumericalError("matrix-vector shape mismatch");
    Vec out(nRows, 0.0);
    for (std::size_t r = 0; r < nRows; ++r) {
        const double *a = rowData(r);
        double sum = 0.0;
        for (std::size_t c = 0; c < nCols; ++c)
            sum += a[c] * v[c];
        out[r] = sum;
    }
    return out;
}

Matrix
Matrix::gram() const
{
    Matrix g(nCols, nCols);
    for (std::size_t r = 0; r < nRows; ++r) {
        const double *xr = rowData(r);
        for (std::size_t i = 0; i < nCols; ++i) {
            const double vi = xr[i];
            if (vi == 0.0)
                continue;
            double *gi = g.rowData(i);
            for (std::size_t j = i; j < nCols; ++j)
                gi[j] += vi * xr[j];
        }
    }
    for (std::size_t i = 0; i < nCols; ++i)
        for (std::size_t j = 0; j < i; ++j)
            g.at(i, j) = g.at(j, i);
    return g;
}

Vec
Matrix::transposeMultiply(const Vec &v) const
{
    if (v.size() != nRows)
        throw NumericalError("transpose-multiply shape mismatch");
    Vec out(nCols, 0.0);
    for (std::size_t r = 0; r < nRows; ++r) {
        const double w = v[r];
        if (w == 0.0)
            continue;
        const double *xr = rowData(r);
        for (std::size_t c = 0; c < nCols; ++c)
            out[c] += xr[c] * w;
    }
    return out;
}

Vec
Matrix::row(std::size_t r) const
{
    const double *xr = rowData(r);
    return Vec(xr, xr + nCols);
}

Matrix
Matrix::selectRows(const std::vector<std::size_t> &indices) const
{
    if (indices.empty())
        throw NumericalError("selectRows needs at least one row");
    Matrix out(indices.size(), nCols);
    for (std::size_t i = 0; i < indices.size(); ++i) {
        TM_ASSERT(indices[i] < nRows, "selected row out of range");
        const double *src = rowData(indices[i]);
        std::copy(src, src + nCols, out.rowData(i));
    }
    return out;
}

double
dot(const Vec &a, const Vec &b)
{
    TM_ASSERT(a.size() == b.size(), "dot-product shape mismatch");
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        sum += a[i] * b[i];
    return sum;
}

namespace {

/** Cholesky factor L (lower) with A = L L^T. */
Matrix
choleskyFactor(const Matrix &a)
{
    if (a.rows() != a.cols())
        throw NumericalError("Cholesky needs a square matrix");
    const std::size_t n = a.rows();
    Matrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        double *li = l.rowData(i);
        for (std::size_t j = 0; j <= i; ++j) {
            const double *lj = l.rowData(j);
            double sum = a.at(i, j);
            for (std::size_t k = 0; k < j; ++k)
                sum -= li[k] * lj[k];
            if (i == j) {
                // Relative tolerance: an exactly collinear design
                // loses all pivot mass up to rounding noise.
                const double floor =
                    1e-12 * std::max(1.0, std::fabs(a.at(i, i)));
                if (sum <= floor)
                    throw NumericalError(
                        "matrix is not positive definite");
                li[i] = std::sqrt(sum);
            } else {
                li[j] = sum / lj[j];
            }
        }
    }
    return l;
}

/** Solve L L^T x = b for a factor from choleskyFactor(). */
Vec
choleskySolve(const Matrix &l, const Vec &b)
{
    const std::size_t n = l.rows();
    if (b.size() != n)
        throw NumericalError("solve shape mismatch");

    // Forward substitution: L z = b.
    Vec z(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = l.rowData(i);
        double sum = b[i];
        for (std::size_t k = 0; k < i; ++k)
            sum -= li[k] * z[k];
        z[i] = sum / li[i];
    }
    // Back substitution: L^T x = z.
    Vec x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double sum = z[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            sum -= l.at(k, ii) * x[k];
        x[ii] = sum / l.at(ii, ii);
    }
    return x;
}

} // namespace

Vec
solveCholesky(const Matrix &a, const Vec &b)
{
    return choleskySolve(choleskyFactor(a), b);
}

Vec
solveLinearSystem(Matrix a, Vec b)
{
    if (a.rows() != a.cols())
        throw NumericalError("solve needs a square matrix");
    const std::size_t n = a.rows();
    if (b.size() != n)
        throw NumericalError("solve shape mismatch");

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t pivot = col;
        double best = std::fabs(a.at(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::fabs(a.at(r, col)) > best) {
                best = std::fabs(a.at(r, col));
                pivot = r;
            }
        }
        if (best < 1e-300)
            throw NumericalError("singular matrix in solve");
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(a.at(col, c), a.at(pivot, c));
            std::swap(b[col], b[pivot]);
        }
        // Eliminate below.
        for (std::size_t r = col + 1; r < n; ++r) {
            const double f = a.at(r, col) / a.at(col, col);
            if (f == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                a.at(r, c) -= f * a.at(col, c);
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    Vec x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double sum = b[ii];
        for (std::size_t c = ii + 1; c < n; ++c)
            sum -= a.at(ii, c) * x[c];
        x[ii] = sum / a.at(ii, ii);
    }
    return x;
}

Matrix
invertSpd(const Matrix &a)
{
    // One factorization serves all n column solves.
    const Matrix l = choleskyFactor(a);
    const std::size_t n = a.rows();
    Matrix inv(n, n);
    for (std::size_t c = 0; c < n; ++c) {
        Vec e(n, 0.0);
        e[c] = 1.0;
        const Vec col = choleskySolve(l, e);
        for (std::size_t r = 0; r < n; ++r)
            inv.at(r, c) = col[r];
    }
    return inv;
}

} // namespace regress
} // namespace treadmill
