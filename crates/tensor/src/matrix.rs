//! Row-major dense `f32` matrix.

use crate::{kernels, Result, TensorError};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// `rows * cols`, the element count of a shape.
///
/// # Panics
///
/// Panics, naming the shape, when the product overflows `usize`: the
/// infallible constructors fail at construction, as `Vec` does on a capacity
/// overflow, instead of returning a matrix whose buffer is shorter than its
/// shape.
fn element_count(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols)
        .unwrap_or_else(|| panic!("a {rows}x{cols} matrix has more elements than usize can count"))
}

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the workhorse type of the workspace: activations, weights,
/// gradients and datasets are all represented as matrices. The type is kept
/// deliberately simple — no views, no strides — because the models in this
/// reproduction are small and clarity beats cleverness for a research
/// artefact.
///
/// # Example
///
/// ```
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), fedft_tensor::TensorError> {
/// let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// let y = x.transpose();
/// assert_eq!(y.shape(), (3, 2));
/// assert_eq!(y.get(2, 1), 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing the buffer when its capacity
    /// allows — what lets per-step copies (a layer's cached input) stop
    /// allocating once warm.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; element_count(rows, cols)],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; element_count(rows, cols)],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimensions`] if `data.len() != rows * cols`,
    /// or if `rows * cols` overflows `usize`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(TensorError::InvalidDimensions {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyMatrix`] for an empty slice and
    /// [`TensorError::RaggedRows`] if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::EmptyMatrix { op: "from_rows" });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(TensorError::RaggedRows {
                    expected: cols,
                    found: r.len(),
                    row: i,
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a 1×`n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrow row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds ({} rows)",
            self.rows
        );
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrow row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Builds a new matrix containing only the rows whose indices are listed
    /// in `indices`, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &idx in indices {
            data.extend_from_slice(self.row(idx));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Like [`Matrix::select_rows`], but writes the gathered rows into a
    /// caller-provided matrix, reusing its buffer when capacity allows.
    ///
    /// The destination is resized to `indices.len() × self.cols()`; its
    /// previous contents are discarded. Repeated gathers into the same
    /// buffer (e.g. batch assembly inside a training loop) therefore
    /// allocate only when a batch grows beyond every previous one. The
    /// gathered values are byte-identical to [`Matrix::select_rows`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &idx in indices {
            out.data.extend_from_slice(self.row(idx));
        }
        out.rows = indices.len();
        out.cols = self.cols;
    }

    /// Reshapes to `rows × cols` and sets every element to zero, reusing the
    /// buffer when its capacity allows. This is how the `*_into` operations
    /// prepare their destination: repeated calls with same-shaped results
    /// allocate only the first time.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        let len = element_count(rows, cols);
        if self.data.capacity() < len {
            // A fresh zeroed allocation, not a copy-and-fill of the old one.
            self.data = vec![0.0; len];
        } else {
            self.data.clear();
            self.data.resize(len, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        kernels::transpose_into(self.rows, self.cols, &self.data, &mut out.data);
        out
    }

    /// Matrix product `self * other`, computed with the cache-blocked,
    /// register-tiled kernel in `kernels.rs` (large shapes split their row
    /// panels across the persistent worker pool on multi-core hosts;
    /// results are identical for any worker count).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul`] into a caller-provided matrix, which is reshaped
    /// and overwritten ([`Matrix::resize_zeroed`]); same kernel, same bits.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        out.resize_zeroed(self.rows, other.cols);
        kernels::gemm_nn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(())
    }

    /// The rows `rows` of [`Matrix::matmul`], written into `out`
    /// (`rows.len() × other.cols()`, row-major) and read from this matrix in
    /// place. Every element is the multiply-add chain the whole product
    /// computes for it, so `out` equals those rows of `self.matmul(other)` bit
    /// for bit; large ranges split across the worker pool like any product.
    /// Every element of `out` is overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()` — the error [`Matrix::matmul`] returns.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if `rows` is not a range of this
    /// matrix's rows or `out` does not hold `rows.len() × other.cols()`
    /// elements.
    pub fn matmul_rows_into(
        &self,
        rows: Range<usize>,
        other: &Matrix,
        out: &mut [f32],
    ) -> Result<()> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        assert!(
            rows.start <= rows.end && rows.end <= self.rows,
            "row range {rows:?} of a matrix with {} rows",
            self.rows
        );
        let m = rows.len();
        assert!(
            m.checked_mul(other.cols) == Some(out.len()),
            "output of {} elements for {m} rows of {} columns",
            out.len(),
            other.cols
        );
        if self.cols == 0 {
            // An empty reduction: the kernel writes nothing.
            out.fill(0.0);
        }
        kernels::gemm_nn(
            m,
            self.cols,
            other.cols,
            &self.data[rows.start * self.cols..rows.end * self.cols],
            &other.data,
            out,
        );
        Ok(())
    }

    /// Matrix product `self * other` via the reference triple loop.
    ///
    /// Kept as the correctness oracle for the blocked kernel (equivalence
    /// tests and benchmark comparisons); not used on any hot path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul_naive(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps accesses to `other` contiguous.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self^T * other`.
    ///
    /// The smaller side — `self`, or `other` and the result — is transposed
    /// tile by tile into a reused per-thread buffer and the product runs on
    /// the blocked kernel, so the result is that of
    /// `self.transpose().matmul(other)`, bit for bit, without a transposed
    /// matrix being allocated.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.rows() == other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::default();
        self.matmul_tn_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_tn`] into a caller-provided matrix, which is
    /// reshaped and overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.rows() == other.rows()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        out.resize_zeroed(self.cols, other.cols);
        kernels::gemm_tn(
            self.cols,
            self.rows,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(())
    }

    /// Matrix product `self * other^T`; the result is that of
    /// `self.matmul(&other.transpose())`, bit for bit (see
    /// [`Matrix::matmul_tn`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::default();
        self.matmul_nt_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_nt`] into a caller-provided matrix, which is
    /// reshaped and overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.cols()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        out.resize_zeroed(self.rows, other.rows);
        kernels::gemm_nt(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(())
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Writes `f(self[i], other[i])` for every element into `out`, which is
    /// reshaped to this matrix's shape and reuses its buffer. `op` names the
    /// operation in the error.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_with_into<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Matrix,
        op: &'static str,
        out: &mut Matrix,
        f: F,
    ) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        out.data.clear();
        out.data
            .extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        out.rows = self.rows;
        out.cols = self.cols;
        Ok(())
    }

    /// Returns a copy with every element multiplied by `scale`.
    pub fn scale(&self, scale: f32) -> Matrix {
        self.map(|v| v * scale)
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale_assign(&mut self, scale: f32) {
        for v in &mut self.data {
            *v *= scale;
        }
    }

    /// Returns a copy with `f` applied to every element.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        let mut out = Matrix::default();
        self.map_into(&mut out, f);
        out
    }

    /// Writes `f` of every element into `out`, which is reshaped to this
    /// matrix's shape and reuses its buffer.
    pub fn map_into<F: Fn(f32) -> f32>(&self, out: &mut Matrix, f: F) {
        out.data.clear();
        out.data.extend(self.data.iter().map(|&v| f(v)));
        out.rows = self.rows;
        out.cols = self.cols;
    }

    /// Adds a 1×`cols` row vector to every row (broadcasting).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `bias` is 1×`self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Result<Matrix> {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias)?;
        Ok(out)
    }

    /// Adds a 1×`cols` row vector to every row in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `bias` is 1×`self.cols()`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) -> Result<()> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: bias.shape(),
            });
        }
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (v, &b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Sums over rows, producing a 1×`cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] into a caller-provided matrix, which is reshaped
    /// to 1×`cols` and overwritten; rows are added top to bottom.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize_zeroed(1, self.cols);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Means over rows, producing a 1×`cols` row vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyMatrix`] when the matrix has no rows.
    pub fn mean_rows(&self) -> Result<Matrix> {
        if self.rows == 0 {
            return Err(TensorError::EmptyMatrix { op: "mean_rows" });
        }
        let mut out = self.sum_rows();
        out.scale_assign(1.0 / self.rows as f32);
        Ok(out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Largest element; `f32::NEG_INFINITY` for an empty matrix.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element; `f32::INFINITY` for an empty matrix.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Returns `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Checks approximate equality within an absolute tolerance.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Centres each column to zero mean (used by the CKA computation).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyMatrix`] when the matrix has no rows.
    pub fn center_columns(&self) -> Result<Matrix> {
        let means = self.mean_rows()?;
        let mut out = self.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                out.data[r * out.cols + c] -= means.data[c];
            }
        }
        Ok(out)
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        let mut out = Matrix::default();
        self.zip_with_into(other, op, &mut out, f)?;
        Ok(out)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(2, 2);
        assert_eq!(z.sum(), 0.0);
        let f = Matrix::full(2, 2, 3.0);
        assert_eq!(f.sum(), 12.0);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimensions { .. }));
    }

    #[test]
    fn from_vec_rejects_a_shape_whose_element_count_overflows() {
        // 2³² · 2³² wraps to 0 in an unchecked release-build product, which
        // an empty buffer would then match.
        let err = Matrix::from_vec(1 << 32, 1 << 32, Vec::new()).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimensions { len: 0, .. }));
        let err = Matrix::from_vec(usize::MAX, 2, vec![0.0; 2]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimensions { .. }));
    }

    // A shape whose element count wraps to 0 in an unchecked release-build
    // product used to build a matrix of that shape on an empty buffer.
    #[test]
    #[should_panic(expected = "a 4294967296x4294967296 matrix has more elements")]
    fn zeros_panics_on_a_shape_whose_element_count_overflows() {
        let _ = Matrix::zeros(1 << 32, 1 << 32);
    }

    #[test]
    #[should_panic(expected = "a 4294967296x4294967296 matrix has more elements")]
    fn full_panics_on_a_shape_whose_element_count_overflows() {
        let _ = Matrix::full(1 << 32, 1 << 32, 1.0);
    }

    #[test]
    #[should_panic(expected = "a 4294967296x4294967296 matrix has more elements")]
    fn resize_zeroed_panics_on_a_shape_whose_element_count_overflows() {
        Matrix::default().resize_zeroed(1 << 32, 1 << 32);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, TensorError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        let err = Matrix::from_rows(&[]).unwrap_err();
        assert!(matches!(err, TensorError::EmptyMatrix { .. }));
    }

    #[test]
    fn row_and_column_vectors() {
        let r = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = sample();
        m.set(1, 2, 42.0);
        assert_eq!(m.get(1, 2), 42.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn into_operations_reshape_overwrite_and_reuse_the_destination() {
        let m = sample();
        let mut out = Matrix::full(4, 4, f32::NAN);
        let buffer = out.as_slice().as_ptr();

        m.map_into(&mut out, |v| v * 2.0);
        assert_eq!(out, m.scale(2.0));
        m.zip_with_into(&m, "add", &mut out, |a, b| a + b).unwrap();
        assert_eq!(out, m.add(&m).unwrap());
        assert!(m
            .zip_with_into(&Matrix::zeros(3, 2), "add", &mut out, |a, b| a + b)
            .is_err());
        m.sum_rows_into(&mut out);
        assert_eq!(out, m.sum_rows());
        assert_eq!(out.shape(), (1, 3));
        out.clone_from(&m);
        assert_eq!(out, m);
        out.add_row_broadcast_assign(&Matrix::row_vector(&[1.0, 0.0, -1.0]))
            .unwrap();
        assert_eq!(
            out,
            m.add_row_broadcast(&Matrix::row_vector(&[1.0, 0.0, -1.0]))
                .unwrap()
        );
        assert!(out.add_row_broadcast_assign(&Matrix::zeros(1, 2)).is_err());
        out.resize_zeroed(2, 5);
        assert_eq!(out, Matrix::zeros(2, 5));
        // Sixteen floats were enough for all of it: one buffer throughout.
        assert_eq!(out.as_slice().as_ptr(), buffer);

        out.resize_zeroed(5, 5);
        assert_eq!(out, Matrix::zeros(5, 5));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i = Matrix::identity(3);
        assert_eq!(m.matmul(&i).unwrap(), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn a_row_range_product_equals_those_rows_of_the_whole_product_bit_for_bit() {
        let mut r = crate::rng::rng_for(3, "matmul-rows");
        // Row counts around the register slab and a product that splits
        // across the pool (300·200·100 multiply-adds); widths no tile divides.
        for (m, k, n) in [(1, 1, 1), (9, 7, 5), (40, 33, 17), (300, 200, 100)] {
            let a = crate::init::normal(&mut r, m, k, 0.0, 1.0);
            let b = crate::init::normal(&mut r, k, n, 0.0, 1.0);
            let whole = a.matmul(&b).unwrap();
            for rows in [0..m, 0..1, m - 1..m, m / 3..m / 2, m..m] {
                let mut out = vec![f32::NAN; rows.len() * n];
                a.matmul_rows_into(rows.clone(), &b, &mut out).unwrap();
                let expected = &whole.as_slice()[rows.start * n..rows.end * n];
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(expected), "({m},{k},{n}) rows {rows:?}");
            }
        }
        // An empty reduction overwrites the output with zeros.
        let mut out = vec![f32::NAN; 6];
        Matrix::zeros(4, 0)
            .matmul_rows_into(1..3, &Matrix::zeros(0, 3), &mut out)
            .unwrap();
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn a_row_range_product_of_mismatched_shapes_is_the_matmul_error() {
        let (a, b) = (Matrix::zeros(4, 3), Matrix::zeros(2, 5));
        let err = a.matmul_rows_into(0..2, &b, &mut [0.0; 10]).unwrap_err();
        assert_eq!(err, a.matmul(&b).unwrap_err());
    }

    #[test]
    #[should_panic(expected = "row range 2..5 of a matrix with 4 rows")]
    fn a_row_range_past_the_last_row_panics() {
        let _ = Matrix::zeros(4, 3).matmul_rows_into(2..5, &Matrix::zeros(3, 2), &mut [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "output of 5 elements for 2 rows of 3 columns")]
    fn a_row_range_product_into_a_wrong_sized_output_panics() {
        let _ = Matrix::zeros(4, 2).matmul_rows_into(0..2, &Matrix::zeros(2, 3), &mut [0.0; 5]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_vec(2, 4, (0..8).map(|v| v as f32).collect()).unwrap();
        let expected = a.transpose().matmul(&b).unwrap();
        assert!(a.matmul_tn(&b).unwrap().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect()).unwrap();
        let expected = a.matmul(&b.transpose()).unwrap();
        assert!(a.matmul_nt(&b).unwrap().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn elementwise_ops() {
        let a = sample();
        let b = sample();
        assert_eq!(a.add(&b).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn broadcast_bias() {
        let m = sample();
        let bias = Matrix::row_vector(&[1.0, 1.0, 1.0]);
        let out = m.add_row_broadcast(&bias).unwrap();
        assert_eq!(out.get(0, 0), 2.0);
        assert_eq!(out.get(1, 2), 7.0);
    }

    #[test]
    fn broadcast_bias_rejects_bad_shape() {
        let m = sample();
        let bias = Matrix::row_vector(&[1.0, 1.0]);
        assert!(m.add_row_broadcast(&bias).is_err());
    }

    #[test]
    fn reductions() {
        let m = sample();
        assert_eq!(m.sum(), 21.0);
        assert!((m.mean() - 3.5).abs() < 1e-6);
        assert_eq!(m.max(), 6.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.sum_rows().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.mean_rows().unwrap().as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert_eq!(m.norm_sq(), 25.0);
        assert_eq!(m.norm(), 5.0);
    }

    #[test]
    fn select_rows_reorders() {
        let m = sample();
        let s = m.select_rows(&[1, 0, 1]);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(s.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn select_rows_into_matches_select_rows_and_reuses_buffer() {
        let m = sample();
        let mut buf = Matrix::default();
        m.select_rows_into(&[1, 0, 1], &mut buf);
        assert_eq!(buf, m.select_rows(&[1, 0, 1]));
        // A second, smaller gather reuses the buffer and fully overwrites it.
        m.select_rows_into(&[0], &mut buf);
        assert_eq!(buf, m.select_rows(&[0]));
        assert_eq!(buf.shape(), (1, 3));
        // An empty gather yields an empty 0×cols matrix.
        m.select_rows_into(&[], &mut buf);
        assert_eq!(buf.shape(), (0, 3));
        assert!(buf.is_empty());
    }

    #[test]
    fn center_columns_zero_mean() {
        let m = sample();
        let c = m.center_columns().unwrap();
        let means = c.mean_rows().unwrap();
        for &v in means.as_slice() {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn map_and_scale() {
        let m = sample();
        assert_eq!(m.map(|v| v * 2.0).sum(), 42.0);
        assert_eq!(m.scale(0.0).sum(), 0.0);
        let mut m2 = m.clone();
        m2.scale_assign(2.0);
        assert_eq!(m2.sum(), 42.0);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = sample();
        assert!(m.is_finite());
        m.set(0, 0, f32::NAN);
        assert!(!m.is_finite());
    }

    #[test]
    fn matrix_is_serializable_and_send() {
        fn assert_serialize<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_serialize::<Matrix>();
        assert_send_sync::<Matrix>();
    }
}
