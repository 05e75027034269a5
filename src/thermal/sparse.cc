#include "thermal/sparse.h"

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "thermal/simd.h"

namespace hydra::thermal {

void CsrMatrix::multiply_into(const double* x, double* y) const {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t p0 = row_ptr[r];
    y[r] = simd::gather_dot(values.data() + p0, col_idx.data() + p0,
                            row_ptr[r + 1] - p0, x);
  }
}

Matrix CsrMatrix::to_dense() const {
  Matrix m(rows, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      m(r, static_cast<std::size_t>(col_idx[p])) += values[p];
    }
  }
  return m;
}

namespace {

/// Greedy minimum-degree preorder of a symmetric sparsity pattern:
/// repeatedly eliminate the lowest-degree vertex (ties to the lowest
/// index, so the order is deterministic) and connect its surviving
/// neighbours into a clique — exactly the fill that elimination would
/// create. The RC graphs are a block stencil plus a package star; the
/// high-degree hub nodes (spreader/sink centres) naturally sort last,
/// which is what keeps fill near O(n). Factor-once cost; clarity over
/// the quotient-graph tricks of production AMD.
std::vector<std::int32_t> min_degree_order(const CsrMatrix& a) {
  const std::size_t n = a.rows;
  std::vector<std::set<std::int32_t>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const std::int32_t c = a.col_idx[p];
      if (static_cast<std::size_t>(c) != r) {
        adj[r].insert(c);
      }
    }
  }
  std::vector<bool> alive(n, true);
  std::vector<std::int32_t> perm;
  perm.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    std::size_t best_deg = static_cast<std::size_t>(-1);
    for (std::size_t v = 0; v < n; ++v) {
      if (alive[v] && adj[v].size() < best_deg) {
        best = v;
        best_deg = adj[v].size();
      }
    }
    perm.push_back(static_cast<std::int32_t>(best));
    alive[best] = false;
    for (const std::int32_t u : adj[best]) {
      adj[static_cast<std::size_t>(u)].erase(static_cast<std::int32_t>(best));
    }
    for (const std::int32_t u : adj[best]) {
      for (const std::int32_t w : adj[best]) {
        if (u < w) {
          adj[static_cast<std::size_t>(u)].insert(w);
          adj[static_cast<std::size_t>(w)].insert(u);
        }
      }
    }
    adj[best].clear();
  }
  return perm;
}

}  // namespace

SparseCholesky::SparseCholesky(const CsrMatrix& a) : n_(a.rows) {
  if (a.rows != a.cols) {
    throw std::invalid_argument("sparse Cholesky needs a square matrix");
  }
  const std::size_t n = n_;
  perm_ = min_degree_order(a);
  std::vector<std::int32_t> iperm(n);
  for (std::size_t k = 0; k < n; ++k) {
    iperm[static_cast<std::size_t>(perm_[k])] = static_cast<std::int32_t>(k);
  }

  // Permuted matrix App = P A P^T in CSR with sorted rows. Assembly-time
  // allocation only; the factor below is what the hot path reuses.
  std::vector<std::size_t> ap(n + 1, 0);
  std::vector<std::int32_t> ai(a.nnz());
  std::vector<double> ax(a.nnz());
  {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t o = static_cast<std::size_t>(perm_[k]);
      ap[k + 1] = ap[k] + (a.row_ptr[o + 1] - a.row_ptr[o]);
    }
    std::vector<std::size_t> fill(ap.begin(), ap.end() - 1);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t o = static_cast<std::size_t>(perm_[k]);
      for (std::size_t p = a.row_ptr[o]; p < a.row_ptr[o + 1]; ++p) {
        ai[fill[k]] = iperm[static_cast<std::size_t>(a.col_idx[p])];
        ax[fill[k]] = a.values[p];
        ++fill[k];
      }
      // Insertion sort by column; rows are short (stencil + star).
      for (std::size_t p = ap[k] + 1; p < ap[k + 1]; ++p) {
        const std::int32_t ci = ai[p];
        const double vi = ax[p];
        std::size_t q = p;
        while (q > ap[k] && ai[q - 1] > ci) {
          ai[q] = ai[q - 1];
          ax[q] = ax[q - 1];
          --q;
        }
        ai[q] = ci;
        ax[q] = vi;
      }
    }
  }

  // Symbolic pass (Davis's LDL): elimination tree + per-column counts
  // of L from the pattern of the lower triangle of App, row by row.
  std::vector<std::int32_t> parent(n, -1);
  std::vector<std::int32_t> flag(n);
  std::vector<std::size_t> lnz(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    parent[k] = -1;
    flag[k] = static_cast<std::int32_t>(k);
    for (std::size_t p = ap[k]; p < ap[k + 1]; ++p) {
      std::size_t i = static_cast<std::size_t>(ai[p]);
      if (i < k) {
        for (; flag[i] != static_cast<std::int32_t>(k);
             i = static_cast<std::size_t>(parent[i])) {
          if (parent[i] == -1) parent[i] = static_cast<std::int32_t>(k);
          ++lnz[i];
          flag[i] = static_cast<std::int32_t>(k);
        }
      }
    }
  }
  lcol_ptr_.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) lcol_ptr_[k + 1] = lcol_ptr_[k] + lnz[k];
  lcol_row_.resize(lcol_ptr_[n]);
  lcol_val_.resize(lcol_ptr_[n]);
  d_.resize(n);

  // Up-looking numeric factorisation: row k of L is the sparse
  // triangular solve L(0:k,0:k) y = App(k, 0:k), with the pattern read
  // off the elimination tree. Columns of L fill in ascending row order,
  // so lcol_* doubles as the row-compressed form of L^T.
  std::vector<double> y(n, 0.0);
  std::vector<std::int32_t> pattern(n);
  std::vector<std::size_t> lfill(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t top = n;
    flag[k] = static_cast<std::int32_t>(k);
    for (std::size_t p = ap[k]; p < ap[k + 1]; ++p) {
      std::size_t i = static_cast<std::size_t>(ai[p]);
      if (i <= k) {
        y[i] += ax[p];
        std::size_t len = 0;
        for (; flag[i] != static_cast<std::int32_t>(k);
             i = static_cast<std::size_t>(parent[i])) {
          pattern[len++] = static_cast<std::int32_t>(i);
          flag[i] = static_cast<std::int32_t>(k);
        }
        while (len > 0) pattern[--top] = pattern[--len];
      }
    }
    double dk = y[k];
    y[k] = 0.0;
    for (; top < n; ++top) {
      const std::size_t i = static_cast<std::size_t>(pattern[top]);
      const double yi = y[i];
      y[i] = 0.0;
      const std::size_t p2 = lcol_ptr_[i] + lfill[i];
      for (std::size_t p = lcol_ptr_[i]; p < p2; ++p) {
        y[static_cast<std::size_t>(lcol_row_[p])] -= lcol_val_[p] * yi;
      }
      const double l_ki = yi / d_[i];
      dk -= l_ki * yi;
      lcol_row_[p2] = static_cast<std::int32_t>(k);
      lcol_val_[p2] = l_ki;
      ++lfill[i];
    }
    if (!(dk > 0.0) || !std::isfinite(dk)) {
      throw std::runtime_error("sparse Cholesky: matrix is not positive "
                               "definite (pivot " + std::to_string(k) + ")");
    }
    d_[k] = dk;
  }

  // Row-compressed L for the forward solve: transpose of the
  // column-compressed factor. Walking columns in ascending order
  // appends each row's entries in ascending column order.
  lrow_ptr_.assign(n + 1, 0);
  for (const std::int32_t r : lcol_row_) {
    ++lrow_ptr_[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t r = 0; r < n; ++r) lrow_ptr_[r + 1] += lrow_ptr_[r];
  lrow_col_.resize(lcol_row_.size());
  lrow_val_.resize(lcol_row_.size());
  std::vector<std::size_t> fill(lrow_ptr_.begin(), lrow_ptr_.end() - 1);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = lcol_ptr_[j]; p < lcol_ptr_[j + 1]; ++p) {
      const std::size_t r = static_cast<std::size_t>(lcol_row_[p]);
      lrow_col_[fill[r]] = static_cast<std::int32_t>(j);
      lrow_val_[fill[r]] = lcol_val_[p];
      ++fill[r];
    }
  }
}

void SparseCholesky::solve_into(const double* b, double* x,
                                double* work) const {
  const std::size_t n = n_;
  // x = P^T (L^T \ (D^{-1} (L \ (P b)))), all in `work`.
  for (std::size_t i = 0; i < n; ++i) {
    work[i] = b[static_cast<std::size_t>(perm_[i])];
  }
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t p0 = lrow_ptr_[r];
    work[r] -= simd::gather_dot(lrow_val_.data() + p0, lrow_col_.data() + p0,
                                lrow_ptr_[r + 1] - p0, work);
  }
  for (std::size_t i = 0; i < n; ++i) work[i] /= d_[i];
  for (std::size_t r = n; r-- > 0;) {
    const std::size_t p0 = lcol_ptr_[r];
    work[r] -= simd::gather_dot(lcol_val_.data() + p0, lcol_row_.data() + p0,
                                lcol_ptr_[r + 1] - p0, work);
  }
  for (std::size_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(perm_[i])] = work[i];
  }
}

namespace {

std::atomic<SparseMode> g_mode{SparseMode::kAuto};

}  // namespace

SparseMode sparse_mode() { return g_mode.load(std::memory_order_relaxed); }

void set_sparse_mode_for_test(SparseMode m) {
  g_mode.store(m, std::memory_order_relaxed);
}

bool use_sparse_step(std::size_t nodes) {
  switch (sparse_mode()) {
    case SparseMode::kOff:
      return false;
    case SparseMode::kOn:
      return nodes > 0;
    case SparseMode::kAuto:
      return nodes >= kSparseCrossoverNodes;
  }
  return false;
}

}  // namespace hydra::thermal
