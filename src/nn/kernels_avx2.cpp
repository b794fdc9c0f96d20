// Explicit AVX2 kernel table. Compiled only on x86-64, with
// -mavx2 -ffp-contract=off (see src/nn/CMakeLists.txt).
//
// Exactness strategy: the exact kernels vectorize ACROSS output elements —
// broadcast the shared A operand, load B rows unit-stride, and combine with
// separate _mm256_mul_pd / _mm256_add_pd (never fmadd). Each SIMD lane then
// holds exactly one output element's single accumulator, advanced over the
// inner index in the same ascending order as the scalar oracle, so results
// are bitwise identical for every shape. -ffp-contract=off guards the
// scalar remainder loops in this TU: should FMA ever be enabled for it
// (say by a global -march=native), the compiler could otherwise contract
// `acc += a * b` into a fused multiply-add and change the rounding.

#include "nn/kernels_impl.h"

#if !defined(VPR_KERN_HAVE_AVX2)
#error "kernels_avx2.cpp compiled without VPR_KERN_HAVE_AVX2"
#endif
#if !defined(__AVX2__)
#error "kernels_avx2.cpp requires -mavx2"
#endif

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <vector>

namespace vpr::nn::kern::avx2 {

namespace {

// ----- exact matmul -----

// Accumulate `Rows` (<= 6) C rows x 8 columns starting at (i, j0). Two ymm
// accumulators per row; every lane is one C element's single accumulator
// over p ascending (mul then add, no FMA) — bitwise equal to the scalar
// oracle's per-element order. The 6x8 main tile keeps the whole working set
// (12 accumulators + 2 B vectors + 1 broadcast) in registers while
// amortizing each B load across six rows, which is what lets mul+add (two
// FP ops per element, no fusion allowed) saturate the FP ports.
template <int Rows>
inline void mm_tile8(const double* a, const double* b, double* c, int i,
                     int j0, int k, int n) {
  __m256d acc[Rows][2];
  for (int r = 0; r < Rows; ++r) {
    acc[r][0] = _mm256_setzero_pd();
    acc[r][1] = _mm256_setzero_pd();
  }
  const double* arow[Rows];
  for (int r = 0; r < Rows; ++r) {
    arow[r] = a + static_cast<std::size_t>(i + r) * k;
  }
  const double* bp = b + j0;
  for (int p = 0; p < k; ++p, bp += n) {
    const __m256d b0 = _mm256_loadu_pd(bp);
    const __m256d b1 = _mm256_loadu_pd(bp + 4);
    for (int r = 0; r < Rows; ++r) {
      const __m256d av = _mm256_set1_pd(arow[r][p]);
      acc[r][0] = _mm256_add_pd(acc[r][0], _mm256_mul_pd(av, b0));
      acc[r][1] = _mm256_add_pd(acc[r][1], _mm256_mul_pd(av, b1));
    }
  }
  for (int r = 0; r < Rows; ++r) {
    double* crow = c + static_cast<std::size_t>(i + r) * n + j0;
    _mm256_storeu_pd(crow, acc[r][0]);
    _mm256_storeu_pd(crow + 4, acc[r][1]);
  }
}

// Same contract for a 4-column remainder block.
template <int Rows>
inline void mm_tile4(const double* a, const double* b, double* c, int i,
                     int j0, int k, int n) {
  __m256d acc[Rows];
  for (int r = 0; r < Rows; ++r) acc[r] = _mm256_setzero_pd();
  const double* arow[Rows];
  for (int r = 0; r < Rows; ++r) {
    arow[r] = a + static_cast<std::size_t>(i + r) * k;
  }
  const double* bp = b + j0;
  for (int p = 0; p < k; ++p, bp += n) {
    const __m256d bv = _mm256_loadu_pd(bp);
    for (int r = 0; r < Rows; ++r) {
      const __m256d av = _mm256_set1_pd(arow[r][p]);
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(av, bv));
    }
  }
  for (int r = 0; r < Rows; ++r) {
    _mm256_storeu_pd(c + static_cast<std::size_t>(i + r) * n + j0, acc[r]);
  }
}

void matmul(const double* a, const double* b, double* c, int m, int k,
            int n) {
  if (m <= 0 || k <= 0 || n <= 0) {
    std::fill(c, c + static_cast<std::size_t>(std::max(m, 0)) *
                        static_cast<std::size_t>(std::max(n, 0)),
              0.0);
    return;
  }
  int j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    int i = 0;
    for (; i + 6 <= m; i += 6) mm_tile8<6>(a, b, c, i, j0, k, n);
    switch (m - i) {
      case 5: mm_tile8<5>(a, b, c, i, j0, k, n); break;
      case 4: mm_tile8<4>(a, b, c, i, j0, k, n); break;
      case 3: mm_tile8<3>(a, b, c, i, j0, k, n); break;
      case 2: mm_tile8<2>(a, b, c, i, j0, k, n); break;
      case 1: mm_tile8<1>(a, b, c, i, j0, k, n); break;
      default: break;
    }
  }
  for (; j0 + 4 <= n; j0 += 4) {
    int i = 0;
    for (; i + 6 <= m; i += 6) mm_tile4<6>(a, b, c, i, j0, k, n);
    switch (m - i) {
      case 5: mm_tile4<5>(a, b, c, i, j0, k, n); break;
      case 4: mm_tile4<4>(a, b, c, i, j0, k, n); break;
      case 3: mm_tile4<3>(a, b, c, i, j0, k, n); break;
      case 2: mm_tile4<2>(a, b, c, i, j0, k, n); break;
      case 1: mm_tile4<1>(a, b, c, i, j0, k, n); break;
      default: break;
    }
  }
  if (j0 < n) {
    // Scalar tail columns (< 4): single-accumulator strided dots. No FMA
    // contraction here — this TU builds with -ffp-contract=off.
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<std::size_t>(i) * k;
      double* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = j0; j < n; ++j) {
        double acc = 0.0;
        for (int p = 0; p < k; ++p) {
          acc += arow[p] * b[static_cast<std::size_t>(p) * n + j];
        }
        crow[j] = acc;
      }
    }
  }
}

// ----- exact matmul_nt_acc -----

// C += A * B^T as a plain product plus an add. The scalar oracle does
// crow[j] += dot(arow, brow_j), where dot starts from 0.0 and runs p
// ascending: the exact matmul over a transposed copy of B computes every
// such dot with the same single accumulator in the same order, so adding
// its result into C afterwards is bitwise identical. No reassociation.
void matmul_nt_acc(const double* a, const double* b, double* c, int m, int k,
                   int n) {
  if (m <= 0 || n <= 0) return;
  thread_local std::vector<double> bt;
  thread_local std::vector<double> prod;
  bt.resize(static_cast<std::size_t>(std::max(k, 0)) * n);
  prod.resize(static_cast<std::size_t>(m) * n);
  for (int j = 0; j < n; ++j) {
    const double* brow = b + static_cast<std::size_t>(j) * k;
    for (int p = 0; p < k; ++p) {
      bt[static_cast<std::size_t>(p) * n + j] = brow[p];
    }
  }
  matmul(a, bt.data(), prod.data(), m, k, n);
  const std::size_t total = prod.size();
  std::size_t i = 0;
  for (; i + 4 <= total; i += 4) {
    _mm256_storeu_pd(c + i, _mm256_add_pd(_mm256_loadu_pd(c + i),
                                          _mm256_loadu_pd(prod.data() + i)));
  }
  for (; i < total; ++i) c[i] += prod[i];
}

// ----- exact matmul_tn_acc -----

// C[p][j] += av * B[i][j] with i outer-ascending, p ascending, j vectorized:
// each C element sees the same mul-then-add sequence as the scalar kernel
// (one update per (i, p) visit, ascending), so this stays bitwise.
void matmul_tn_acc(const double* a, const double* b, double* c, int m, int k,
                   int n) {
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<std::size_t>(i) * k;
    const double* brow = b + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      double* crow = c + static_cast<std::size_t>(p) * n;
      const __m256d avv = _mm256_set1_pd(av);
      int j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_pd(
            crow + j, _mm256_add_pd(_mm256_loadu_pd(crow + j),
                                    _mm256_mul_pd(avv,
                                                  _mm256_loadu_pd(brow + j))));
        _mm256_storeu_pd(
            crow + j + 4,
            _mm256_add_pd(_mm256_loadu_pd(crow + j + 4),
                          _mm256_mul_pd(avv, _mm256_loadu_pd(brow + j + 4))));
      }
      for (; j + 4 <= n; j += 4) {
        _mm256_storeu_pd(
            crow + j, _mm256_add_pd(_mm256_loadu_pd(crow + j),
                                    _mm256_mul_pd(avv,
                                                  _mm256_loadu_pd(brow + j))));
      }
      for (; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// ----- exact attn_scores -----

// Lane j accumulates q[c] * kt[c][j] with c ascending (mul then add), then
// scales — same per-score order as the scalar sweep.
void attn_scores(const double* q, const double* kt, int d, int len, int ld,
                 double scale, double* out) {
  const __m256d sc = _mm256_set1_pd(scale);
  int j = 0;
  for (; j + 8 <= len; j += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    const double* col = kt + j;
    for (int c = 0; c < d; ++c, col += ld) {
      const __m256d qv = _mm256_set1_pd(q[c]);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(qv, _mm256_loadu_pd(col)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(qv, _mm256_loadu_pd(col + 4)));
    }
    _mm256_storeu_pd(out + j, _mm256_mul_pd(acc0, sc));
    _mm256_storeu_pd(out + j + 4, _mm256_mul_pd(acc1, sc));
  }
  for (; j + 4 <= len; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* col = kt + j;
    for (int c = 0; c < d; ++c, col += ld) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(q[c]),
                                             _mm256_loadu_pd(col)));
    }
    _mm256_storeu_pd(out + j, _mm256_mul_pd(acc, sc));
  }
  for (; j < len; ++j) {
    double acc = 0.0;
    for (int c = 0; c < d; ++c) {
      acc += q[c] * kt[static_cast<std::size_t>(c) * ld + j];
    }
    out[j] = acc * scale;
  }
}

// ----- exact scatter_rows -----

void scatter_rows(const double* src, int rows, int dim, double* const* dst) {
  for (int i = 0; i < rows; ++i) {
    const double* row = src + static_cast<std::size_t>(i) * dim;
    double* d = dst[i];
    int c = 0;
    for (; c + 4 <= dim; c += 4) {
      _mm256_storeu_pd(d + c, _mm256_loadu_pd(row + c));
    }
    for (; c < dim; ++c) d[c] = row[c];
  }
}

}  // namespace

const Kernels& exact_table() {
  // scatter_cols is a strided store fan-out with nothing to vectorize, so
  // the exact table keeps the scalar kernel.
  static constexpr Kernels t{
      matmul,       matmul_nt_acc,        matmul_tn_acc,
      scatter_rows, scalar::scatter_cols, attn_scores,
  };
  return t;
}

}  // namespace vpr::nn::kern::avx2
