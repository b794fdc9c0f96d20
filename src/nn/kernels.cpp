// Scalar (oracle) kernel implementations plus the runtime dispatch table.
//
// The scalar kernels are the retained reference: register-tiled loops that
// GCC autovectorizes for the baseline ISA (see src/nn/CMakeLists.txt for
// the pinned flags). The dispatcher probes the CPU once at static-init
// time and installs the AVX2 table when available; INSIGHTALIGN_KERNELS
// overrides the probe (scalar|avx2|auto), and force_isa() flips tables
// at runtime for tests and benchmarks.

#include "nn/kernels_impl.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vpr::nn::kern {

namespace scalar {

namespace {

// Tile sizes chosen for the model's working set (matrices up to ~72 wide):
// a full (tile_i x k) A-panel plus a (tile_j x k) slice of B stays in L1.
constexpr int kTileI = 32;
constexpr int kTileJ = 48;

// Below this row count the batched saxpy path's row grouping buys nothing
// (the incremental decode path is all m == 1 matvecs).
constexpr int kTransposeMinRows = 4;

// Register-tile width: one tile computes kTileCols accumulators per C row,
// held in registers across the whole p sweep (the fixed trip count plus
// -funroll-loops — see src/nn/CMakeLists.txt — is what lets GCC promote
// the acc arrays out of memory).
constexpr int kTileCols = 16;

// A (rows x kTileCols) register tile of C: acc[r][jj] accumulates
// a[i+r][p] * b[p][j0+jj] with p ascending, one accumulator per element —
// the same multiply/add sequence as the m == 1 strided dot, so results are
// bitwise identical; only the memory traffic changes (each loaded B row
// feeds `rows` C rows, and C is written once at the end instead of being
// reloaded every p).
template <int Rows>
void tile_rows(const double* a, const double* b, double* c, int i, int j0,
               int k, int n) {
  double acc[Rows][kTileCols];
  for (int r = 0; r < Rows; ++r) {
    for (int jj = 0; jj < kTileCols; ++jj) acc[r][jj] = 0.0;
  }
  const double* bp = b + j0;
  for (int p = 0; p < k; ++p, bp += n) {
    for (int r = 0; r < Rows; ++r) {
      const double av = a[static_cast<std::size_t>(i + r) * k + p];
      for (int jj = 0; jj < kTileCols; ++jj) acc[r][jj] += av * bp[jj];
    }
  }
  for (int r = 0; r < Rows; ++r) {
    double* crow = c + static_cast<std::size_t>(i + r) * n + j0;
    for (int jj = 0; jj < kTileCols; ++jj) crow[jj] = acc[r][jj];
  }
}

// Strided single-accumulator dots for columns [j0, n) of rows [0, m) —
// the reference element order, used for column counts below a full tile
// (notably the n == 1 recipe-head matmul, where it collapses to
// contiguous dots).
void dot_cols(const double* a, const double* b, double* c, int m, int k,
              int n, int j0) {
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

}  // namespace

void matmul(const double* a, const double* b, double* c, int m, int k,
            int n) {
  if (m <= 0 || k <= 0 || n <= 0) {
    std::fill(c, c + static_cast<std::size_t>(std::max(m, 0)) *
                        static_cast<std::size_t>(std::max(n, 0)),
              0.0);
    return;
  }
  if (m < kTransposeMinRows) {
    dot_cols(a, b, c, m, k, n, 0);
    return;
  }
  // Batched path: register-tiled accumulation, two C rows x kTileCols
  // columns per tile. Every C element still sums with a single accumulator
  // in ascending p order — identical multiply/add sequences to the m == 1
  // strided path — but the accumulators live in registers for the whole
  // p sweep and each loaded B row feeds both tile rows, so the fixed-width
  // inner loops vectorize with no C-row store/reload traffic. This is
  // where the cross-request batched decode gets its single-core speedup
  // over row-at-a-time decoding.
  int j0 = 0;
  for (; j0 + kTileCols <= n; j0 += kTileCols) {
    int i = 0;
    for (; i + 2 <= m; i += 2) tile_rows<2>(a, b, c, i, j0, k, n);
    for (; i < m; ++i) tile_rows<1>(a, b, c, i, j0, k, n);
  }
  if (j0 < n) dot_cols(a, b, c, m, k, n, j0);
}

void scatter_rows(const double* src, int rows, int dim, double* const* dst) {
  for (int i = 0; i < rows; ++i) {
    const double* row = src + static_cast<std::size_t>(i) * dim;
    std::copy_n(row, dim, dst[i]);
  }
}

void scatter_cols(const double* src, int rows, int dim, double* const* dst,
                  int ld) {
  for (int i = 0; i < rows; ++i) {
    const double* row = src + static_cast<std::size_t>(i) * dim;
    double* col = dst[i];
    for (int c = 0; c < dim; ++c) {
      col[static_cast<std::size_t>(c) * ld] = row[c];
    }
  }
}

void attn_scores(const double* q, const double* kt, int d, int len, int ld,
                 double scale, double* out) {
  // Reference element order: out[j] sums q[c] * kt[c][j] with c ascending
  // in a single accumulator, then scales — exactly kern::dot over the
  // row-major K row followed by the * scale the caller used to perform.
  for (int j = 0; j < len; ++j) {
    double acc = 0.0;
    for (int c = 0; c < d; ++c) {
      acc += q[c] * kt[static_cast<std::size_t>(c) * ld + j];
    }
    out[j] = acc * scale;
  }
}

void matmul_nt_acc(const double* a, const double* b, double* c, int m, int k,
                   int n) {
  for (int i0 = 0; i0 < m; i0 += kTileI) {
    const int i1 = std::min(m, i0 + kTileI);
    for (int j0 = 0; j0 < n; j0 += kTileJ) {
      const int j1 = std::min(n, j0 + kTileJ);
      for (int i = i0; i < i1; ++i) {
        const double* arow = a + static_cast<std::size_t>(i) * k;
        double* crow = c + static_cast<std::size_t>(i) * n;
        for (int j = j0; j < j1; ++j) {
          crow[j] += dot(arow, b + static_cast<std::size_t>(j) * k, k);
        }
      }
    }
  }
}

void matmul_tn_acc(const double* a, const double* b, double* c, int m, int k,
                   int n) {
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<std::size_t>(i) * k;
    const double* brow = b + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      double* crow = c + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace scalar

// ----- Runtime dispatch -----

namespace {

constexpr Kernels kScalarTable{
    scalar::matmul,       scalar::matmul_nt_acc, scalar::matmul_tn_acc,
    scalar::scatter_rows, scalar::scatter_cols,  scalar::attn_scores,
};

std::atomic<Isa> g_isa{Isa::kScalar};

bool cpu_has_avx2() {
#if defined(VPR_KERN_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// Install the table implied by g_isa.
void apply_dispatch() {
#if defined(VPR_KERN_HAVE_AVX2)
  if (g_isa.load(std::memory_order_relaxed) == Isa::kAvx2) {
    detail::active.store(&avx2::exact_table(), std::memory_order_relaxed);
    return;
  }
#endif
  detail::active.store(&kScalarTable, std::memory_order_relaxed);
}

/// One-time startup selection: INSIGHTALIGN_KERNELS env override, else
/// cpuid. Runs as a dynamic initializer of this TU; any kernel call that
/// beats it (static init in another TU) safely gets the scalar table the
/// atomics are statically initialized with.
struct DispatchInit {
  DispatchInit() {
    Isa isa = cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar;
    if (const char* env = std::getenv("INSIGHTALIGN_KERNELS")) {
      const std::string_view v{env};
      if (v == "scalar") {
        isa = Isa::kScalar;
      } else if (v == "avx2") {
        if (!cpu_has_avx2()) {
          std::fprintf(stderr,
                       "insightalign: INSIGHTALIGN_KERNELS=avx2 requested "
                       "but unsupported on this host/build; using scalar "
                       "kernels\n");
          isa = Isa::kScalar;
        } else {
          isa = Isa::kAvx2;
        }
      } else if (v != "auto" && !v.empty()) {
        std::fprintf(stderr,
                     "insightalign: unknown INSIGHTALIGN_KERNELS value "
                     "'%s' (want scalar|avx2|auto); using auto\n",
                     env);
      }
    }
    g_isa.store(isa, std::memory_order_relaxed);
    apply_dispatch();
  }
};
const DispatchInit g_dispatch_init;

}  // namespace

namespace detail {
// constinit so any pre-main kernel call observes a valid (scalar) table
// regardless of TU initialization order.
constinit std::atomic<const Kernels*> active{&kScalarTable};
}  // namespace detail

Isa active_isa() { return g_isa.load(std::memory_order_relaxed); }

bool avx2_supported() { return cpu_has_avx2(); }

bool force_isa(Isa isa) {
  if (isa == Isa::kAvx2 && !cpu_has_avx2()) return false;
  g_isa.store(isa, std::memory_order_relaxed);
  apply_dispatch();
  return true;
}

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

}  // namespace vpr::nn::kern
