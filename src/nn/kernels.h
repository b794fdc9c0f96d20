#pragma once
// Dense row-major matrix kernels shared by the autograd tape (tensor.cpp)
// and the tape-free inference path (modules.cpp / recipe_model.cpp).
//
// Every exact kernel accumulates each output element with a single
// accumulator over the inner index in ascending order. That invariant is
// load-bearing: the tape forward (full matrices) and the KV-cached
// incremental decode (single rows) must produce bit-identical values, so
// the m == 1 fast case and the blocked m > 1 case are required to perform
// the same additions in the same order — only the memory access pattern
// differs.
//
// Kernels are dispatched at runtime through a function-pointer table
// selected once at startup (cpuid probe): a portable scalar table — the
// retained oracle — and, on x86-64 with AVX2, an explicit-SIMD table that
// vectorizes ACROSS output elements (broadcast A operand, unit-stride B
// rows, mul-then-add without FMA contraction). Because each output element
// keeps its own accumulator and the inner index still advances in scalar
// order, the AVX2 exact kernels are bitwise identical to the scalar ones
// for every shape. The backward dA = dC * B^T dots are no exception: the
// AVX2 matmul_nt_acc transposes B into scratch, runs the exact matmul and
// adds the product into C, which is the scalar order without reassociation.
//
// Selection order: INSIGHTALIGN_KERNELS=scalar|avx2|auto (env), then
// cpuid. force_isa() overrides at runtime (tests, benches).

#include <atomic>
#include <cstddef>

namespace vpr::nn::kern {

enum class Isa { kScalar = 0, kAvx2 = 1 };

/// Function-pointer table for one ISA.
struct Kernels {
  void (*matmul)(const double* a, const double* b, double* c, int m, int k,
                 int n);
  void (*matmul_nt_acc)(const double* a, const double* b, double* c, int m,
                        int k, int n);
  void (*matmul_tn_acc)(const double* a, const double* b, double* c, int m,
                        int k, int n);
  void (*scatter_rows)(const double* src, int rows, int dim,
                       double* const* dst);
  void (*scatter_cols)(const double* src, int rows, int dim,
                       double* const* dst, int ld);
  void (*attn_scores)(const double* q, const double* kt, int d, int len,
                      int ld, double scale, double* out);
};

namespace detail {
/// Active table (isa-selected; always exact-contract kernels).
extern std::atomic<const Kernels*> active;
}  // namespace detail

/// C(m x n) = A(m x k) * B(k x n). Overwrites C. Each output element is a
/// single accumulator over p ascending; the batched decode step leans on
/// the m > 1 path (stacked lanes -> full-width SIMD over B rows) without
/// changing any element's summation order.
inline void matmul(const double* a, const double* b, double* c, int m, int k,
                   int n) {
  detail::active.load(std::memory_order_relaxed)->matmul(a, b, c, m, k, n);
}

/// Scatter `rows` contiguous (dim)-rows of `src` to per-row destinations:
/// dst[i] receives src row i. Used by the batched decode step to fan a
/// stacked V projection back out into per-lane cache slots.
inline void scatter_rows(const double* src, int rows, int dim,
                         double* const* dst) {
  detail::active.load(std::memory_order_relaxed)
      ->scatter_rows(src, rows, dim, dst);
}

/// Scatter `rows` contiguous (dim)-rows of `src` into per-row destination
/// COLUMNS: element (i, c) lands at dst[i][c * ld]. Used by the batched
/// decode step to append each lane's fresh K row as column `pos` of its
/// feature-major (SoA) K cache.
inline void scatter_cols(const double* src, int rows, int dim,
                         double* const* dst, int ld) {
  detail::active.load(std::memory_order_relaxed)
      ->scatter_cols(src, rows, dim, dst, ld);
}

/// Attention score sweep over a feature-major (transposed, SoA) key cache:
/// out[j] = (sum_c q[c] * kt[c * ld + j]) * scale for j in [0, len).
/// Each score is a single accumulator over c ascending — the same
/// summation order as kern::dot over a row-major K row — but the SoA
/// layout makes the sweep unit-stride across j, so the SIMD path stays
/// bitwise identical while vectorizing the hot loop.
inline void attn_scores(const double* q, const double* kt, int d, int len,
                        int ld, double scale, double* out) {
  detail::active.load(std::memory_order_relaxed)
      ->attn_scores(q, kt, d, len, ld, scale, out);
}

/// C(m x n) += A(m x k) * B^T, with B stored row-major as (n x k):
/// C[i][j] += sum_p A[i][p] * B[j][p]. This is the naturally "transposed"
/// product (both operands walk rows) used for dA = dC * B^T in backward.
inline void matmul_nt_acc(const double* a, const double* b, double* c, int m,
                          int k, int n) {
  detail::active.load(std::memory_order_relaxed)
      ->matmul_nt_acc(a, b, c, m, k, n);
}

/// C(k x n) += A^T * B, with A stored row-major as (m x k) and B as (m x n):
/// C[p][j] += sum_i A[i][p] * B[i][j]. Used for dB = A^T * dC in backward;
/// skips zero A entries (sparse activations after ReLU / one-hot gathers).
inline void matmul_tn_acc(const double* a, const double* b, double* c, int m,
                          int k, int n) {
  detail::active.load(std::memory_order_relaxed)
      ->matmul_tn_acc(a, b, c, m, k, n);
}

/// Ascending-index single-accumulator dot product — the reference
/// summation order every exact kernel preserves per output element. A lone
/// dot is a reduction over the inner index, so it cannot vectorize without
/// reassociation; batched callers (the attention score loop) go through
/// the dispatched attn_scores sweep instead.
[[nodiscard]] inline double dot(const double* a, const double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// ISA currently installed for the exact kernel family.
[[nodiscard]] Isa active_isa();
/// True when the CPU (and this build) can run the AVX2 kernel table.
[[nodiscard]] bool avx2_supported();
/// Install the kernel table for `isa`. Returns false (and leaves the
/// dispatch unchanged) when the ISA is unsupported on this host/build.
bool force_isa(Isa isa);
[[nodiscard]] const char* isa_name(Isa isa);

}  // namespace vpr::nn::kern
