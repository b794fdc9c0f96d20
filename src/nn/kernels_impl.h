#pragma once
// Internal linkage header between the kernel dispatch (kernels.cpp) and
// the ISA-specific translation units (kernels_avx2.cpp). Not part of the
// public nn API — include nn/kernels.h instead.
//
// The scalar implementations are the retained oracle: every exact SIMD
// kernel must be bitwise identical to them (tests/nn/kernels_dispatch
// pins this across a tile-remainder shape grid).

#include "nn/kernels.h"

namespace vpr::nn::kern::scalar {

void matmul(const double* a, const double* b, double* c, int m, int k, int n);
void matmul_nt_acc(const double* a, const double* b, double* c, int m, int k,
                   int n);
void matmul_tn_acc(const double* a, const double* b, double* c, int m, int k,
                   int n);
void scatter_rows(const double* src, int rows, int dim, double* const* dst);
void scatter_cols(const double* src, int rows, int dim, double* const* dst,
                  int ld);
void attn_scores(const double* q, const double* kt, int d, int len, int ld,
                 double scale, double* out);

}  // namespace vpr::nn::kern::scalar

#if defined(VPR_KERN_HAVE_AVX2)
namespace vpr::nn::kern::avx2 {

/// Exact-contract AVX2 table (bitwise identical to scalar for all shapes).
[[nodiscard]] const Kernels& exact_table();

}  // namespace vpr::nn::kern::avx2
#endif
