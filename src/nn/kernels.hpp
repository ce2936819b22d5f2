#pragma once
// Dense float kernels behind the nn/ layers: GEMM variants and im2col.
//
// Two implementations of each GEMM live here: a `*_naive` reference (the
// loop nests the layers shipped with originally — kept as the bench/test
// baseline) and the default blocked + vectorized version used by the
// layers.  The blocked kernels tile the output into register blocks and
// stream SIMD lanes across the N dimension, but every output element still
// accumulates its K products in strictly ascending k order — blocking only
// reorders work *across* elements, never within one.  Compiler contraction
// is pinned off on this translation unit (-ffp-contract=off, see
// src/nn/CMakeLists.txt) so no code path can round differently from
// another behind our back.
//
// The contract that everything downstream relies on is PARTITION
// INVARIANCE: an output element computes identical bits no matter how the
// work around it is tiled or vectorized (SIMD body vs scalar tail), so a
// column's value does not depend on N or on which columns sit beside it.
// Kernels.* in tests/test_nn.cpp checks it — docs/PARALLELISM.md "Kernel
// determinism".
//
// On FMA hardware (__FMA__ && __AVX2__, e.g. MP_NATIVE_ARCH on a modern
// x86 host) the forward kernel `gemm_acc` applies *explicit* fused
// multiply-adds — uniformly, to every k-term of every element, in the
// vector body and the scalar tail alike — so partition invariance is
// unchanged while each term rounds once instead of twice (~2x the
// arithmetic throughput; the whole point of the SIMD rewrite).  Absolute
// values therefore differ between FMA and no-FMA *builds* (both are valid
// single-rounding resp. double-rounding IEEE results); within one build
// every determinism property holds.  The backward kernels (gemm_at_acc,
// gemm_bt_acc) and every no-FMA build keep the plain mul-then-add form,
// bit-identical to the naive references.
//
// Vector width follows whatever MP_NATIVE_ARCH gives the compiler: the
// kernels use GCC/Clang vector extensions (8-float lanes, lowered to AVX
// when available and to pairs of SSE ops otherwise) with a scalar fallback
// for other compilers.

namespace mp::nn {

/// out[M x N] += A[M x K] * B[K x N], all row-major.  Skips a[i][k] == 0
/// rows exactly like the naive kernel (im2col columns contain exact zeros
/// from padding, so the skip set — and therefore the FP op sequence — is
/// identical).  Fuses each multiply-add on FMA hardware (see file header:
/// partition-invariant either way; bit-identical to gemm_acc_naive only on
/// no-FMA builds).
void gemm_acc(const float* a, const float* b, float* out, int m, int k,
              int n);

/// out[M x N] += A^T[M x K] * B[K x N] where A is stored [K x M].
void gemm_at_acc(const float* a, const float* b, float* out, int m, int k,
                 int n);

/// out[M x N] += A[M x K] * B^T[K x N] where B is stored [N x K].  Each
/// element is a local dot product added to out once (the naive kernel's
/// semantics, preserved bit-for-bit).
void gemm_bt_acc(const float* a, const float* b, float* out, int m, int k,
                 int n);

/// Reference loop nests (pre-blocking implementations).  The blocked
/// kernels above compute the same sums in the same per-element order
/// (bit-identical on no-FMA builds; single-rounding on FMA builds);
/// bench_micro_kernels times the two side by side so the speedup stays
/// visible in results/BENCH_micro_kernels.json.
void gemm_acc_naive(const float* a, const float* b, float* out, int m, int k,
                    int n);
void gemm_at_acc_naive(const float* a, const float* b, float* out, int m,
                       int k, int n);
void gemm_bt_acc_naive(const float* a, const float* b, float* out, int m,
                       int k, int n);

/// im2col for a single [C, H, W] sample with a square kernel, stride 1 and
/// "same" zero padding: writes the [C*k*k, H*W] column matrix of `input`
/// into `col`.
void im2col(const float* input, int in_c, int h, int w, int k, float* col);

}  // namespace mp::nn
