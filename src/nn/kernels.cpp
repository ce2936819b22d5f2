#include "nn/kernels.hpp"

#include <algorithm>
#include <cstring>

// This translation unit is compiled with -ffp-contract=off (see
// src/nn/CMakeLists.txt): a contracted fma(a, b, acc) rounds once where
// mul-then-add rounds twice, so allowing the compiler to contract some loop
// bodies but not others (vector body vs scalar tail, naive vs blocked)
// would silently break the bit-identity contract documented in kernels.hpp.
// The forward kernel's fused path below is the one deliberate exception:
// it applies FMA *explicitly and uniformly* (every k-term of every element,
// vector body and scalar tail alike), which keeps the partition-invariance
// contract while halving the rounding steps — see kernels.hpp.

#if defined(__FMA__) && defined(__AVX2__)
#define MP_NN_HAVE_FMA 1
#include <immintrin.h>
#endif

namespace mp::nn {

// ----------------------------------------------------------- references ---

void gemm_acc_naive(const float* a, const float* b, float* out, int m, int k,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* orow = out + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void gemm_at_acc_naive(const float* a, const float* b, float* out, int m,
                       int k, int n) {
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::size_t>(kk) * m;
    const float* brow = b + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* orow = out + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void gemm_bt_acc_naive(const float* a, const float* b, float* out, int m,
                       int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* orow = out + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float sum = 0.0f;
      for (int kk = 0; kk < k; ++kk) sum += arow[kk] * brow[kk];
      orow[j] += sum;
    }
  }
}

// -------------------------------------------------------------- blocked ---

#if defined(__GNUC__) || defined(__clang__)
#define MP_NN_HAVE_VEC 1

// Without AVX enabled (e.g. sanitizer builds, which drop -march=native) a
// 32-byte vector parameter is passed through memory, and gcc notes that
// this ABI differs from an AVX build (-Wpsabi).  Every v8f function here is
// internal to this translation unit (anonymous namespace, inlined), so no
// ABI boundary is ever crossed — the note does not apply.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace {

typedef float v8f __attribute__((vector_size(32)));

inline v8f v8_load(const float* p) {
  v8f v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void v8_store(float* p, v8f v) { std::memcpy(p, &v, sizeof(v)); }

inline v8f v8_splat(float x) { return v8f{x, x, x, x, x, x, x, x}; }

// The register-blocked micro tile: 4 A-rows x 16 output columns.  Eight
// 8-lane accumulators stay in registers across the whole K sweep, so the
// inner loop does 2 B loads + 4 A loads for 8 vector mul-adds, where the
// naive ikj nest re-loads and re-stores the output row for every k.
// The forward kernel widens this to 6 x 16 (12 accumulators + 2 B vectors
// + 1 splat = 15 of 16 ymm): with two FMA ports at 4-5 cycle latency, 8
// accumulators re-use each register every ~4 cycles and stall; 12 give the
// scheduler ~6 cycles of slack per register and keep both ports fed.
constexpr int kMr = 4;
constexpr int kMrFwd = 6;
constexpr int kNr = 16;

// acc + a*b for the *forward* kernel (gemm_acc) only.  With FMA hardware
// available the term is fused — one rounding instead of two — applied to
// every k-term of every output element, so any partition of the work
// (batched vs single-sample, vector body vs scalar tail) still computes
// identical bits.  The backward kernels keep the plain two-rounding form.
inline v8f v8_muladd(v8f acc, v8f s, v8f b) {
#ifdef MP_NN_HAVE_FMA
  return _mm256_fmadd_ps(s, b, acc);
#else
  return acc + s * b;
#endif
}

inline float s_muladd(float acc, float a, float b) {
#ifdef MP_NN_HAVE_FMA
  return __builtin_fmaf(a, b, acc);
#else
  return acc + a * b;
#endif
}

// The naive kernel skips a[i][k] == 0 terms, and the no-FMA forward kernel
// copies that to stay bit-identical to it.  The FMA forward kernel already
// rounds differently from naive, so it drops the skip instead — uniformly,
// for every element and every k, which keeps partition invariance — because
// six compare-and-branch pairs per k-step make the micro kernel front-end
// bound, and in the forward GEMM the A operand is the weight matrix (the
// im2col padding zeros sit in B), so the skip almost never fires anyway.
#ifdef MP_NN_HAVE_FMA
constexpr bool kFwdSkipZeros = false;
#else
constexpr bool kFwdSkipZeros = true;
#endif

}  // namespace
#endif  // vector extensions

void gemm_acc(const float* a, const float* b, float* out, int m, int k,
              int n) {
#ifdef MP_NN_HAVE_VEC
  const int n_vec = n - n % kNr;
  for (int j0 = 0; j0 < n_vec; j0 += kNr) {
    int i0 = 0;
    for (; i0 + kMrFwd <= m; i0 += kMrFwd) {
      const float* a0 = a + static_cast<std::size_t>(i0 + 0) * k;
      const float* a1 = a + static_cast<std::size_t>(i0 + 1) * k;
      const float* a2 = a + static_cast<std::size_t>(i0 + 2) * k;
      const float* a3 = a + static_cast<std::size_t>(i0 + 3) * k;
      const float* a4 = a + static_cast<std::size_t>(i0 + 4) * k;
      const float* a5 = a + static_cast<std::size_t>(i0 + 5) * k;
      float* o0 = out + static_cast<std::size_t>(i0 + 0) * n + j0;
      float* o1 = out + static_cast<std::size_t>(i0 + 1) * n + j0;
      float* o2 = out + static_cast<std::size_t>(i0 + 2) * n + j0;
      float* o3 = out + static_cast<std::size_t>(i0 + 3) * n + j0;
      float* o4 = out + static_cast<std::size_t>(i0 + 4) * n + j0;
      float* o5 = out + static_cast<std::size_t>(i0 + 5) * n + j0;
      v8f c00 = v8_load(o0), c01 = v8_load(o0 + 8);
      v8f c10 = v8_load(o1), c11 = v8_load(o1 + 8);
      v8f c20 = v8_load(o2), c21 = v8_load(o2 + 8);
      v8f c30 = v8_load(o3), c31 = v8_load(o3 + 8);
      v8f c40 = v8_load(o4), c41 = v8_load(o4 + 8);
      v8f c50 = v8_load(o5), c51 = v8_load(o5 + 8);
      for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const v8f b0 = v8_load(brow);
        const v8f b1 = v8_load(brow + 8);
        float av;
        // Per-(row, k) zero skip on no-FMA builds, exactly as in the naive
        // kernel: the skip decides whether this k contributes to the row at
        // all, so keeping it keeps the FP op sequence of every output
        // element unchanged.  FMA builds drop it (see kFwdSkipZeros).
        av = a0[kk];
        if (!kFwdSkipZeros || av != 0.0f) {
          const v8f s = v8_splat(av);
          c00 = v8_muladd(c00, s, b0);
          c01 = v8_muladd(c01, s, b1);
        }
        av = a1[kk];
        if (!kFwdSkipZeros || av != 0.0f) {
          const v8f s = v8_splat(av);
          c10 = v8_muladd(c10, s, b0);
          c11 = v8_muladd(c11, s, b1);
        }
        av = a2[kk];
        if (!kFwdSkipZeros || av != 0.0f) {
          const v8f s = v8_splat(av);
          c20 = v8_muladd(c20, s, b0);
          c21 = v8_muladd(c21, s, b1);
        }
        av = a3[kk];
        if (!kFwdSkipZeros || av != 0.0f) {
          const v8f s = v8_splat(av);
          c30 = v8_muladd(c30, s, b0);
          c31 = v8_muladd(c31, s, b1);
        }
        av = a4[kk];
        if (!kFwdSkipZeros || av != 0.0f) {
          const v8f s = v8_splat(av);
          c40 = v8_muladd(c40, s, b0);
          c41 = v8_muladd(c41, s, b1);
        }
        av = a5[kk];
        if (!kFwdSkipZeros || av != 0.0f) {
          const v8f s = v8_splat(av);
          c50 = v8_muladd(c50, s, b0);
          c51 = v8_muladd(c51, s, b1);
        }
      }
      v8_store(o0, c00), v8_store(o0 + 8, c01);
      v8_store(o1, c10), v8_store(o1 + 8, c11);
      v8_store(o2, c20), v8_store(o2 + 8, c21);
      v8_store(o3, c30), v8_store(o3 + 8, c31);
      v8_store(o4, c40), v8_store(o4 + 8, c41);
      v8_store(o5, c50), v8_store(o5 + 8, c51);
    }
    for (; i0 + 2 <= m; i0 += 2) {  // 2-row tail: four accumulator chains.
      const float* a0 = a + static_cast<std::size_t>(i0 + 0) * k;
      const float* a1 = a + static_cast<std::size_t>(i0 + 1) * k;
      float* o0 = out + static_cast<std::size_t>(i0 + 0) * n + j0;
      float* o1 = out + static_cast<std::size_t>(i0 + 1) * n + j0;
      v8f c00 = v8_load(o0), c01 = v8_load(o0 + 8);
      v8f c10 = v8_load(o1), c11 = v8_load(o1 + 8);
      for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const v8f b0 = v8_load(brow);
        const v8f b1 = v8_load(brow + 8);
        float av;
        av = a0[kk];
        if (!kFwdSkipZeros || av != 0.0f) {
          const v8f s = v8_splat(av);
          c00 = v8_muladd(c00, s, b0);
          c01 = v8_muladd(c01, s, b1);
        }
        av = a1[kk];
        if (!kFwdSkipZeros || av != 0.0f) {
          const v8f s = v8_splat(av);
          c10 = v8_muladd(c10, s, b0);
          c11 = v8_muladd(c11, s, b1);
        }
      }
      v8_store(o0, c00), v8_store(o0 + 8, c01);
      v8_store(o1, c10), v8_store(o1 + 8, c11);
    }
    for (; i0 < m; ++i0) {  // A-row tail: single-row micro kernel.
      const float* arow = a + static_cast<std::size_t>(i0) * k;
      float* orow = out + static_cast<std::size_t>(i0) * n + j0;
      v8f c0 = v8_load(orow), c1 = v8_load(orow + 8);
      for (int kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (kFwdSkipZeros && av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const v8f s = v8_splat(av);
        c0 = v8_muladd(c0, s, v8_load(brow));
        c1 = v8_muladd(c1, s, v8_load(brow + 8));
      }
      v8_store(orow, c0), v8_store(orow + 8, c1);
    }
  }
  if (n_vec < n) {  // column tail: the naive nest over the last n % 16 cols.
    for (int i = 0; i < m; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * k;
      float* orow = out + static_cast<std::size_t>(i) * n;
      for (int kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (kFwdSkipZeros && av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(kk) * n;
        for (int j = n_vec; j < n; ++j) {
          orow[j] = s_muladd(orow[j], av, brow[j]);
        }
      }
    }
  }
#else
  gemm_acc_naive(a, b, out, m, k, n);
#endif
}

void gemm_at_acc(const float* a, const float* b, float* out, int m, int k,
                 int n) {
#ifdef MP_NN_HAVE_VEC
  const int n_vec = n - n % kNr;
  for (int j0 = 0; j0 < n_vec; j0 += kNr) {
    int i0 = 0;
    for (; i0 + kMr <= m; i0 += kMr) {
      float* o0 = out + static_cast<std::size_t>(i0 + 0) * n + j0;
      float* o1 = out + static_cast<std::size_t>(i0 + 1) * n + j0;
      float* o2 = out + static_cast<std::size_t>(i0 + 2) * n + j0;
      float* o3 = out + static_cast<std::size_t>(i0 + 3) * n + j0;
      v8f c00 = v8_load(o0), c01 = v8_load(o0 + 8);
      v8f c10 = v8_load(o1), c11 = v8_load(o1 + 8);
      v8f c20 = v8_load(o2), c21 = v8_load(o2 + 8);
      v8f c30 = v8_load(o3), c31 = v8_load(o3 + 8);
      for (int kk = 0; kk < k; ++kk) {
        const float* acol = a + static_cast<std::size_t>(kk) * m + i0;
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const v8f b0 = v8_load(brow);
        const v8f b1 = v8_load(brow + 8);
        float av;
        av = acol[0];
        if (av != 0.0f) {
          const v8f s = v8_splat(av);
          c00 += s * b0;
          c01 += s * b1;
        }
        av = acol[1];
        if (av != 0.0f) {
          const v8f s = v8_splat(av);
          c10 += s * b0;
          c11 += s * b1;
        }
        av = acol[2];
        if (av != 0.0f) {
          const v8f s = v8_splat(av);
          c20 += s * b0;
          c21 += s * b1;
        }
        av = acol[3];
        if (av != 0.0f) {
          const v8f s = v8_splat(av);
          c30 += s * b0;
          c31 += s * b1;
        }
      }
      v8_store(o0, c00), v8_store(o0 + 8, c01);
      v8_store(o1, c10), v8_store(o1 + 8, c11);
      v8_store(o2, c20), v8_store(o2 + 8, c21);
      v8_store(o3, c30), v8_store(o3 + 8, c31);
    }
    for (; i0 < m; ++i0) {
      float* orow = out + static_cast<std::size_t>(i0) * n + j0;
      v8f c0 = v8_load(orow), c1 = v8_load(orow + 8);
      for (int kk = 0; kk < k; ++kk) {
        const float av = a[static_cast<std::size_t>(kk) * m + i0];
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const v8f s = v8_splat(av);
        c0 += s * v8_load(brow);
        c1 += s * v8_load(brow + 8);
      }
      v8_store(orow, c0), v8_store(orow + 8, c1);
    }
  }
  if (n_vec < n) {
    for (int kk = 0; kk < k; ++kk) {
      const float* arow = a + static_cast<std::size_t>(kk) * m;
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int i = 0; i < m; ++i) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        float* orow = out + static_cast<std::size_t>(i) * n;
        for (int j = n_vec; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  }
#else
  gemm_at_acc_naive(a, b, out, m, k, n);
#endif
}

void gemm_bt_acc(const float* a, const float* b, float* out, int m, int k,
                 int n) {
  // Dot-product shaped: vector lanes over k would need a horizontal
  // reduction and change the summation order, so this one blocks over A
  // rows instead — four independent scalar accumulator chains hide the
  // add latency the naive single-chain dot product is bound by, and each
  // chain still sums its k terms in ascending order.
  int i0 = 0;
  for (; i0 + 4 <= m; i0 += 4) {
    const float* a0 = a + static_cast<std::size_t>(i0 + 0) * k;
    const float* a1 = a + static_cast<std::size_t>(i0 + 1) * k;
    const float* a2 = a + static_cast<std::size_t>(i0 + 2) * k;
    const float* a3 = a + static_cast<std::size_t>(i0 + 3) * k;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        const float bv = brow[kk];
        s0 += a0[kk] * bv;
        s1 += a1[kk] * bv;
        s2 += a2[kk] * bv;
        s3 += a3[kk] * bv;
      }
      out[static_cast<std::size_t>(i0 + 0) * n + j] += s0;
      out[static_cast<std::size_t>(i0 + 1) * n + j] += s1;
      out[static_cast<std::size_t>(i0 + 2) * n + j] += s2;
      out[static_cast<std::size_t>(i0 + 3) * n + j] += s3;
    }
  }
  for (; i0 < m; ++i0) {
    const float* arow = a + static_cast<std::size_t>(i0) * k;
    float* orow = out + static_cast<std::size_t>(i0) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float sum = 0.0f;
      for (int kk = 0; kk < k; ++kk) sum += arow[kk] * brow[kk];
      orow[j] += sum;
    }
  }
}

// --------------------------------------------------------------- im2col ---

void im2col(const float* input, int in_c, int h, int w, int k, float* col) {
  const int pad = k / 2;
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  for (int c = 0; c < in_c; ++c) {
    const float* plane = input + static_cast<std::size_t>(c) * hw;
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx) {
        const int row = (c * k + ky) * k + kx;
        float* dst = col + static_cast<std::size_t>(row) * hw;
        for (int y = 0; y < h; ++y) {
          const int sy = y + ky - pad;
          float* drow = dst + static_cast<std::size_t>(y) * w;
          if (sy < 0 || sy >= h) {
            std::memset(drow, 0, sizeof(float) * static_cast<std::size_t>(w));
            continue;
          }
          const float* srow = plane + static_cast<std::size_t>(sy) * w;
          // dst[x] = src[x + kx - pad] where in range, else 0: zero the pad
          // fringes and memcpy the interior span.
          const int shift = kx - pad;
          const int x_lo = std::min(w, std::max(0, -shift));
          const int x_hi = std::max(x_lo, std::min(w, w - shift));
          for (int x = 0; x < x_lo; ++x) drow[x] = 0.0f;
          if (x_hi > x_lo) {
            std::memcpy(drow + x_lo, srow + x_lo + shift,
                        sizeof(float) * static_cast<std::size_t>(x_hi - x_lo));
          }
          for (int x = x_hi; x < w; ++x) drow[x] = 0.0f;
        }
      }
    }
  }
}

}  // namespace mp::nn
