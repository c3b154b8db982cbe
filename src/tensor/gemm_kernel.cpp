#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PDNN_GEMM_X86 1
#endif

namespace pdnn::tensor {
namespace {

constexpr std::size_t MR = GemmBlocking::MR;
constexpr std::size_t NR = GemmBlocking::NR;
constexpr std::size_t MC = GemmBlocking::MC;
constexpr std::size_t KC = GemmBlocking::KC;
constexpr std::size_t NC = GemmBlocking::NC;

// ---------------------------------------------------------------------------
// Packing. Panels are zero-padded to full MR rows / NR columns so the
// micro-kernel never branches on ragged edges: padded lanes multiply zeros and
// land in accumulator slots that are simply not stored back.
// ---------------------------------------------------------------------------

void pack_a(const float* a, std::size_t lda, std::size_t mc, std::size_t kc, float* ap) {
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t mr = std::min(MR, mc - ir);
    float* dst = ap + (ir / MR) * (kc * MR);
    for (std::size_t kk = 0; kk < kc; ++kk)
      for (std::size_t ii = 0; ii < MR; ++ii)
        dst[kk * MR + ii] = ii < mr ? a[(ir + ii) * lda + kk] : 0.0f;
  }
}

void pack_b(const float* b, std::size_t ldb, std::size_t kc, std::size_t nc, float* bp) {
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    float* dst = bp + (jr / NR) * (kc * NR);
    for (std::size_t kk = 0; kk < kc; ++kk)
      for (std::size_t jj = 0; jj < NR; ++jj)
        dst[kk * NR + jj] = jj < nr ? b[kk * ldb + jr + jj] : 0.0f;
  }
}

// ---------------------------------------------------------------------------
// Micro-kernels: C[8,8] += Apanel * Bpanel over one KC slice. Accumulators are
// loaded from C first and each product is added individually (no FMA, no
// reassociation), so per-element rounding matches the naive i-k-j loop.
// ---------------------------------------------------------------------------

void micro_8x8_scalar(std::size_t kc, const float* ap, const float* bp, float* c,
                      std::size_t ldc) {
  for (std::size_t i = 0; i < MR; ++i) {
    float acc[NR];
    for (std::size_t j = 0; j < NR; ++j) acc[j] = c[i * ldc + j];
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float aik = ap[kk * MR + i];
      const float* b = bp + kk * NR;
      for (std::size_t j = 0; j < NR; ++j) acc[j] += aik * b[j];
    }
    for (std::size_t j = 0; j < NR; ++j) c[i * ldc + j] = acc[j];
  }
}

#ifdef PDNN_GEMM_X86
// The target attribute lets this translation unit stay buildable with baseline
// x86-64 flags; gemm_kernel_vectorized() gates the call at runtime. The
// 64-byte alignment pins the kernel's loop placement: without it, unrelated
// code growing elsewhere in the binary moved it by 32 bytes and cost FP32
// training ~7 % (perfbench samples_per_s on a 4-vCPU AVX2 Xeon).
__attribute__((target("avx2"), aligned(64))) void micro_8x8_avx2(
    std::size_t kc, const float* ap, const float* bp, float* c, std::size_t ldc) {
  __m256 c0 = _mm256_loadu_ps(c);
  __m256 c1 = _mm256_loadu_ps(c + ldc);
  __m256 c2 = _mm256_loadu_ps(c + 2 * ldc);
  __m256 c3 = _mm256_loadu_ps(c + 3 * ldc);
  __m256 c4 = _mm256_loadu_ps(c + 4 * ldc);
  __m256 c5 = _mm256_loadu_ps(c + 5 * ldc);
  __m256 c6 = _mm256_loadu_ps(c + 6 * ldc);
  __m256 c7 = _mm256_loadu_ps(c + 7 * ldc);
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256 b = _mm256_loadu_ps(bp + kk * NR);
    const float* a = ap + kk * MR;
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(a + 0), b));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(a + 1), b));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2), b));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3), b));
    c4 = _mm256_add_ps(c4, _mm256_mul_ps(_mm256_broadcast_ss(a + 4), b));
    c5 = _mm256_add_ps(c5, _mm256_mul_ps(_mm256_broadcast_ss(a + 5), b));
    c6 = _mm256_add_ps(c6, _mm256_mul_ps(_mm256_broadcast_ss(a + 6), b));
    c7 = _mm256_add_ps(c7, _mm256_mul_ps(_mm256_broadcast_ss(a + 7), b));
  }
  _mm256_storeu_ps(c, c0);
  _mm256_storeu_ps(c + ldc, c1);
  _mm256_storeu_ps(c + 2 * ldc, c2);
  _mm256_storeu_ps(c + 3 * ldc, c3);
  _mm256_storeu_ps(c + 4 * ldc, c4);
  _mm256_storeu_ps(c + 5 * ldc, c5);
  _mm256_storeu_ps(c + 6 * ldc, c6);
  _mm256_storeu_ps(c + 7 * ldc, c7);
}
#endif

using MicroFn = void (*)(std::size_t, const float*, const float*, float*, std::size_t);

MicroFn micro_kernel() {
  // Function-local static: resolved on first use, after libgcc's CPU-model
  // constructor has definitely run.
  static const MicroFn fn = [] {
#ifdef PDNN_GEMM_X86
    if (__builtin_cpu_supports("avx2")) return MicroFn{micro_8x8_avx2};
#endif
    return MicroFn{micro_8x8_scalar};
  }();
  return fn;
}

/// Fused tail over an mr×nr region of C: row bias, column bias, zero clamp —
/// per element exactly one add per set bias and one clamp, the same
/// expression order as the separate sweeps, so the fusion is bit-identical.
/// The clamp expression matches exec::relu_kernel (`v > 0 ? v : 0`). Bias
/// pointers are pre-offset to the region's first row/column; either may be
/// null (no `+ 0.0f` is ever applied — that would flip -0.0 to +0.0).
void apply_epilogue(float* c, std::size_t ldc, std::size_t mr, std::size_t nr, const float* rb,
                    const float* cb, bool relu) {
  for (std::size_t i = 0; i < mr; ++i) {
    float* row = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      float v = row[j];
      if (rb != nullptr) v += rb[i];
      if (cb != nullptr) v += cb[j];
      if (relu) v = v > 0.0f ? v : 0.0f;
      row[j] = v;
    }
  }
}

/// One packed A block × one packed B block into C. Ragged micro-tiles round
/// trip through a full 8×8 scratch tile so the hot path stays branch-free.
/// `ep` is non-null only on the final KC slice: each C element's epilogue
/// runs once, right after its accumulation completes, while the tile is
/// still hot; bias pointers inside `ep` are pre-offset to this block.
void macro_kernel(std::size_t mc, std::size_t nc, std::size_t kc, const float* ap,
                  const float* bp, float* c, std::size_t ldc, const GemmEpilogue* ep) {
  const MicroFn micro = micro_kernel();
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const float* apanel = ap + (ir / MR) * (kc * MR);
      const float* bpanel = bp + (jr / NR) * (kc * NR);
      float* ctile = c + ir * ldc + jr;
      if (mr == MR && nr == NR) {
        micro(kc, apanel, bpanel, ctile, ldc);
      } else {
        alignas(32) float tmp[MR * NR] = {};
        for (std::size_t i = 0; i < mr; ++i)
          for (std::size_t j = 0; j < nr; ++j) tmp[i * NR + j] = ctile[i * ldc + j];
        micro(kc, apanel, bpanel, tmp, NR);
        for (std::size_t i = 0; i < mr; ++i)
          for (std::size_t j = 0; j < nr; ++j) ctile[i * ldc + j] = tmp[i * NR + j];
      }
      if (ep != nullptr) {
        apply_epilogue(ctile, ldc, mr, nr,
                       ep->row_bias != nullptr ? ep->row_bias + ir : nullptr,
                       ep->col_bias != nullptr ? ep->col_bias + jr : nullptr, ep->relu);
      }
    }
  }
}

/// Per-thread pack scratch, reused across calls; conv's per-sample GEMMs
/// would otherwise malloc on every invocation. File-scope so
/// gemm_pack_bytes() can report the calling thread's footprint.
struct PackBuf {
  std::vector<float> buf;
  std::size_t slack_calls = 0;  // consecutive calls far below capacity
};
thread_local PackBuf tl_bp_buf;
thread_local PackBuf tl_ap_buf;

/// Shrink threshold: a long-lived worker that once saw a huge GEMM must not
/// hold that peak forever, so when the retained capacity stays both over the
/// floor and several times the current need for a sustained streak of calls,
/// the buffer is reallocated at the current need before reuse. The streak
/// requirement (kPackShrinkPatience) is hysteresis: workloads that alternate
/// large and small GEMMs within one step — a compiled backward pass
/// interleaves wide dW panels with narrow dX ones — reset the streak every
/// few calls and therefore never thrash realloc in steady state, while a
/// worker whose traffic turns small for good still releases the peak within
/// one patience window. Packing panels are fully (re)written on every use,
/// so resizing never changes a computed bit.
constexpr std::size_t kPackShrinkFactor = 4;
constexpr std::size_t kPackShrinkFloor = 1u << 14;  // 16 Ki floats = 64 KiB
constexpr std::size_t kPackShrinkPatience = 64;

float* scratch(PackBuf& pb, std::size_t need) {
  std::vector<float>& buf = pb.buf;
  if (buf.capacity() > kPackShrinkFloor && buf.capacity() / kPackShrinkFactor > need) {
    if (++pb.slack_calls >= kPackShrinkPatience) {
      std::vector<float>(need).swap(buf);
      pb.slack_calls = 0;
    }
  } else {
    pb.slack_calls = 0;
  }
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

}  // namespace

std::size_t gemm_pack_bytes() {
  return (tl_bp_buf.buf.capacity() + tl_ap_buf.buf.capacity()) * sizeof(float);
}

bool gemm_kernel_vectorized() { return micro_kernel() != micro_8x8_scalar; }

void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float* c, std::size_t ldc) {
  gemm_blocked(m, n, k, a, lda, b, ldb, c, ldc, GemmEpilogue{});
}

void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float* c, std::size_t ldc,
                  const GemmEpilogue& epilogue) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // Degenerate reduction: C is the caller's pre-filled accumulator; the
    // epilogue still owes each element its bias/clamp pass.
    if (epilogue.active()) {
      apply_epilogue(c, ldc, m, n, epilogue.row_bias, epilogue.col_bias, epilogue.relu);
    }
    return;
  }
  float* bp = scratch(tl_bp_buf, KC * std::min(((n + NR - 1) / NR) * NR, NC));
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      pack_b(b + pc * ldb + jc, ldb, kc, nc, bp);
      // The epilogue fires only on an element's FINAL KC slice — C is stored
      // and reloaded between slices, so an earlier application would fold
      // bias/clamp into a partial sum and break the accumulation order.
      const bool last_slice = pc + kc == k;
      const GemmEpilogue block_ep{
          epilogue.row_bias,  // row offset applied per MC block below
          epilogue.col_bias != nullptr ? epilogue.col_bias + jc : nullptr, epilogue.relu};
      const GemmEpilogue* ep = last_slice && epilogue.active() ? &block_ep : nullptr;
      // Rows of C are the parallel axis, as in the naive kernel: each thread
      // owns a contiguous range of MR-granular row panels and sweeps it in MC
      // blocks. Row grouping never changes a C element's accumulation order
      // (only the k split does), so any thread count is bit-identical — and
      // each thread applies the epilogue only to rows it owns.
#ifdef _OPENMP
      const bool parallel_rows = m > MR && m * n * k > 32768;
#endif
#pragma omp parallel if (parallel_rows)
      {
        std::size_t ir0 = 0, ir1 = m;
#ifdef _OPENMP
        const std::size_t panels = (m + MR - 1) / MR;
        const std::size_t nt = static_cast<std::size_t>(omp_get_num_threads());
        const std::size_t tid = static_cast<std::size_t>(omp_get_thread_num());
        const std::size_t per = (panels + nt - 1) / nt;
        ir0 = std::min(tid * per * MR, m);
        ir1 = std::min(ir0 + per * MR, m);
#endif
        float* ap = scratch(tl_ap_buf, MC * KC);
        for (std::size_t ic = ir0; ic < ir1; ic += MC) {
          const std::size_t mc = std::min(MC, ir1 - ic);
          pack_a(a + ic * lda + pc, lda, mc, kc, ap);
          GemmEpilogue row_ep;
          if (ep != nullptr) {
            row_ep = *ep;
            if (row_ep.row_bias != nullptr) row_ep.row_bias += ic;
          }
          macro_kernel(mc, nc, kc, ap, bp, c + ic * ldc + jc, ldc,
                       ep != nullptr ? &row_ep : nullptr);
        }
      }
    }
  }
}

}  // namespace pdnn::tensor
