// The single GEMM family behind matmul and conv2d (both directions).
//
// Three accumulating row-major kernels (C += op(A) * op(B)):
//   gemm_nn: C[m,n] += A[m,k]        * B[k,n]
//   gemm_nt: C[m,n] += A[m,k]        * B[n,k]^T
//   gemm_tn: C[m,n] += A[k,m]^T      * B[k,n]
//
// Each call runs one of three compiled kernel variants — portable scalar,
// AVX2+FMA, or AVX-512F (see tensor/gemm_tiles.h) — selected once at startup
// from cpuid, overridable with MFA_SIMD=scalar|avx2|avx512. The SIMD
// variants use register-tiled microkernels parameterised by GemmTiles and
// pack B into cache-sized panels for large shapes (small shapes keep a
// no-pack fast path); tile parameters are compiled-in per-variant defaults.
//
// The front-end (gemm.cpp) owns the row-parallel partition, the sanitizer's
// declared-write ranges, and the obs counters; kernel TUs contain only
// arithmetic. Nested use is safe: called from inside another parallel region
// (conv2d's batch loop) the kernels run inline on that worker.
//
// Determinism: every output element C[i][j] is reduced in fixed k-ascending
// order regardless of tile parameters, pack decisions, chunk schedule, or
// pool size — bit-identical results *within* a variant. Across variants
// results differ (FMA contraction), so the golden gate pins one hash per
// variant. gemm_nt accumulates dot products in double (lane-split for the
// SIMD variants); backward-pass gradients (dA, conv dW) depend on that
// headroom.
//
// scratch() hands out thread-local grow-only buffers for im2col/col2im-style
// packing so steady-state conv calls allocate nothing (tensor/gemm.cpp owns
// the arena; see DESIGN.md "Threading and memory model").
#pragma once

#include <cstdint>

#include "tensor/gemm_tiles.h"

namespace mfa::kernels {

void gemm_nn(const float* A, const float* B, float* C, std::int64_t m,
             std::int64_t k, std::int64_t n);
void gemm_nt(const float* A, const float* B, float* C, std::int64_t m,
             std::int64_t k, std::int64_t n);
void gemm_tn(const float* A, const float* B, float* C, std::int64_t m,
             std::int64_t k, std::int64_t n);

// ---- dispatch introspection and control ---------------------------------

/// The variant gemm_* calls will run: the override if one is set, else the
/// startup choice (widest supported ISA unless MFA_SIMD narrows it).
Variant active_variant();

/// Whether `v` was compiled in AND the host supports its ISA.
bool variant_supported(Variant v);

/// "scalar" / "avx2" / "avx512".
const char* variant_name(Variant v);

/// Tile parameters currently in effect for `v` (the compiled defaults,
/// unless overridden via set_tiles_override).
GemmTiles variant_tiles(Variant v);

/// Forces the dispatch to variant `v` for subsequent gemm calls; -1 restores
/// the startup choice. Returns false (and changes nothing) if `v` is not
/// supported on this host. Test/benchmark hook — call only while no gemm is
/// in flight.
bool set_variant_override(int v);

/// Replaces the tile parameters for `v` (nullptr restores the compiled
/// defaults). Test/benchmark hook — call only while no gemm is in flight.
void set_tiles_override(Variant v, const GemmTiles* tiles);

namespace detail {
/// Pure MFA_SIMD resolution (unit-testable): picks the widest supported
/// variant, narrowed by `mfa_simd` ("scalar"/"avx2"/"avx512"; null, empty,
/// or "auto" keep the widest; a forced ISA the host lacks degrades to the
/// widest supported one with a warning, as does an unrecognised value).
Variant resolve_variant(const char* mfa_simd, bool has_avx2, bool has_avx512);
}  // namespace detail

// ---- thread-local scratch arena -----------------------------------------

/// Thread-local scratch buffer for kernel-internal packing. `slot` selects
/// one of a small number of independent buffers (a kernel that needs an
/// im2col panel and a gradient panel at once uses two slots); the returned
/// pointer is 64-byte aligned and stays valid until the same slot is
/// requested again on the same thread with a larger size. Contents are
/// unspecified — callers that need zeros must fill them. Buffers grow but
/// never shrink, so the steady state is allocation-free.
///
/// Slots 2 and 4 are reserved for the GEMM packed panels (B and A
/// respectively): any kernel that calls gemm_* while holding a scratch
/// pointer must use slots 0, 1, or 3.
inline constexpr int kScratchSlots = 5;
float* scratch(int slot, std::int64_t floats);

}  // namespace mfa::kernels
