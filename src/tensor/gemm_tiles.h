// Tile parameters and variant identifiers for the dispatched GEMM family.
//
// This header is included by the baseline dispatch TU (gemm.cpp) AND by the
// per-ISA kernel TUs (gemm_scalar.cpp, gemm_avx2.cpp, gemm_avx512.cpp), which
// are compiled with different -m flags. Keep it to plain data and constants:
// an inline function defined here would be emitted in several TUs with
// different instruction sets, and the linker keeping the wrong copy would
// crash a host that lacks the wider ISA.
#pragma once

#include <cstdint>

namespace mfa::kernels {

/// The compiled kernel variants, in increasing ISA order. Dispatch picks the
/// widest one the host supports unless MFA_SIMD forces a narrower one.
enum class Variant : int {
  kScalar = 0,  // portable C++, auto-vectorised at the build baseline
  kAvx2 = 1,    // 8-lane AVX2 + FMA intrinsics
  kAvx512 = 2,  // 16-lane AVX-512F + FMA intrinsics
};
inline constexpr int kNumVariants = 3;

/// Tile parameters for one variant. The register tile is mr rows by
/// nv SIMD vectors of C; nc/kc are the cache-blocking panel dimensions used
/// by the packed-B path; pack_min is the minimum B volume (k * n floats)
/// before packing pays for itself — below it the kernels stream B in place,
/// so small per-batch conv GEMMs never pay the copy.
///
/// Determinism contract: within a variant, every C[i][j] is reduced in fixed
/// k-ascending order with a uniform per-element operation (mul+add for
/// scalar, single-rounded FMA for the SIMD variants; gemm_nt accumulates in
/// lane-split doubles with a fixed lane count per variant). The tile
/// parameters only regroup independent accumulator streams, so any value of
/// (mr, nv, nc, kc, pack_min) yields bit-identical results — the tile
/// choice is a pure speed knob. Across variants results differ (FMA
/// contracts the product rounding), which is why the golden gate pins one
/// hash per variant.
struct GemmTiles {
  int mr = 4;                     // register-tile rows (1, 2, 4, or 8)
  int nv = 2;                     // register-tile width in SIMD vectors
  std::int64_t nc = 512;          // packed-panel / column-block width (floats)
  std::int64_t kc = 256;          // packed-panel depth (k rows per panel)
  std::int64_t pack_min = 1 << 17;  // min k*n floats before packing B
  // Min strip-rows * k floats before the packed-B path also packs the A
  // panel (contiguous k-major rows; pays most for tn, whose in-place A reads
  // stride by m). Only consulted when B packing is already on.
  std::int64_t pack_min_a = 1 << 16;
};

}  // namespace mfa::kernels
