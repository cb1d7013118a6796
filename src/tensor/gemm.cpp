// Dispatch front-end for the GEMM kernel family (see tensor/gemm.h).
//
// Owns everything the per-ISA kernel TUs must not touch: variant selection
// (cpuid + MFA_SIMD, resolved once), the row-parallel partition, the
// sanitizer's declared-write ranges, the obs counters, and the thread-local
// scratch arena. The kernel TUs (gemm_scalar.cpp, gemm_avx2.cpp,
// gemm_avx512.cpp) export plain function-pointer tables and contain only
// arithmetic — this TU is compiled at the build baseline, so no wide
// instruction can leak onto an unsupported host before dispatch.
#include "tensor/gemm.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "common/thread_pool.h"
#include "tensor/gemm_variant.h"

namespace mfa::kernels {
namespace {

// Row-parallel grain: a GEMM this small is not worth waking the pool for.
constexpr std::int64_t kRowGrain = 16;

constexpr const char* kVariantNames[kNumVariants] = {"scalar", "avx2",
                                                     "avx512"};

#if defined(MFA_GEMM_X86)
// __builtin_cpu_supports also verifies the OS saves the wider register
// state (XGETBV), so a positive answer means the ISA is safe to execute.
bool host_has_avx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
bool host_has_avx512() { return __builtin_cpu_supports("avx512f"); }
#else
bool host_has_avx2() { return false; }
bool host_has_avx512() { return false; }
#endif

GemmTiles compiled_defaults(Variant v) {
  GemmTiles t;  // the scalar strips read only nc (the legacy kColBlock)
  switch (v) {
    case Variant::kScalar:
      break;
    case Variant::kAvx2:
      t.mr = 4;
      t.nv = 2;
      break;
    case Variant::kAvx512:
      t.mr = 4;
      t.nv = 2;
      break;
  }
  return t;
}

struct VariantState {
  detail::StripKernels strips;
  bool supported = false;
  GemmTiles tiles;  // compiled defaults unless overridden
};

struct Dispatch {
  VariantState v[kNumVariants];
  Variant chosen = Variant::kScalar;
};

Dispatch& dispatch();

std::atomic<int> g_variant_override{-1};

Variant active_in(const Dispatch& d) {
  const int o = g_variant_override.load(std::memory_order_relaxed);
  if (o >= 0 && o < kNumVariants && d.v[o].supported)
    return static_cast<Variant>(o);
  return d.chosen;
}

Dispatch make_dispatch() {
  Dispatch d;
  d.v[0].strips = detail::scalar_strips();
  d.v[0].supported = true;
#if defined(MFA_GEMM_X86)
  if (host_has_avx2()) {
    d.v[1].strips = detail::avx2_strips();
    d.v[1].supported = true;
    if (host_has_avx512()) {
      d.v[2].strips = detail::avx512_strips();
      d.v[2].supported = true;
    }
  }
#endif
  for (int i = 0; i < kNumVariants; ++i)
    d.v[i].tiles = compiled_defaults(static_cast<Variant>(i));

  d.chosen = detail::resolve_variant(std::getenv("MFA_SIMD"),
                                     d.v[1].supported, d.v[2].supported);
  const GemmTiles& ct = d.v[static_cast<int>(d.chosen)].tiles;
  log::info(
      "gemm: dispatch=%s (avx2=%d avx512=%d, tiles: mr=%d nv=%d nc=%lld "
      "kc=%lld pack_min=%lld pack_min_a=%lld)",
      kVariantNames[static_cast<int>(d.chosen)], d.v[1].supported ? 1 : 0,
      d.v[2].supported ? 1 : 0, ct.mr, ct.nv, static_cast<long long>(ct.nc),
      static_cast<long long>(ct.kc), static_cast<long long>(ct.pack_min),
      static_cast<long long>(ct.pack_min_a));

  // Pull source: snapshot-time values survive MFA_OBS toggling and always
  // reflect the live override state.
  obs::Registry::instance().register_source("gemm", [] {
    const Dispatch& s = dispatch();
    const Variant a = active_in(s);
    const GemmTiles& t = s.v[static_cast<int>(a)].tiles;
    return std::vector<std::pair<std::string, double>>{
        {"dispatch", static_cast<double>(static_cast<int>(a))},
        {"supported.avx2", s.v[1].supported ? 1.0 : 0.0},
        {"supported.avx512", s.v[2].supported ? 1.0 : 0.0},
        {"tiles.mr", static_cast<double>(t.mr)},
        {"tiles.nv", static_cast<double>(t.nv)},
        {"tiles.nc", static_cast<double>(t.nc)},
        {"tiles.kc", static_cast<double>(t.kc)},
        {"tiles.pack_min", static_cast<double>(t.pack_min)},
        {"tiles.pack_min_a", static_cast<double>(t.pack_min_a)},
    };
  });
  return d;
}

Dispatch& dispatch() {
  static Dispatch d = make_dispatch();
  return d;
}

/// Shared row-parallel driver. Declared writes: each chunk owns C rows
/// [i0, i1). Nested calls (conv's batch loop) skip the declaration — their
/// outputs are either ranges the enclosing chunk already declared (dW
/// slots, output slices) or thread-local scratch that is reused across
/// chunks and would read as a cross-chunk overlap to the checker.
void run_rows(detail::StripKernels::StripFn fn, const float* A,
              const float* B, float* C, std::int64_t m, std::int64_t k,
              std::int64_t n, const GemmTiles& t) {
  static obs::Counter calls = obs::counter("gemm.calls");
  calls.add();
  const bool top_level = !common::ThreadPool::in_parallel_region();
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        if (top_level) sanitize::note_parallel_write(C, i0 * n, i1 * n);
        fn(A, B, C, i0, i1, m, k, n, t);
      },
      kRowGrain);
}

}  // namespace

void gemm_nn(const float* A, const float* B, float* C, std::int64_t m,
             std::int64_t k, std::int64_t n) {
  const Dispatch& d = dispatch();
  const VariantState& vs = d.v[static_cast<int>(active_in(d))];
  run_rows(vs.strips.nn, A, B, C, m, k, n, vs.tiles);
}

void gemm_nt(const float* A, const float* B, float* C, std::int64_t m,
             std::int64_t k, std::int64_t n) {
  const Dispatch& d = dispatch();
  const VariantState& vs = d.v[static_cast<int>(active_in(d))];
  run_rows(vs.strips.nt, A, B, C, m, k, n, vs.tiles);
}

void gemm_tn(const float* A, const float* B, float* C, std::int64_t m,
             std::int64_t k, std::int64_t n) {
  const Dispatch& d = dispatch();
  const VariantState& vs = d.v[static_cast<int>(active_in(d))];
  run_rows(vs.strips.tn, A, B, C, m, k, n, vs.tiles);
}

Variant active_variant() { return active_in(dispatch()); }

bool variant_supported(Variant v) {
  const int i = static_cast<int>(v);
  return i >= 0 && i < kNumVariants && dispatch().v[i].supported;
}

const char* variant_name(Variant v) {
  const int i = static_cast<int>(v);
  return i >= 0 && i < kNumVariants ? kVariantNames[i] : "invalid";
}

GemmTiles variant_tiles(Variant v) {
  const int i = static_cast<int>(v);
  MFA_CHECK(i >= 0 && i < kNumVariants)
      << " gemm: variant " << i << " out of range";
  return dispatch().v[i].tiles;
}

bool set_variant_override(int v) {
  if (v < 0) {
    g_variant_override.store(-1, std::memory_order_relaxed);
    return true;
  }
  if (v >= kNumVariants || !dispatch().v[v].supported) {
    log::warn("gemm: ignoring variant override %d (%s)", v,
              v >= kNumVariants ? "out of range" : "unsupported on this host");
    return false;
  }
  g_variant_override.store(v, std::memory_order_relaxed);
  return true;
}

void set_tiles_override(Variant v, const GemmTiles* tiles) {
  const int i = static_cast<int>(v);
  MFA_CHECK(i >= 0 && i < kNumVariants)
      << " gemm: variant " << i << " out of range";
  dispatch().v[i].tiles = tiles ? *tiles : compiled_defaults(v);
}

namespace detail {

Variant resolve_variant(const char* mfa_simd, bool has_avx2,
                        bool has_avx512) {
  const Variant widest = has_avx512 ? Variant::kAvx512
                         : has_avx2 ? Variant::kAvx2
                                    : Variant::kScalar;
  if (mfa_simd == nullptr || *mfa_simd == '\0') return widest;
  const std::string s(mfa_simd);
  if (s == "auto") return widest;
  if (s == "scalar") return Variant::kScalar;
  if (s == "avx2") {
    if (has_avx2) return Variant::kAvx2;
    log::warn("gemm: MFA_SIMD=avx2 but the host lacks AVX2+FMA; using scalar");
    return Variant::kScalar;
  }
  if (s == "avx512") {
    if (has_avx512) return Variant::kAvx512;
    log::warn("gemm: MFA_SIMD=avx512 but the host lacks AVX-512F; using %s",
              has_avx2 ? "avx2" : "scalar");
    return has_avx2 ? Variant::kAvx2 : Variant::kScalar;
  }
  log::warn(
      "gemm: unrecognised MFA_SIMD=\"%s\" (want scalar|avx2|avx512); "
      "using %s",
      s.c_str(), kVariantNames[static_cast<int>(widest)]);
  return widest;
}

void note_packed_panel() {
  static obs::Counter packed = obs::counter("gemm.packed_panels");
  packed.add();
}

void note_packed_a_panel() {
  static obs::Counter packed = obs::counter("gemm.packed_a_panels");
  packed.add();
}

float* pack_buffer(std::int64_t floats) { return scratch(2, floats); }

float* pack_buffer_a(std::int64_t floats) { return scratch(4, floats); }

}  // namespace detail

float* scratch(int slot, std::int64_t floats) {
  MFA_CHECK(slot >= 0 && slot < kScratchSlots)
      << " gemm scratch: slot " << slot << " out of range";
  MFA_CHECK(floats >= 0) << " gemm scratch: negative size " << floats;
  // 64-byte aligned so packed panels and im2col columns start on a cache
  // line (and a full AVX-512 vector) regardless of the allocator.
  struct Buffer {
    float* data = nullptr;
    std::int64_t cap = 0;
    ~Buffer() { ::operator delete(data, std::align_val_t{64}); }
  };
  thread_local Buffer buffers[kScratchSlots];
  Buffer& buf = buffers[slot];
  if (floats > buf.cap) {
    ::operator delete(buf.data, std::align_val_t{64});
    buf.data = nullptr;
    buf.cap = 0;
    buf.data = static_cast<float*>(::operator new(
        static_cast<std::size_t>(floats) * sizeof(float),
        std::align_val_t{64}));
    buf.cap = floats;
  }
  return buf.data;
}

}  // namespace mfa::kernels
