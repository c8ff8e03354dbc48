// SNNSEC_KERNEL_CLONES: function multi-versioning for hot scalar loops.
//
// The baseline x86-64 ABI only guarantees SSE2, which caps vector kernels
// well below what the machines this actually runs on (CI and dev boxes are
// all AVX2+FMA capable) can do. target_clones compiles the annotated
// function twice — generic and x86-64-v3 — and picks at load time, so one
// binary serves both without a -march flag that would break older hosts.
// GCC-only: clang's target_clones doesn't accept arch= strings.
//
// Determinism note: the v3 clone may contract mul+add into FMA, so results
// can differ in the last ulp from the generic clone. The choice is fixed per
// machine at load time, never per call — every kernel annotated with this
// macro is deterministic for a given host, which is the contract the
// batched-vs-single and serial-vs-parallel bit-identity tests rely on.
// Which products a clone fuses is whatever GCC's default -ffp-contract=fast
// makes of the source: a product fuses into the add that consumes it when
// both sit in one basic block of the clone. A kernel that must keep a
// product unfused stores it to memory before the add (see lif_step).
#pragma once

#include <cstdint>
#include <cstring>

// Not under ThreadSanitizer: GCC instruments the IFUNC resolvers that
// target_clones emits, and they run before the tsan runtime starts, so
// every binary linking a cloned kernel would segfault before main.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define SNNSEC_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define SNNSEC_KERNEL_CLONES
#endif

namespace snnsec::util {

/// `value` where x > threshold, else +0.0f. Computed as a bit mask on the
/// comparison rather than a `?:`: GCC duplicates the code after a float
/// select into both arms, and under its default -ftrapping-math it then
/// cannot if-convert the arms back (a product such as 0*v could trap), so a
/// loop containing the select stays scalar with a data-dependent branch.
/// The mask form vectorizes. Equal to `x > threshold ? value : 0.0f` for
/// every input, NaN included (a NaN never compares greater).
inline float value_if_above(float x, float threshold, float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  bits &= 0u - static_cast<std::uint32_t>(x > threshold);
  float out;
  std::memcpy(&out, &bits, sizeof out);
  return out;
}

}  // namespace snnsec::util
