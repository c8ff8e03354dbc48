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
#pragma once

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
