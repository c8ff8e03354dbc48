// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "snn/lif.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace snnsec::snn {

void LifParameters::validate() const {
  SNNSEC_CHECK(dt > 0.0f, "LifParameters: dt must be positive");
  const float fa = a();
  const float fb = b();
  SNNSEC_CHECK(fa > 0.0f && fa <= 1.0f,
               "LifParameters: unstable membrane factor a=" << fa
                   << " (need 0 < dt*tau_mem_inv <= 1)");
  SNNSEC_CHECK(fb >= 0.0f && fb < 1.0f,
               "LifParameters: unstable synapse factor b=" << fb
                   << " (need 0 <= 1 - dt*tau_syn_inv < 1)");
  SNNSEC_CHECK(v_th > v_leak,
               "LifParameters: v_th (" << v_th << ") must exceed v_leak ("
                                       << v_leak << ")");
}

std::string LifParameters::to_string() const {
  std::ostringstream oss;
  oss << "LIF(v_th=" << v_th << ", tau_syn_inv=" << tau_syn_inv
      << ", tau_mem_inv=" << tau_mem_inv << ", v_leak=" << v_leak
      << ", v_reset=" << v_reset << ", dt=" << dt << ")";
  return oss.str();
}

// Both lif_step and li_step are the single source of truth for the
// dynamics: LifLayer's unrolled forward and AnytimeRunner's per-slab
// stepping call the same symbols, which is what keeps the two paths
// bit-identical per machine.
//
// Rounding contract of lif_step (both GCC clones vectorize; the vector body
// and the scalar tail round identically, which test_snn_lif pins down):
//   - x86-64-v3 clone: vd = fma(a, (v_leak - v) + i, v) and
//     b = fma(-dt, tau_syn_inv, 1) fuse; a = dt*tau_mem_inv rounds alone;
//     i' = round(b*i) + x does NOT fuse. The checkpoints and PGD inputs
//     behind every reference digest were built with this rounding, so the
//     product is stored to state_i in the first loop and x added in a
//     second one — no compiler contracts across a store.
//   - default clone (and every non-GCC build): nothing fuses.
//   - v' = (1-z)*vd + z*v_reset rounds the same fused or not, because with
//     z in {0, 1} both products are exact.
// SNNSEC_HOT entry: the per-neuron membrane update kernel. x must not
// overlap the state or output arrays.
SNNSEC_KERNEL_CLONES
void lif_step(const LifParameters& p, std::int64_t n, const float* x,
              float* state_i, float* state_v, float* z_out,
              float* v_decayed_out) {
  // Locals, so the loop does not reload p's fields through the stores.
  const float a = p.a();
  const float b = p.b();
  const float v_leak = p.v_leak;
  const float v_th = p.v_th;
  const float v_reset = p.v_reset;
  for (std::int64_t k = 0; k < n; ++k) {
    const float v = state_v[k];
    const float i = state_i[k];
    const float vd = v + a * ((v_leak - v) + i);
    const float z = util::value_if_above(vd, v_th, 1.0f);
    z_out[k] = z;
    v_decayed_out[k] = vd;
    state_v[k] = (1.0f - z) * vd + z * v_reset;
    state_i[k] = b * i;
  }
  for (std::int64_t k = 0; k < n; ++k) state_i[k] += x[k];
}

// li_step has no spike, so it always vectorized; its v3 clone fuses vd, b
// and i' = fma(b, i, x) — the rounding its reference digests were built
// with.
SNNSEC_KERNEL_CLONES
void li_step(const LifParameters& p, std::int64_t n, const float* x,
             float* state_i, float* state_v, float* v_out) {
  const float a = p.a();
  const float b = p.b();
  for (std::int64_t k = 0; k < n; ++k) {
    const float vd = state_v[k] + a * ((p.v_leak - state_v[k]) + state_i[k]);
    const float id = b * state_i[k];
    v_out[k] = vd;
    state_v[k] = vd;
    state_i[k] = id + x[k];
  }
}

}  // namespace snnsec::snn
