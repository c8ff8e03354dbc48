// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "snn/alif_layer.hpp"

#include <algorithm>
#include <sstream>

#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace snnsec::snn {

using tensor::Tensor;

namespace {

/// One reverse time step of ALIF BPTT over `len` neurons (the LIF step in
/// lif_layer.cpp plus the adaptation carry gb). `sg` is the surrogate with
/// its kind resolved (Surrogate::with_grad); no two arrays overlap, so the
/// loop vectorizes.
template <class Grad>
void alif_bptt_step(std::int64_t len, const float* __restrict vd_row,
                    const float* __restrict z_row,
                    const float* __restrict b0_row,
                    const float* __restrict gz_row, float* __restrict dx_row,
                    float* __restrict gv, float* __restrict gi,
                    float* __restrict gb, Grad sg, const AlifParameters& p) {
  const float a = p.lif.a();
  const float bsyn = p.lif.b();
  const float v_th = p.lif.v_th;
  const float v_reset = p.lif.v_reset;
  const float beta = p.beta;
  const float rho = p.rho;
  for (std::int64_t k = 0; k < len; ++k) {
    const float vd = vd_row[k];
    const float z = z_row[k];
    const float b0 = b0_row[k];
    const float carry_v = gv[k];
    const float carry_i = gi[k];
    const float carry_b = gb[k];
    dx_row[k] = carry_i;
    const float theta = v_th + beta * b0;
    const float s = sg(vd - theta);
    const float tdz =
        gz_row[k] + carry_v * (v_reset - vd) + carry_b * (1.0f - rho);
    const float gvd = carry_v * (1.0f - z) + tdz * s;
    gv[k] = gvd * (1.0f - a);
    gi[k] = gvd * a + carry_i * bsyn;
    gb[k] = carry_b * rho - tdz * beta * s;
  }
}

}  // namespace

void AlifParameters::validate() const {
  lif.validate();
  SNNSEC_CHECK(beta >= 0.0f, "AlifParameters: negative beta");
  SNNSEC_CHECK(rho >= 0.0f && rho < 1.0f,
               "AlifParameters: rho must be in [0, 1)");
}

// Single source of truth for the ALIF dynamics: the unrolled forward below
// and AnytimeRunner's kAlif stage both call this symbol, which keeps the two
// paths bit-identical per machine. Rounding contract, as for lif_step (see
// lif.cpp): the v3 clone fuses vd, bsyn, theta = fma(beta, b0, v_th) and
// b' = fma(rho, b0, (1-rho)*z); i' = round(bsyn*i) + x never fuses (the
// product goes through state_i); the default clone fuses nothing. (1-rho)*z
// is exact for z in {0, 1}, and taking it as a masked value leaves rho*b0 as
// the only product the adaptation update can fuse. No two of the seven
// arrays may overlap (`__restrict`: six written arrays are more runtime
// alias checks than GCC versions a loop for, so without it the loop stays
// scalar).
SNNSEC_KERNEL_CLONES
void alif_step(const AlifParameters& p, std::int64_t n,
               const float* __restrict x, float* __restrict state_i,
               float* __restrict state_v, float* __restrict state_b,
               float* __restrict z_out, float* __restrict v_decayed_out,
               float* __restrict b0_out) {
  const float a = p.lif.a();
  const float bsyn = p.lif.b();
  const float v_leak = p.lif.v_leak;
  const float v_th = p.lif.v_th;
  const float v_reset = p.lif.v_reset;
  const float beta = p.beta;
  const float rho = p.rho;
  const float one_minus_rho = 1.0f - rho;
  for (std::int64_t k = 0; k < n; ++k) {
    const float v0 = state_v[k];
    const float i0 = state_i[k];
    const float b0 = state_b[k];
    const float v_decayed = v0 + a * ((v_leak - v0) + i0);
    const float theta = v_th + beta * b0;
    const float spike = util::value_if_above(v_decayed, theta, 1.0f);
    v_decayed_out[k] = v_decayed;
    b0_out[k] = b0;  // pre-update adaptation (enters theta); BPTT input
    z_out[k] = spike;
    state_v[k] = (1.0f - spike) * v_decayed + spike * v_reset;
    state_i[k] = bsyn * i0;
    state_b[k] =
        rho * b0 + util::value_if_above(v_decayed, theta, one_minus_rho);
  }
  for (std::int64_t k = 0; k < n; ++k) state_i[k] += x[k];
}

AlifLayer::AlifLayer(std::int64_t time_steps, AlifParameters params,
                     Surrogate surrogate)
    : time_steps_(time_steps), params_(params), surrogate_(surrogate) {
  SNNSEC_CHECK(time_steps_ > 0, "AlifLayer: time_steps must be positive");
  params_.validate();
}

Tensor AlifLayer::forward(const Tensor& x, nn::Mode mode) {
  const std::int64_t total = x.dim(0);
  SNNSEC_CHECK(total % time_steps_ == 0,
               name() << ": dim0 " << total << " not divisible by T="
                      << time_steps_);
  const std::int64_t per_step = x.numel() / time_steps_;

  Tensor z(x.shape());
  Tensor vd(x.shape());
  Tensor badapt_cache(x.shape());
  const float* px = x.data();
  float* pz = z.data();
  float* pvd = vd.data();
  float* pb = badapt_cache.data();

  util::parallel_for_chunked(0, per_step, [&](std::int64_t lo, std::int64_t hi) {
    const std::int64_t len = hi - lo;
    // State carries come from the worker thread's arena — the per-call
    // vectors this replaced were a steady malloc/free drumbeat at attack
    // and serving scale.
    util::Workspace& tws = util::Workspace::local();
    util::Workspace::Scope chunk_scope(tws);
    float* state_i = tws.alloc<float>(static_cast<std::size_t>(len));
    float* state_v = tws.alloc<float>(static_cast<std::size_t>(len));
    float* state_b = tws.alloc<float>(static_cast<std::size_t>(len));
    std::fill(state_i, state_i + len, 0.0f);
    std::fill(state_v, state_v + len, 0.0f);
    std::fill(state_b, state_b + len, 0.0f);
    for (std::int64_t t = 0; t < time_steps_; ++t) {
      const std::int64_t off = t * per_step + lo;
      alif_step(params_, len, px + off, state_i, state_v, state_b, pz + off,
                pvd + off, pb + off);
    }
  });

  double spike_sum = 0.0;
  for (std::int64_t i = 0; i < z.numel(); ++i) spike_sum += pz[i];
  last_spike_rate_ = spike_sum / static_cast<double>(z.numel());

  if (nn::cache_enabled(mode)) {
    v_decayed_ = std::move(vd);
    spikes_ = z;
    adaptation_ = std::move(badapt_cache);
    per_step_ = per_step;
    have_cache_ = true;
  }
  return z;
}

Tensor AlifLayer::backward(const Tensor& grad_out) {
  SNNSEC_CHECK(have_cache_, name() << "::backward without cached forward");
  SNNSEC_CHECK(grad_out.shape() == spikes_.shape(),
               name() << "::backward: grad shape mismatch");
  const std::int64_t per_step = per_step_;

  Tensor dx(grad_out.shape());
  const float* gz = grad_out.data();
  const float* pvd = v_decayed_.data();
  const float* pz = spikes_.data();
  const float* pb = adaptation_.data();
  float* pdx = dx.data();

  // The surrogate kind is resolved once, outside the BPTT loop.
  surrogate_.with_grad([&](auto sg) {
    util::parallel_for_chunked(
        0, per_step, [&](std::int64_t lo, std::int64_t hi) {
          const std::int64_t len = hi - lo;
          util::Workspace& tws = util::Workspace::local();
          util::Workspace::Scope chunk_scope(tws);
          float* gv = tws.alloc<float>(static_cast<std::size_t>(len));
          float* gi = tws.alloc<float>(static_cast<std::size_t>(len));
          float* gb = tws.alloc<float>(static_cast<std::size_t>(len));
          std::fill(gv, gv + len, 0.0f);
          std::fill(gi, gi + len, 0.0f);
          std::fill(gb, gb + len, 0.0f);
          for (std::int64_t t = time_steps_ - 1; t >= 0; --t) {
            const std::int64_t off = t * per_step + lo;
            alif_bptt_step(len, pvd + off, pz + off, pb + off, gz + off,
                           pdx + off, gv, gi, gb, sg, params_);
          }
        });
  });
  return dx;
}

std::string AlifLayer::name() const {
  std::ostringstream oss;
  oss << "AlifLayer(T=" << time_steps_ << ", v_th=" << params_.lif.v_th
      << ", beta=" << params_.beta << ", rho=" << params_.rho << ")";
  return oss.str();
}

void AlifLayer::clear_cache() {
  v_decayed_ = Tensor();
  spikes_ = Tensor();
  adaptation_ = Tensor();
  have_cache_ = false;
}

}  // namespace snnsec::snn
