// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "snn/lif_layer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "util/checked.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace snnsec::snn {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Spikes in one row of `len` lif_step outputs, each exactly 0.0f or 1.0f.
/// An int32 count vectorizes where a running double sum is one dependent
/// add per element; LifLayer::forward keeps `len` within int32.
SNNSEC_KERNEL_CLONES
std::int32_t count_spikes(const float* z, std::int64_t len) {
  std::int32_t n = 0;
  for (std::int64_t k = 0; k < len; ++k) n += z[k] > 0.5f ? 1 : 0;
  return n;
}

/// One reverse time step of LIF BPTT over `len` neurons: reads the step's
/// pre-reset membrane and upstream gradient, writes dL/dx and updates the
/// carries gv/gi in place. The spike is recomputed from vd with lif_step's
/// own compare, so it is bit-equal to the one the forward emitted. `sg` is
/// the surrogate with its kind resolved (Surrogate::with_grad); no two
/// arrays overlap, so the loop vectorizes.
template <class Grad>
void lif_bptt_step(std::int64_t len, const float* __restrict vd_row,
                   const float* __restrict gz_row, float* __restrict dx_row,
                   float* __restrict gv, float* __restrict gi, Grad sg,
                   float a, float b, float v_th, float v_reset) {
  for (std::int64_t k = 0; k < len; ++k) {
    const float vd = vd_row[k];
    const float z = util::value_if_above(vd, v_th, 1.0f);
    const float carry_v = gv[k];
    const float carry_i = gi[k];
    // dL/dx_t: x enters i_t directly.
    dx_row[k] = carry_i;
    // Spike gradient: external + reset gate contribution.
    const float tdz = gz_row[k] + carry_v * (v_reset - vd);
    const float gvd = carry_v * (1.0f - z) + tdz * sg(vd - v_th);
    gv[k] = gvd * (1.0f - a);
    gi[k] = gvd * a + carry_i * b;
  }
}

}  // namespace

LifLayer::LifLayer(std::int64_t time_steps, LifParameters params,
                   Surrogate surrogate)
    : time_steps_(time_steps), params_(params), surrogate_(surrogate) {
  SNNSEC_CHECK(time_steps_ > 0, "LifLayer: time_steps must be positive");
  params_.validate();
}

Tensor LifLayer::forward(const Tensor& x, nn::Mode mode) {
  const std::int64_t total = x.dim(0);
  SNNSEC_CHECK(total % time_steps_ == 0,
               name() << ": dim0 " << total << " not divisible by T="
                      << time_steps_);
  const std::int64_t per_step = x.numel() / time_steps_;  // N * features
  SNNSEC_CHECK(per_step <= std::numeric_limits<std::int32_t>::max(),
               name() << ": " << per_step
                      << " neurons per step overflow the row spike count");

  // vd goes straight into the BPTT cache when this mode keeps one, reusing
  // its buffer while the shape holds; otherwise into a local for the probe.
  const bool keep = nn::cache_enabled(mode);
  Tensor vd_local;
  if (keep) {
    have_cache_ = false;
    if (v_decayed_.shape() != x.shape()) {
      v_decayed_ = Tensor();  // release before allocating the new shape
      v_decayed_ = Tensor(x.shape());
    }
  } else {
    vd_local = Tensor(x.shape());
  }
  Tensor& vd = keep ? v_decayed_ : vd_local;
  Tensor z(x.shape());
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  float* state_i = ws.alloc<float>(static_cast<std::size_t>(per_step));
  float* state_v = ws.alloc<float>(static_cast<std::size_t>(per_step));
  std::fill(state_i, state_i + per_step, 0.0f);
  std::fill(state_v, state_v + per_step, 0.0f);

  const float* px = x.data();
  float* pz = z.data();
  float* pvd = vd.data();
  // Parallelize across neurons: each chunk of the population evolves
  // independently through all T steps, counting its spikes row by row
  // while the rows are still hot instead of re-reading z serially.
  std::atomic<std::int64_t> spikes{0};
  util::parallel_for_chunked(0, per_step, [&](std::int64_t lo, std::int64_t hi) {
    std::int64_t chunk_spikes = 0;
    for (std::int64_t t = 0; t < time_steps_; ++t) {
      const std::int64_t off = t * per_step + lo;
      lif_step(params_, hi - lo, px + off, state_i + lo, state_v + lo,
               pz + off, pvd + off);
      chunk_spikes += count_spikes(pz + off, hi - lo);
    }
    spikes.fetch_add(chunk_spikes, std::memory_order_relaxed);
  });
  std::int64_t spike_count = spikes.load(std::memory_order_relaxed);
  if (fault_.any()) {
    // Faults rewrite z, so the fused count is stale: redo it on the (rare,
    // evaluation-only) fault path.
    apply_spike_fault(z, per_step);
    spike_count = 0;
    for (std::int64_t t = 0; t < time_steps_; ++t)
      spike_count += count_spikes(pz + t * per_step, per_step);
  }
  // A double holds any count below 2^53 exactly, so the rate is the one a
  // float-by-float double sum of the 0/1 spikes gives.
  last_spike_rate_ =
      static_cast<double>(spike_count) / static_cast<double>(z.numel());
  last_output_numel_ = z.numel();
  if (probe_) collect_activity_stats(z, vd, per_step, spike_count);

  if (keep) {
    cached_rows_ = per_step;
    have_cache_ = true;
    cached_faulted_ = fault_.any();
  }
  return z;
}

Tensor LifLayer::backward(const Tensor& grad_out) {
  SNNSEC_CHECK(have_cache_, name() << "::backward without cached forward");
  SNNSEC_CHECK(!cached_faulted_,
               name() << "::backward through a forward with a SpikeFault "
                         "armed — BPTT recomputes the unfaulted spikes from "
                         "the cached membrane, so it would differentiate "
                         "the wrong network");
  SNNSEC_CHECK(grad_out.shape() == v_decayed_.shape(),
               name() << "::backward: grad shape "
                      << grad_out.shape().to_string() << " != forward shape "
                      << v_decayed_.shape().to_string());
  const std::int64_t per_step = cached_rows_;
  SNNSEC_DCHECK(per_step * time_steps_ == v_decayed_.numel(),
                name() << ": cached rows " << per_step
                       << " inconsistent with cache of "
                       << v_decayed_.numel() << " elements");
  const float a = params_.a();
  const float b = params_.b();
  const float v_th = params_.v_th;
  const float v_reset = params_.v_reset;

  Tensor dx(grad_out.shape());
  const float* gz = grad_out.data();
  const float* pvd = v_decayed_.data();
  float* pdx = dx.data();

  // The surrogate kind is resolved once, outside the BPTT loop.
  surrogate_.with_grad([&](auto sg) {
    util::parallel_for_chunked(
        0, per_step, [&](std::int64_t lo, std::int64_t hi) {
          const std::int64_t len = hi - lo;
          // Carry buffers come from the worker thread's arena — BPTT is
          // invoked once per training batch and per attack step, so
          // per-call vectors here were a steady malloc/free drumbeat.
          util::Workspace& tws = util::Workspace::local();
          util::Workspace::Scope chunk_scope(tws);
          float* gv = tws.alloc<float>(static_cast<std::size_t>(len));
          float* gi = tws.alloc<float>(static_cast<std::size_t>(len));
          std::fill(gv, gv + len, 0.0f);
          std::fill(gi, gi + len, 0.0f);
          for (std::int64_t t = time_steps_ - 1; t >= 0; --t) {
            const std::int64_t off = t * per_step + lo;
            lif_bptt_step(len, pvd + off, gz + off, pdx + off, gv, gi, sg, a,
                          b, v_th, v_reset);
          }
        });
  });
  return dx;
}

void LifLayer::collect_activity_stats(const Tensor& z, const Tensor& vd,
                                      std::int64_t per_step,
                                      std::int64_t spike_count) {
  obs::ActivityStats stats;
  stats.neuron_steps = z.numel();
  stats.neurons = per_step;
  stats.spike_count = spike_count;
  stats.firing_rate = last_spike_rate_;

  // Per-neuron any/all reductions over the time axis: a neuron here is one
  // (sample, feature) slot followed through the whole window.
  std::vector<std::uint8_t> fired(static_cast<std::size_t>(per_step), 0);
  std::vector<std::uint8_t> always(static_cast<std::size_t>(per_step), 1);
  const float* pz = z.data();
  for (std::int64_t t = 0; t < time_steps_; ++t) {
    const float* row = pz + t * per_step;
    for (std::int64_t k = 0; k < per_step; ++k) {
      const bool spiked = row[k] > 0.5f;
      fired[static_cast<std::size_t>(k)] |= spiked;
      always[static_cast<std::size_t>(k)] &= spiked;
    }
  }
  std::int64_t silent = 0;
  std::int64_t saturated = 0;
  for (std::int64_t k = 0; k < per_step; ++k) {
    if (!fired[static_cast<std::size_t>(k)]) ++silent;
    if (always[static_cast<std::size_t>(k)]) ++saturated;
  }
  stats.silent_fraction =
      static_cast<double>(silent) / static_cast<double>(per_step);
  stats.saturated_fraction =
      static_cast<double>(saturated) / static_cast<double>(per_step);

  // Pre-reset membrane-potential distribution, centered on the threshold
  // so under/over-threshold mass is visible per (V_th, T) cell.
  stats.v_spec.lo = params_.v_reset - 1.0;
  stats.v_spec.hi = params_.v_th + 1.0;
  // NOLINTNEXTLINE(snnsec-hot-alloc): probe path — runs only when activity collection is armed, never in steady-state forwards
  stats.v_hist.assign(static_cast<std::size_t>(stats.v_spec.buckets), 0);
  const float* pv = vd.data();
  double v_sum = 0.0;
  double v_min = pv[0];
  double v_max = pv[0];
  for (std::int64_t i = 0; i < vd.numel(); ++i) {
    const double v = pv[i];
    v_sum += v;
    if (v < v_min) v_min = v;
    if (v > v_max) v_max = v;
    ++stats.v_hist[static_cast<std::size_t>(stats.v_spec.index(v))];
  }
  stats.v_mean = v_sum / static_cast<double>(vd.numel());
  stats.v_min = v_min;
  stats.v_max = v_max;
  last_activity_ = std::move(stats);
}

void SpikeFault::validate() const {
  SNNSEC_CHECK(drop_prob >= 0.0 && drop_prob <= 1.0,
               "SpikeFault: drop_prob outside [0, 1]");
  SNNSEC_CHECK(jitter_prob >= 0.0 && jitter_prob <= 1.0,
               "SpikeFault: jitter_prob outside [0, 1]");
  SNNSEC_CHECK(stuck_zero_fraction >= 0.0 && stuck_zero_fraction <= 1.0,
               "SpikeFault: stuck_zero_fraction outside [0, 1]");
  SNNSEC_CHECK(stuck_one_fraction >= 0.0 && stuck_one_fraction <= 1.0,
               "SpikeFault: stuck_one_fraction outside [0, 1]");
  SNNSEC_CHECK(stuck_zero_fraction + stuck_one_fraction <= 1.0,
               "SpikeFault: stuck fractions sum past 1");
}

void LifLayer::set_spike_fault(const SpikeFault& fault) {
  fault.validate();
  fault_ = fault;
}

void LifLayer::apply_spike_fault(Tensor& z, std::int64_t per_step) const {
  // Re-seed per forward so repeated evaluations of the same input under the
  // same fault spec are bit-identical. Slot-major iteration keeps the draw
  // order independent of the thread pool (this pass is single-threaded; it
  // only runs on the fault-evaluation path).
  util::Rng rng(fault_.seed);
  util::Rng slot_rng = rng.fork("slots");
  // 0 = healthy, 1 = stuck-at-0 (dead neuron), 2 = stuck-at-1.
  std::vector<std::uint8_t> stuck(static_cast<std::size_t>(per_step), 0);
  for (std::int64_t k = 0; k < per_step; ++k) {
    if (fault_.stuck_zero_fraction > 0.0 &&
        slot_rng.bernoulli(fault_.stuck_zero_fraction))
      stuck[static_cast<std::size_t>(k)] = 1;
    else if (fault_.stuck_one_fraction > 0.0 &&
             slot_rng.bernoulli(fault_.stuck_one_fraction))
      stuck[static_cast<std::size_t>(k)] = 2;
  }

  const Tensor zin = z;  // pre-fault spikes
  z.zero_();
  const float* pin = zin.data();
  float* pz = z.data();
  util::Rng spike_rng = rng.fork("spikes");
  for (std::int64_t k = 0; k < per_step; ++k) {
    const std::uint8_t s = stuck[static_cast<std::size_t>(k)];
    if (s == 1) continue;  // dead: stays all-zero
    if (s == 2) {
      for (std::int64_t t = 0; t < time_steps_; ++t)
        pz[t * per_step + k] = 1.0f;
      continue;
    }
    for (std::int64_t t = 0; t < time_steps_; ++t) {
      if (pin[t * per_step + k] <= 0.5f) continue;
      if (fault_.drop_prob > 0.0 && spike_rng.bernoulli(fault_.drop_prob))
        continue;
      std::int64_t tt = t;
      if (fault_.jitter_prob > 0.0 &&
          spike_rng.bernoulli(fault_.jitter_prob) && t + 1 < time_steps_)
        tt = t + 1;  // delayed spike; merges if the next step also fires
      pz[tt * per_step + k] = 1.0f;
    }
  }
}

std::string LifLayer::name() const {
  std::ostringstream oss;
  oss << "LifLayer(T=" << time_steps_ << ", v_th=" << params_.v_th << ", "
      << surrogate_.to_string() << ")";
  return oss.str();
}

void LifLayer::clear_cache() {
  v_decayed_ = Tensor();
  have_cache_ = false;
}

}  // namespace snnsec::snn
