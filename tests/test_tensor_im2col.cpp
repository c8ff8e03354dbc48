// Conv geometry, the im2col lowering and its col2im adjoint (the test
// references), the implicit-im2col GEMM that packs the lowering straight
// from the input, and the input gradient computed without a column matrix.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "im2col_reference.hpp"
#include "nn/conv2d.hpp"
#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace snnsec::tensor {
namespace {

using testutil::col2im_ld;
using testutil::im2col;
using testutil::im2col_batch;

ConvGeometry make_geom(std::int64_t c, std::int64_t h, std::int64_t w,
                       std::int64_t k, std::int64_t stride, std::int64_t pad) {
  ConvGeometry g;
  g.channels = c;
  g.height = h;
  g.width = w;
  g.kernel_h = g.kernel_w = k;
  g.stride_h = g.stride_w = stride;
  g.pad_h = g.pad_w = pad;
  g.validate();
  return g;
}

TEST(ConvGeometry, OutputSizes) {
  EXPECT_EQ(make_geom(1, 5, 5, 3, 1, 0).out_h(), 3);
  EXPECT_EQ(make_geom(1, 5, 5, 3, 1, 1).out_h(), 5);
  EXPECT_EQ(make_geom(1, 6, 6, 2, 2, 0).out_h(), 3);
  EXPECT_EQ(make_geom(2, 4, 4, 3, 1, 0).patch_size(), 18);
}

TEST(ConvGeometry, InvalidGeometriesThrow) {
  ConvGeometry g = make_geom(1, 5, 5, 3, 1, 0);
  g.kernel_h = 9;  // larger than padded input
  EXPECT_THROW(g.validate(), util::Error);
  g = make_geom(1, 5, 5, 3, 1, 0);
  g.stride_h = 0;
  EXPECT_THROW(g.validate(), util::Error);
  g = make_geom(1, 5, 5, 3, 1, 0);
  g.pad_h = -1;
  EXPECT_THROW(g.validate(), util::Error);
}

TEST(Im2col, OneByOneKernelIsIdentity) {
  const auto g = make_geom(1, 3, 3, 1, 1, 0);
  const float img[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  float col[9];
  im2col(g, img, col);
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(col[i], img[i]);
}

TEST(Im2col, ExtractsPatchesRowMajor) {
  // 3x3 image, 2x2 kernel, stride 1, no pad -> 2x2 output, 4 patches.
  const auto g = make_geom(1, 3, 3, 2, 1, 0);
  const float img[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  float col[4 * 4];
  im2col(g, img, col);
  // Row r of col = kernel position (kh, kw); column j = output position.
  // Patch at output (0,0) is {1,2,4,5} spread down rows at column 0.
  EXPECT_FLOAT_EQ(col[0 * 4 + 0], 1);
  EXPECT_FLOAT_EQ(col[1 * 4 + 0], 2);
  EXPECT_FLOAT_EQ(col[2 * 4 + 0], 4);
  EXPECT_FLOAT_EQ(col[3 * 4 + 0], 5);
  // Output (1,1) -> patch {5,6,8,9} at column 3.
  EXPECT_FLOAT_EQ(col[0 * 4 + 3], 5);
  EXPECT_FLOAT_EQ(col[3 * 4 + 3], 9);
}

TEST(Im2col, PaddingContributesZeros) {
  const auto g = make_geom(1, 2, 2, 3, 1, 1);
  const float img[4] = {1, 2, 3, 4};
  float col[9 * 4];
  im2col(g, img, col);
  // Output (0,0): kernel centered so corner taps hit padding.
  EXPECT_FLOAT_EQ(col[0 * 4 + 0], 0);  // (kh=0,kw=0) out (0,0) -> pad
  EXPECT_FLOAT_EQ(col[4 * 4 + 0], 1);  // center tap -> pixel (0,0)
}

TEST(Im2col, ConvolutionViaGemmMatchesDirect) {
  // Random conv computed two ways: im2col+GEMM vs direct summation.
  util::Rng rng(7);
  const auto g = make_geom(2, 6, 6, 3, 1, 1);
  const Tensor img = Tensor::randn(Shape{2, 6, 6}, rng);
  const Tensor w = Tensor::randn(Shape{4, g.patch_size()}, rng);  // Cout=4

  Tensor col(Shape{g.patch_size(), g.out_h() * g.out_w()});
  im2col(g, img.data(), col.data());
  const Tensor out = matmul(w, col);  // [4, OH*OW]

  for (std::int64_t co = 0; co < 4; ++co)
    for (std::int64_t oy = 0; oy < g.out_h(); ++oy)
      for (std::int64_t ox = 0; ox < g.out_w(); ++ox) {
        double acc = 0.0;
        for (std::int64_t c = 0; c < 2; ++c)
          for (std::int64_t kh = 0; kh < 3; ++kh)
            for (std::int64_t kw = 0; kw < 3; ++kw) {
              const std::int64_t iy = oy + kh - 1;
              const std::int64_t ix = ox + kw - 1;
              if (iy < 0 || iy >= 6 || ix < 0 || ix >= 6) continue;
              acc += static_cast<double>(w.at({co, (c * 3 + kh) * 3 + kw})) *
                     img.at({c, iy, ix});
            }
        EXPECT_NEAR(out.at({co, oy * g.out_w() + ox}), acc, 1e-4)
            << co << "," << oy << "," << ox;
      }
}

TEST(Col2im, IsExactAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y.
  util::Rng rng(11);
  const auto g = make_geom(3, 5, 7, 3, 2, 1);
  const std::int64_t img_n = g.channels * g.height * g.width;
  const std::int64_t col_n = g.patch_size() * g.out_h() * g.out_w();
  const Tensor x = Tensor::randn(Shape{img_n}, rng);
  const Tensor y = Tensor::randn(Shape{col_n}, rng);

  std::vector<float> col(static_cast<std::size_t>(col_n), 0.0f);
  im2col(g, x.data(), col.data());
  double lhs = 0.0;
  for (std::int64_t i = 0; i < col_n; ++i)
    lhs += static_cast<double>(col[static_cast<std::size_t>(i)]) * y[i];

  std::vector<float> back(static_cast<std::size_t>(img_n), 0.0f);
  col2im_ld(g, y.data(), back.data(), g.out_h() * g.out_w(), 0);
  double rhs = 0.0;
  for (std::int64_t i = 0; i < img_n; ++i)
    rhs += static_cast<double>(back[static_cast<std::size_t>(i)]) * x[i];

  EXPECT_NEAR(lhs, rhs, 1e-2);
}

/// Per-element col2im in the same (row, oy, ox) accumulation order.
void naive_col2im_ld(const ConvGeometry& g, const float* columns,
                     float* image_grad, std::int64_t ld, std::int64_t col0) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  for (std::int64_t c = 0; c < g.channels; ++c)
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        for (std::int64_t oy = 0; oy < oh; ++oy)
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t iy = oy * g.stride_h + kh - g.pad_h;
            const std::int64_t ix = ox * g.stride_w + kw - g.pad_w;
            if (iy >= 0 && iy < g.height && ix >= 0 && ix < g.width)
              image_grad[(c * g.height + iy) * g.width + ix] +=
                  columns[row * ld + col0 + oy * ow + ox];
          }
      }
}

// col2im_ld computes each kernel column's valid output range once instead
// of testing bounds per element; it must equal the per-element reference
// exactly, including the padded edges, stride 2, rectangular inputs and
// inputs narrower (or shorter) than the kernel.
TEST(Col2imLd, MatchesPerElementReference) {
  struct Case {
    std::int64_t c, h, w, kh, kw, stride, pad;
  };
  std::vector<Case> cases;
  for (const std::int64_t stride : {1, 2})
    for (const std::int64_t pad : {0, 1, 2}) {
      cases.push_back({2, 7, 9, 3, 3, stride, pad});
      cases.push_back({1, 6, 5, 5, 2, stride, pad});
      if (pad > 0) {
        cases.push_back({2, 2, 2, 3, 3, stride, pad});  // narrower than kernel
        cases.push_back({1, 5, 1, 2, 3, stride, pad});  // one column wide
      }
    }
  std::uint64_t seed = 1;
  for (const Case& cs : cases) {
    ConvGeometry g;
    g.channels = cs.c;
    g.height = cs.h;
    g.width = cs.w;
    g.kernel_h = cs.kh;
    g.kernel_w = cs.kw;
    g.stride_h = g.stride_w = cs.stride;
    g.pad_h = g.pad_w = cs.pad;
    g.validate();
    const std::int64_t ohw = g.out_h() * g.out_w();
    // A second sample's block in a wider matrix: columns [ohw + 3, 2*ohw + 3).
    const std::int64_t ld = 2 * ohw + 3;
    const std::int64_t col0 = ohw + 3;
    util::Rng rng(seed++);
    const Tensor cols = Tensor::randn(Shape{g.patch_size() * ld}, rng);
    const Tensor grad0 = Tensor::randn(Shape{cs.c * cs.h * cs.w}, rng);
    Tensor grad_got = grad0.clone();
    Tensor grad_want = grad0.clone();
    col2im_ld(g, cols.data(), grad_got.data(), ld, col0);
    naive_col2im_ld(g, cols.data(), grad_want.data(), ld, col0);
    EXPECT_EQ(std::memcmp(grad_got.data(), grad_want.data(),
                          static_cast<std::size_t>(grad_got.numel()) *
                              sizeof(float)),
              0)
        << "col2im_ld c" << cs.c << " " << cs.h << "x" << cs.w << " k"
        << cs.kh << "x" << cs.kw << " s" << cs.stride << " p" << cs.pad;
  }
}

// ---- implicit im2col --------------------------------------------------------

struct ConvCase {
  std::int64_t batch, c, h, w, kh, kw, stride, pad, m;
};

std::string describe(const ConvCase& cs) {
  std::ostringstream oss;
  oss << "n" << cs.batch << " c" << cs.c << " " << cs.h << "x" << cs.w
      << " k" << cs.kh << "x" << cs.kw << " s" << cs.stride << " p" << cs.pad
      << " m" << cs.m;
  return oss.str();
}

ConvGeometry geometry_of(const ConvCase& cs) {
  ConvGeometry g;
  g.channels = cs.c;
  g.height = cs.h;
  g.width = cs.w;
  g.kernel_h = cs.kh;
  g.kernel_w = cs.kw;
  g.stride_h = g.stride_w = cs.stride;
  g.pad_h = g.pad_w = cs.pad;
  g.validate();
  return g;
}

/// Stride 1 and 2, padding 0-2, kernels wider than the input, a patch
/// that crosses the 256-deep K slab (12 * 5 * 5 = 300), single samples and
/// batches, pixel counts off the 8-column panel grid and past the 512-wide
/// N block, and an M large enough to split over row blocks.
std::vector<ConvCase> conv_cases() {
  std::vector<ConvCase> cases;
  for (const std::int64_t stride : {1, 2})
    for (const std::int64_t pad : {0, 1, 2}) {
      cases.push_back({1, 2, 7, 9, 3, 3, stride, pad, 5});
      cases.push_back({3, 1, 6, 5, 5, 2, stride, pad, 3});
      cases.push_back({2, 3, 8, 8, 5, 5, stride, pad, 8});
      if (pad > 0) {
        cases.push_back({2, 2, 2, 2, 3, 3, stride, pad, 4});  // kernel > input
        cases.push_back({3, 1, 5, 1, 2, 3, stride, pad, 2});  // one column
      }
    }
  cases.push_back({1, 12, 6, 6, 5, 5, 1, 2, 16});   // patch 300 > KC
  cases.push_back({3, 12, 7, 5, 5, 5, 1, 1, 7});    // ... and odd pixels
  cases.push_back({3, 4, 16, 16, 3, 3, 1, 1, 16});  // 768 pixels > NC
  cases.push_back({2, 3, 9, 9, 3, 3, 1, 1, 300});   // 3 row blocks of 128
  return cases;
}

/// Random operand with a NaN and both infinities planted, as fault
/// injection can leave in a weight tensor.
Tensor faulty_randn(const Shape& shape, util::Rng& rng) {
  Tensor t = Tensor::randn(shape, rng);
  const std::int64_t n = t.numel();
  t[0] = std::numeric_limits<float>::quiet_NaN();
  t[n / 2] = std::numeric_limits<float>::infinity();
  t[n - 1] = -std::numeric_limits<float>::infinity();
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// The forward product W x columns: packing from the input must give the
// same bits as materializing the column matrix and calling gemm_raw.
TEST(ImplicitIm2col, ForwardMatchesMaterializedColumns) {
  std::uint64_t seed = 100;
  for (const ConvCase& cs : conv_cases()) {
    const ConvGeometry g = geometry_of(cs);
    const std::int64_t patch = g.patch_size();
    const std::int64_t pixels = cs.batch * g.out_h() * g.out_w();
    util::Rng rng(seed++);
    const Tensor x = Tensor::randn(Shape{cs.batch, cs.c, cs.h, cs.w}, rng);
    const Tensor w = faulty_randn(Shape{cs.m, patch}, rng);
    Tensor cols(Shape{patch, pixels});
    im2col_batch(g, x.data(), cs.batch, cols.data());

    for (const float beta : {0.0f, 1.0f}) {
      const Tensor c0 = Tensor::randn(Shape{cs.m, pixels}, rng);
      Tensor want = c0.clone();
      Tensor got = c0.clone();
      gemm_raw(Trans::kNo, Trans::kNo, cs.m, pixels, patch, 1.0f, w.data(),
               patch, cols.data(), pixels, beta, want.data(), pixels);
      gemm_conv_raw(Trans::kNo, Trans::kNo, cs.m, 1.0f, w.data(), patch, g,
                    x.data(), cs.batch, beta, got.data(), pixels);
      EXPECT_TRUE(same_bits(got, want)) << describe(cs) << " beta " << beta;
    }
  }
}

// The weight-gradient product G x columnsᵀ (columns packed transposed,
// the pixel axis as K): same bits as the materialized reference.
TEST(ImplicitIm2col, WeightGradMatchesMaterializedColumns) {
  std::uint64_t seed = 200;
  for (const ConvCase& cs : conv_cases()) {
    const ConvGeometry g = geometry_of(cs);
    const std::int64_t patch = g.patch_size();
    const std::int64_t pixels = cs.batch * g.out_h() * g.out_w();
    util::Rng rng(seed++);
    const Tensor x = Tensor::randn(Shape{cs.batch, cs.c, cs.h, cs.w}, rng);
    const Tensor grad = faulty_randn(Shape{cs.m, pixels}, rng);
    Tensor cols(Shape{patch, pixels});
    im2col_batch(g, x.data(), cs.batch, cols.data());

    const Tensor dw0 = Tensor::randn(Shape{cs.m, patch}, rng);
    Tensor want = dw0.clone();
    Tensor got = dw0.clone();
    gemm_raw(Trans::kNo, Trans::kYes, cs.m, patch, pixels, 1.0f, grad.data(),
             pixels, cols.data(), pixels, 1.0f, want.data(), patch);
    gemm_conv_raw(Trans::kNo, Trans::kYes, cs.m, 1.0f, grad.data(), pixels,
                  g, x.data(), cs.batch, 1.0f, got.data(), patch);
    EXPECT_TRUE(same_bits(got, want)) << describe(cs);
  }
}

// Conv2d end to end in every mode: the forward output (bias added after
// the product) and, in train mode, the weight gradient packed from the
// cached input equal the materialized lowering bit for bit.
TEST(ImplicitIm2col, Conv2dMatchesMaterializedLowering) {
  const nn::Conv2dSpec spec{12, 6, 5, 1, 2};
  util::Rng rng(300);
  nn::Conv2d conv(spec, rng);
  const std::int64_t n = 3, h = 7, w = 6;
  const Tensor x = Tensor::randn(Shape{n, spec.in_channels, h, w}, rng);
  ConvGeometry g;
  g.channels = spec.in_channels;
  g.height = h;
  g.width = w;
  g.kernel_h = g.kernel_w = spec.kernel;
  g.pad_h = g.pad_w = spec.padding;
  g.validate();
  const std::int64_t patch = g.patch_size();
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t cout = spec.out_channels;
  Tensor cols(Shape{patch, n * ohw});
  im2col_batch(g, x.data(), n, cols.data());

  Tensor raw(Shape{cout, n * ohw});
  gemm_raw(Trans::kNo, Trans::kNo, cout, n * ohw, patch, 1.0f,
           conv.weight().value.data(), patch, cols.data(), n * ohw, 0.0f,
           raw.data(), n * ohw);
  Tensor want(Shape{n, cout, g.out_h(), g.out_w()});
  for (std::int64_t co = 0; co < cout; ++co)
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < ohw; ++j)
        want.data()[(i * cout + co) * ohw + j] =
            raw.data()[co * n * ohw + i * ohw + j] + conv.bias().value[co];
  for (const nn::Mode mode : {nn::Mode::kEval, nn::Mode::kAttack,
                              nn::Mode::kTrain})
    EXPECT_TRUE(same_bits(conv.forward(x, mode), want))
        << "mode " << static_cast<int>(mode);

  // Train mode ran last; its backward's dW is G x columnsᵀ with G the
  // upstream gradient in [Cout, N*OHW] order.
  const Tensor gy = Tensor::randn(want.shape(), rng);
  Tensor gm(Shape{cout, n * ohw});
  for (std::int64_t co = 0; co < cout; ++co)
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < ohw; ++j)
        gm.data()[co * n * ohw + i * ohw + j] =
            gy.data()[(i * cout + co) * ohw + j];
  conv.weight().grad.fill(0.0f);
  Tensor dw_want(Shape{cout, patch});
  gemm_raw(Trans::kNo, Trans::kYes, cout, patch, n * ohw, 1.0f, gm.data(),
           n * ohw, cols.data(), n * ohw, 1.0f, dw_want.data(), patch);
  conv.backward(gy);
  EXPECT_TRUE(same_bits(conv.weight().grad, dw_want));
}

/// dx the materialized way: the upstream gradient [n, m, OHW] reordered to
/// G [m, n*OHW], the column-matrix gradient Wᵀ x G through gemm_raw, then
/// col2im_ld of each sample's block into a zeroed image.
Tensor materialized_input_grad(const ConvGeometry& g, const Tensor& w,
                               std::int64_t m, const Tensor& grad,
                               std::int64_t n) {
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t patch = g.patch_size();
  Tensor gm(Shape{m, n * ohw});
  for (std::int64_t o = 0; o < m; ++o)
    for (std::int64_t i = 0; i < n; ++i)
      std::memcpy(gm.data() + o * n * ohw + i * ohw,
                  grad.data() + (i * m + o) * ohw, sizeof(float) * ohw);
  Tensor dcols(Shape{patch, n * ohw});
  gemm_raw(Trans::kYes, Trans::kNo, patch, n * ohw, m, 1.0f, w.data(), patch,
           gm.data(), n * ohw, 0.0f, dcols.data(), n * ohw);
  Tensor dx(Shape{n, g.channels, g.height, g.width});
  const std::int64_t image = g.channels * g.height * g.width;
  for (std::int64_t i = 0; i < n; ++i)
    col2im_ld(g, dcols.data(), dx.data() + i * image, n * ohw, i * ohw);
  return dx;
}

/// Random operand, optionally with a NaN, both infinities and a -0.0f
/// planted. The NaN carries x86's default-NaN bits, which is also what
/// 0 x Inf and Inf - Inf produce, so every NaN in a result has the same
/// bits: when both operands of an add are NaN, which one's payload the sum
/// keeps depends on the operand order the compiler emits for `a += b`, not
/// on the kernel's summation order, and memcmp would otherwise test that.
Tensor special_randn(const Shape& shape, bool specials, util::Rng& rng) {
  Tensor t = Tensor::randn(shape, rng);
  if (!specials) return t;
  const std::int64_t n = t.numel();
  t[n / 5] = -std::numeric_limits<float>::quiet_NaN();
  t[n / 3] = -0.0f;
  t[n / 2] = std::numeric_limits<float>::infinity();
  t[n - 1] = -std::numeric_limits<float>::infinity();
  return t;
}

// The input gradient computed straight into the image must equal Wᵀ x G
// plus col2im bit for bit: every conv_cases() geometry (m is Cout here, so
// 300 crosses the 256-deep K slab), then Cout 1, 3, 16 and 70 on shapes
// whose output planes are off the 8-pixel grid, each once with finite
// operands and once with NaN, ±Inf and -0.0f in both W and G.
TEST(ImplicitIm2col, InputGradMatchesMaterializedColumns) {
  std::vector<ConvCase> cases = conv_cases();
  for (const std::int64_t m : {1, 3, 16, 70}) {
    cases.push_back({1, 1, 16, 16, 5, 5, 1, 2, m});
    cases.push_back({3, 3, 8, 8, 5, 5, 1, 2, m});
    cases.push_back({2, 2, 7, 5, 3, 3, 2, 1, m});
    cases.push_back({2, 1, 3, 3, 5, 4, 1, 2, m});  // kernel > input
  }
  std::uint64_t seed = 400;
  for (const ConvCase& cs : cases)
    for (const bool specials : {false, true}) {
      const ConvGeometry g = geometry_of(cs);
      util::Rng rng(seed++);
      const Tensor w = special_randn(Shape{cs.m, g.patch_size()}, specials,
                                     rng);
      const Tensor grad = special_randn(
          Shape{cs.batch, cs.m, g.out_h(), g.out_w()}, specials, rng);
      const Tensor want = materialized_input_grad(g, w, cs.m, grad, cs.batch);
      Tensor got = Tensor::randn(want.shape(), rng);  // fully overwritten
      conv_input_grad(g, w.data(), cs.m, grad.data(), cs.batch, got.data());
      EXPECT_TRUE(same_bits(got, want))
          << describe(cs) << (specials ? " with specials" : "");
    }
}

// Conv2d::backward's dx after an attack forward and after a train forward:
// both equal the materialized route, so PGD differentiates through exactly
// the gradient training computes.
TEST(ImplicitIm2col, InputGradOfConv2dMatchesMaterializedLowering) {
  for (const nn::Conv2dSpec spec :
       {nn::Conv2dSpec{1, 3, 5, 1, 2}, nn::Conv2dSpec{3, 8, 5, 1, 2},
        nn::Conv2dSpec{8, 16, 5, 1, 2}, nn::Conv2dSpec{4, 6, 3, 2, 1}}) {
    util::Rng rng(500 + spec.in_channels);
    nn::Conv2d conv(spec, rng);
    const std::int64_t n = 3, h = 9, w = 7;
    const Tensor x = Tensor::randn(Shape{n, spec.in_channels, h, w}, rng);
    ConvGeometry g;
    g.channels = spec.in_channels;
    g.height = h;
    g.width = w;
    g.kernel_h = g.kernel_w = spec.kernel;
    g.stride_h = g.stride_w = spec.stride;
    g.pad_h = g.pad_w = spec.padding;
    g.validate();
    const Tensor gy = special_randn(
        Shape{n, spec.out_channels, g.out_h(), g.out_w()}, true, rng);
    const Tensor want = materialized_input_grad(g, conv.weight().value,
                                                spec.out_channels, gy, n);
    for (const nn::Mode mode : {nn::Mode::kAttack, nn::Mode::kTrain}) {
      conv.forward(x, mode);
      EXPECT_TRUE(same_bits(conv.backward(gy), want))
          << conv.name() << " mode " << static_cast<int>(mode);
    }
  }
}

// conv_input_grad counts as the Wᵀ G GEMM it replaces — one call of
// 2·Cout·patch·pixels flops — so the GEMM work counters still see conv dx.
TEST(ImplicitIm2col, InputGradCountsItsGemmWork) {
  const bool was_enabled = obs::Registry::enabled();
  obs::Registry::instance().set_enabled(true);
  const obs::Counter& calls =
      obs::Registry::instance().counter("tensor.gemm.calls");
  const obs::Counter& flops =
      obs::Registry::instance().counter("tensor.gemm.flops");
  const ConvGeometry g = make_geom(3, 9, 7, 5, 2, 1);
  const std::int64_t cout = 4, batch = 3;
  util::Rng rng(600);
  const Tensor w = Tensor::randn(Shape{cout, g.patch_size()}, rng);
  const Tensor grad =
      Tensor::randn(Shape{batch, cout, g.out_h(), g.out_w()}, rng);
  Tensor dx(Shape{batch, g.channels, g.height, g.width});
  const std::int64_t calls0 = calls.value();
  const std::int64_t flops0 = flops.value();
  conv_input_grad(g, w.data(), cout, grad.data(), batch, dx.data());
  EXPECT_EQ(calls.value() - calls0, 1);
  EXPECT_EQ(flops.value() - flops0,
            2 * cout * g.patch_size() * batch * g.out_h() * g.out_w());
  obs::Registry::instance().set_enabled(was_enabled);
}

}  // namespace
}  // namespace snnsec::tensor
