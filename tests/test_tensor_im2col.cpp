// im2col/col2im geometry, correctness, and adjointness.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace snnsec::tensor {
namespace {

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
  col2im(g, y.data(), back.data());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < img_n; ++i)
    rhs += static_cast<double>(back[static_cast<std::size_t>(i)]) * x[i];

  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Im2colLd, StridedLayoutMatchesContiguousPerSample) {
  util::Rng rng(13);
  const auto g = make_geom(2, 4, 4, 3, 1, 1);
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t img_n = g.channels * g.height * g.width;
  const Tensor imgs = Tensor::randn(Shape{3 * img_n}, rng);  // 3 samples

  // Batched: one wide matrix.
  Tensor wide(Shape{g.patch_size(), 3 * ohw});
  for (std::int64_t i = 0; i < 3; ++i)
    im2col_ld(g, imgs.data() + i * img_n, wide.data(), 3 * ohw, i * ohw);

  // Reference: per-sample contiguous.
  for (std::int64_t i = 0; i < 3; ++i) {
    Tensor single(Shape{g.patch_size(), ohw});
    im2col(g, imgs.data() + i * img_n, single.data());
    for (std::int64_t r = 0; r < g.patch_size(); ++r)
      for (std::int64_t j = 0; j < ohw; ++j)
        EXPECT_FLOAT_EQ(wide.at({r, i * ohw + j}), single.at({r, j}));
  }
}

/// Per-element im2col: bounds-tested at every (row, oy, ox).
void naive_im2col_ld(const ConvGeometry& g, const float* image, float* columns,
                     std::int64_t ld, std::int64_t col0) {
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
            const bool inside =
                iy >= 0 && iy < g.height && ix >= 0 && ix < g.width;
            columns[row * ld + col0 + oy * ow + ox] =
                inside ? image[(c * g.height + iy) * g.width + ix] : 0.0f;
          }
      }
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

// im2col_ld and col2im_ld compute each kernel column's valid output range
// once instead of testing bounds per element; they must equal the
// per-element references exactly, including the padded edges, stride 2,
// rectangular inputs and inputs narrower (or shorter) than the kernel.
TEST(Im2colLd, MatchesPerElementReference) {
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
    const Tensor img = Tensor::randn(Shape{cs.c * cs.h * cs.w}, rng);
    std::vector<float> got(static_cast<std::size_t>(g.patch_size() * ld),
                           7.0f);
    std::vector<float> want = got;
    im2col_ld(g, img.data(), got.data(), ld, col0);
    naive_im2col_ld(g, img.data(), want.data(), ld, col0);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << "im2col_ld c" << cs.c << " " << cs.h << "x" << cs.w << " k"
        << cs.kh << "x" << cs.kw << " s" << cs.stride << " p" << cs.pad;

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

}  // namespace
}  // namespace snnsec::tensor
