#include "tensor/im2col.hpp"

#include "util/checked.hpp"

namespace snnsec::tensor {

void ConvGeometry::validate() const {
  SNNSEC_CHECK(channels > 0 && height > 0 && width > 0,
               "ConvGeometry: non-positive input dims");
  SNNSEC_CHECK(kernel_h > 0 && kernel_w > 0, "ConvGeometry: non-positive kernel");
  SNNSEC_CHECK(stride_h > 0 && stride_w > 0, "ConvGeometry: non-positive stride");
  SNNSEC_CHECK(pad_h >= 0 && pad_w >= 0, "ConvGeometry: negative padding");
  SNNSEC_CHECK(out_h() > 0 && out_w() > 0,
               "ConvGeometry: empty output (" << out_h() << "x" << out_w()
                                              << ")");
}

}  // namespace snnsec::tensor
