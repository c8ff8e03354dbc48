// Checked-build macros (-DSNNSEC_CHECKED=ON).
//
// Release builds must run as fast as the hardware allows, so pervasive
// bounds/shape checking cannot live in the always-on SNNSEC_CHECK tier.
// These macros form a second tier that compiles to *nothing* unless the
// build sets SNNSEC_CHECKED (CMake option of the same name): CI runs the
// full test suite once with the checked tier live, which is where
// off-by-one index arithmetic (col2im edges, pooling windows, flat-index
// walks) dies loudly instead of reading garbage.
//
//   SNNSEC_DCHECK(cond, msg)       — SNNSEC_CHECK, checked builds only.
//   SNNSEC_ASSERT_SHAPE(t, shape)  — tensor shape assertion, checked only.
//
// Both throw snnsec::util::Error (via SNNSEC_CHECK) so the checked test
// suite fails with file/line context rather than crashing.
#pragma once

#include "util/error.hpp"

#if defined(SNNSEC_CHECKED) && SNNSEC_CHECKED

#define SNNSEC_DCHECK(cond, msg) SNNSEC_CHECK(cond, msg)

#define SNNSEC_ASSERT_SHAPE(t, ...)                                        \
  SNNSEC_CHECK((t).shape() == (__VA_ARGS__),                               \
               "shape assertion failed: " << (t).shape().to_string()       \
                                          << " != expected "               \
                                          << (__VA_ARGS__).to_string())

#else

#define SNNSEC_DCHECK(cond, msg) \
  do {                           \
  } while (false)

#define SNNSEC_ASSERT_SHAPE(t, ...) \
  do {                              \
  } while (false)

#endif
