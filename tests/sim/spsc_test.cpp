// sim::SpscRing single-threaded semantics: a full ring rejects a push
// without consuming the value, and pops come back in FIFO order. The
// cross-thread publish protocol is proven by the spsc_* model-check
// harnesses (src/mc/harnesses.cpp).
#include "sim/spsc.h"

#include <gtest/gtest.h>

namespace netseer::sim {
namespace {

TEST(SpscRing, RejectsWithoutConsumingAndKeepsFifo) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  int rejected = 99;
  EXPECT_FALSE(ring.try_push(rejected));
  EXPECT_EQ(rejected, 99);  // full push must not consume the value
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

}  // namespace
}  // namespace netseer::sim
