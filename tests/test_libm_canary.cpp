// Pins the exact bits the C math library returns at a few inputs that the
// scorer, the RNG, the fault planner, the telemetry and the Zipf sampler
// feed it. Every golden digest in the suite goes through these calls, so a
// different libm (another glibc release, musl, a vendor libm) shows up here
// as one named failure before it shows up as twenty digest mismatches.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace {

/// Hides `x` from the optimizer: a call on a constant would be folded at
/// compile time (GCC folds through MPFR) and never reach the libm.
double opaque(double x) {
  volatile double v = x;
  return v;
}

std::uint64_t bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

std::string hex(std::uint64_t b) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(b));
  return buf;
}

struct Case {
  const char* fn;
  double x;
  double y;  ///< pow's exponent; unused otherwise.
  std::uint64_t expected;
  const char* source;
};

double call(const Case& c) {
  const std::string fn = c.fn;
  const double x = opaque(c.x);
  if (fn == "exp") return std::exp(x);
  if (fn == "log") return std::log(x);
  if (fn == "sin") return std::sin(x);
  if (fn == "cos") return std::cos(x);
  return std::pow(x, opaque(c.y));
}

TEST(LibmCanary, ExpLogSinCosPowBitsArePinned) {
  const Case cases[] = {
      {"exp", -4.5, 0, 0x3f86c0504695c417, "core/score.cpp sigmoid"},
      {"exp", 0.75, 0, 0x4000ef9db467dcf8, "core/score.cpp sigmoid"},
      {"exp", 37.5, 0, 0x4351293919c201e5, "core/score.cpp sigmoid"},
      {"exp", -0.084, 0, 0x3fed6bfb18fb290d, "runtime/telemetry.cpp EWMA"},
      {"log", 0.3183098861837907, 0, 0xbff250d048e7a1bd,
       "util/rng.cpp Box-Muller"},
      {"log", 1e-300, 0, 0xc085963447f87fb5, "util/rng.cpp Box-Muller floor"},
      {"log", 0.1, 0, 0xc0026bb1bbb55515,
       "util/rng.cpp exponential, runtime/fault_plan.cpp gaps"},
      {"log", 0.8, 0, 0xbfcc8ff7c79a9a20,
       "util/rng.cpp exponential, runtime/fault_plan.cpp gaps"},
      // Box-Muller angles 2*pi*u at u = 0.618, 0.25 and 0.999.
      {"sin", 0x1.f1066c556505p+1, 0, 0xbfe59c538c9975e8, "util/rng.cpp"},
      {"sin", 0x1.921fb54442d18p+0, 0, 0x3ff0000000000000, "util/rng.cpp"},
      {"sin", 0x1.91b8c3ad68a3cp+2, 0, 0xbf79bc5a9d91f5d1, "util/rng.cpp"},
      {"cos", 0x1.f1066c556505p+1, 0, 0xbfe799b51bed946a, "util/rng.cpp"},
      {"cos", 0x1.921fb54442d18p+0, 0, 0x3c91a62633145c07, "util/rng.cpp"},
      {"cos", 0x1.91b8c3ad68a3cp+2, 0, 0x3fefffd69aa0b99d, "util/rng.cpp"},
      {"pow", 5.0, 1.1, 0x40177e0c8a8480a7, "util/zipf.cpp rank weights"},
      {"pow", 12.0, 0.9, 0x4022b82df7a28e8c, "util/zipf.cpp rank weights"},
  };
  for (const auto& c : cases) {
    const std::uint64_t got = bits(call(c));
    EXPECT_EQ(got, c.expected)
        << c.fn << "(" << hex(bits(c.x))
        << (std::string(c.fn) == "pow" ? ", " + hex(bits(c.y)) : "")
        << ") from " << c.source << ": got " << hex(got) << ", pinned "
        << hex(c.expected);
  }
}

}  // namespace
