// Environment-variable parsing tests (the fuzz harness's strict parsers in
// tests/fuzz_util.h, and the POLYPART_TRACE hook in support/trace.cpp).  The contract under test: a malformed value
// fails fast with a diagnostic naming the variable — it never silently falls
// back to a default the user did not ask for.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>

#include "fuzz_util.h"
#include "support/error.h"
#include "support/trace.h"

namespace polypart {
namespace {

/// RAII environment override restoring the previous value on destruction,
/// so a variable the caller exported (a pinned POLYPART_FUZZ_SEED) survives
/// the test.
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvVar() {
    if (saved_)
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

std::string message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(EnvKnobs, ValueTreatsEmptyAsUnset) {
  EnvVar v("POLYPART_TEST_KNOB", nullptr);
  EXPECT_FALSE(fuzz::envValue("POLYPART_TEST_KNOB").has_value());
  ::setenv("POLYPART_TEST_KNOB", "", 1);
  EXPECT_FALSE(fuzz::envValue("POLYPART_TEST_KNOB").has_value());
  ::setenv("POLYPART_TEST_KNOB", "x", 1);
  EXPECT_EQ(fuzz::envValue("POLYPART_TEST_KNOB"), "x");
}

TEST(EnvKnobs, U64ParsesDecimalAndHexAndRejectsGarbage) {
  EnvVar v("POLYPART_TEST_KNOB", nullptr);
  EXPECT_FALSE(fuzz::envU64("POLYPART_TEST_KNOB").has_value());
  ::setenv("POLYPART_TEST_KNOB", "42", 1);
  EXPECT_EQ(fuzz::envU64("POLYPART_TEST_KNOB"), u64{42});
  ::setenv("POLYPART_TEST_KNOB", "0x2a", 1);
  EXPECT_EQ(fuzz::envU64("POLYPART_TEST_KNOB"), u64{42});
  ::setenv("POLYPART_TEST_KNOB", "18446744073709551615", 1);
  EXPECT_EQ(fuzz::envU64("POLYPART_TEST_KNOB"), ~u64{0});
  for (const char* bad :
       {"pony", "12abc", "-3", "99999999999999999999999", "4.2"}) {
    ::setenv("POLYPART_TEST_KNOB", bad, 1);
    std::string msg =
        message([] { (void)fuzz::envU64("POLYPART_TEST_KNOB"); });
    EXPECT_NE(msg.find("POLYPART_TEST_KNOB"), std::string::npos)
        << bad << ": " << msg;
  }
}

TEST(EnvKnobs, FuzzSeedPinsReplayAndRejectsGarbage) {
  EnvVar v("POLYPART_FUZZ_SEED", nullptr);
  EXPECT_FALSE(fuzz::seedPinned());
  EXPECT_EQ(fuzz::baseSeed(7), u64{7});
  ::setenv("POLYPART_FUZZ_SEED", "", 1);
  EXPECT_FALSE(fuzz::seedPinned());  // empty = unset, like every other knob
  ::setenv("POLYPART_FUZZ_SEED", "12345", 1);
  EXPECT_TRUE(fuzz::seedPinned());
  EXPECT_EQ(fuzz::baseSeed(7), u64{12345});
  EXPECT_EQ(fuzz::caseCount(100), 1);
  // The old parser silently ran the full sweep on a typo'd seed; now the
  // typo is an error naming the variable.
  ::setenv("POLYPART_FUZZ_SEED", "12x45", 1);
  std::string msg = message([] { (void)fuzz::baseSeed(7); });
  EXPECT_NE(msg.find("POLYPART_FUZZ_SEED"), std::string::npos) << msg;
}

TEST(EnvKnobs, TraceSessionRejectsUnwritablePaths) {
  if constexpr (!trace::kTracingCompiledIn) GTEST_SKIP();
  EnvVar v("POLYPART_TRACE", "/nonexistent-dir-polypart/trace.json");
  std::string msg = message([] { trace::EnvTraceSession session; });
  EXPECT_NE(msg.find("POLYPART_TRACE"), std::string::npos) << msg;
}

}  // namespace
}  // namespace polypart
