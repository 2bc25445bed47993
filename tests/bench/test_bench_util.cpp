// The bench knobs parse strictly: UD_BENCH_ENFORCE picks a gate tier and
// UD_BENCH_SCALE a size level, and a typo in either is an error rather than
// a silently enabled gate or a shrunken graph.
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

namespace updown::bench {
namespace {

/// Set (or, for nullptr, unset) an environment variable for one scope.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old, had_ = true;
    if (value) ::setenv(name, value, 1);
    else ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_) ::setenv(name_.c_str(), old_.c_str(), 1);
    else ::unsetenv(name_.c_str());
  }

 private:
  std::string name_, old_;
  bool had_ = false;
};

TEST(BenchEnv, EnforceUnsetEmptyOrZeroIsOff) {
  for (const char* v : {static_cast<const char*>(nullptr), "", "0"}) {
    EnvGuard g("UD_BENCH_ENFORCE", v);
    EXPECT_EQ(enforce_mode(), Enforce::kOff) << (v ? v : "<unset>");
    EXPECT_FALSE(enforcing());
  }
}

TEST(BenchEnv, EnforceOneIsAllAndRatiosIsRatiosOnly) {
  {
    EnvGuard g("UD_BENCH_ENFORCE", "1");
    EXPECT_EQ(enforce_mode(), Enforce::kAll);
    EXPECT_TRUE(enforcing());
  }
  EnvGuard g("UD_BENCH_ENFORCE", "ratios");
  EXPECT_EQ(enforce_mode(), Enforce::kRatios);
  EXPECT_TRUE(enforcing());
}

TEST(BenchEnv, EnforceTypoThrows) {
  for (const char* v : {"ratio", "yes", "2", "1x", " 1"}) {
    EnvGuard g("UD_BENCH_ENFORCE", v);
    EXPECT_THROW(enforce_mode(), std::invalid_argument) << v;
  }
}

TEST(BenchEnv, ScaleParsesStrictly) {
  {
    EnvGuard g("UD_BENCH_SCALE", nullptr);
    EXPECT_EQ(scale_level(), 1);
  }
  {
    EnvGuard g("UD_BENCH_SCALE", "3");
    EXPECT_EQ(scale_level(), 3);
  }
  for (const char* v : {"abc", "4", "-1"}) {
    EnvGuard g("UD_BENCH_SCALE", v);
    EXPECT_THROW(scale_level(), std::invalid_argument) << v;
  }
}

}  // namespace
}  // namespace updown::bench
