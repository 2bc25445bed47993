// Seed plumbing shared by the seeded fuzz binaries. Every case is derived
// purely from a 64-bit seed, so any failure is a one-line repro:
//
//   UD_FUZZ_SEED=<seed> ./tests/<binary>
//
// replays exactly the failing case (and nothing else). Without UD_FUZZ_SEED
// a sweep runs UD_FUZZ_CASES case seeds derived from the master seed
// UD_FUZZ_MASTER (default fixed). Case i's seed is splitmix64(master + i),
// so masters closer together than the case count share cases; CI's nightly
// job passes the date times 10^6, so each night's corpus is new yet
// reproducible, and each failure still reports its single-case repro seed.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace updown::fuzz {

constexpr std::uint64_t kDefaultMaster = 0xD1FFC0DEULL;

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::strtoull(v, nullptr, 0) : fallback;
}

/// The repro line printed on failure and in every scoped trace.
inline std::string repro(const char* binary, std::uint64_t case_seed) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "repro: UD_FUZZ_SEED=%llu ./tests/%s",
                static_cast<unsigned long long>(case_seed), binary);
  return buf;
}

/// Run `run_case(seed)` on UD_FUZZ_SEED alone when it is set, else on
/// UD_FUZZ_CASES (default `default_cases`) seeds derived from UD_FUZZ_MASTER,
/// stopping at the first case with a fatal failure and printing its repro.
template <class RunCase>
void sweep(const char* binary, int default_cases, RunCase run_case) {
  const char* replay = std::getenv("UD_FUZZ_SEED");
  if (replay && *replay) {
    run_case(std::strtoull(replay, nullptr, 0));
    return;
  }
  const std::uint64_t master = env_u64("UD_FUZZ_MASTER", kDefaultMaster);
  const int cases = static_cast<int>(env_u64("UD_FUZZ_CASES", default_cases));
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t case_seed = splitmix64(master + static_cast<std::uint64_t>(i));
    run_case(case_seed);
    if (::testing::Test::HasFatalFailure()) {
      // The scoped trace already carries the repro; print it unmissably too.
      std::fprintf(stderr, "[  FUZZ    ] case %d failed — %s\n", i,
                   repro(binary, case_seed).c_str());
      return;
    }
  }
}

}  // namespace updown::fuzz
