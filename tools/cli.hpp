// Shared by the tools/ mains: strict numeric arguments and one error exit.
//
// A bad argument or input ("rmat_gen abc", an edge list with an id out of
// range) ends the tool with "<tool>: <message>" on stderr and exit status 1;
// a wrong argument count prints the usage line and exits 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

namespace updown::cli {

/// `arg` as a base-10 unsigned integer in [min, max]: digits only, over the
/// whole argument. Throws std::invalid_argument naming the argument `what`.
inline std::uint64_t parse_u64(const char* what, const char* arg, std::uint64_t min = 0,
                               std::uint64_t max = ~0ull) {
  std::uint64_t v = 0;
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, v, 10);
  if (ec == std::errc::invalid_argument || ptr != end || ptr == arg)
    throw std::invalid_argument(std::string(what) + " '" + arg +
                                "' is not a base-10 unsigned integer");
  if (ec == std::errc::result_out_of_range || v < min || v > max)
    throw std::invalid_argument(std::string(what) + " '" + arg + "' is outside [" +
                                std::to_string(min) + ", " + std::to_string(max) + "]");
  return v;
}

/// Run a tool's body, turning any exception into "<tool>: <what()>" on
/// stderr and exit status 1.
template <class Body>
int run(const char* tool, Body body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 1;
  }
}

}  // namespace updown::cli
