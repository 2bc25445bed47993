// Shared harness for the figure/table reproduction binaries.
//
// Every bench prints the same rows/series the paper reports (speedups
// normalized to the 1-node configuration, plus absolute rates). Machine
// sizes and graph scales are reduced to what one host core simulates in
// seconds; set UD_BENCH_SCALE=1|2|3 to enlarge (2 roughly quadruples the
// work, 3 is a long run). UD_BENCH_ENFORCE turns a bench's floors into exit
// codes (see enforce_mode()).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.hpp"
#include "common/types.hpp"

namespace updown::bench {

/// UD_BENCH_SCALE: 1 (default, also for unset, empty or 0), 2 or 3; anything
/// else throws std::invalid_argument.
inline int scale_level() { return static_cast<int>(env_u64("UD_BENCH_SCALE", 1, 3)); }

/// Which floors a bench turns into a failing exit code.
enum class Enforce {
  kOff,     ///< report only
  kRatios,  ///< box-independent gates (ratios, simulated-time floors)
  kAll,     ///< also absolute host-throughput floors of the reference box
};

/// UD_BENCH_ENFORCE: unset, empty or "0" = off, "ratios" = ratio gates only,
/// "1" = every floor. Anything else throws std::invalid_argument, so a typo
/// cannot silently enable or disable a gate.
inline Enforce enforce_mode() {
  const char* v = std::getenv("UD_BENCH_ENFORCE");
  if (v && std::string_view(v) == "ratios") return Enforce::kRatios;
  try {
    return env_u64("UD_BENCH_ENFORCE", 0, 1) == 1 ? Enforce::kAll : Enforce::kOff;
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string("UD_BENCH_ENFORCE='") + v +
                                "': expected unset, 0, 1 or ratios");
  }
}

/// True when any floor is enforced.
inline bool enforcing() { return enforce_mode() != Enforce::kOff; }

/// Node counts for strong-scaling sweeps at the current scale level.
inline std::vector<std::uint32_t> node_sweep() {
  switch (scale_level()) {
    case 2:
      return {1, 2, 4, 8, 16, 32};
    case 3:
      return {1, 2, 4, 8, 16, 32, 64};
    default:
      return {1, 2, 4, 8, 16};
  }
}

/// Graph scale (log2 vertices): the base is chosen per app so that per-lane
/// work exceeds the latency floor at the largest default machine; higher
/// UD_BENCH_SCALE levels grow it further.
inline std::uint32_t graph_scale(std::uint32_t base) { return base + (scale_level() - 1); }

struct Series {
  std::string name;
  std::vector<double> values;  ///< indexed like the node sweep
};

inline void print_table(const std::string& title, const std::string& row_label,
                        const std::vector<std::uint32_t>& rows,
                        const std::vector<Series>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-8s", row_label.c_str());
  for (const auto& s : columns) std::printf("  %14s", s.name.c_str());
  std::printf("\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::printf("%-8u", rows[r]);
    for (const auto& s : columns) {
      if (r < s.values.size())
        std::printf("  %14.2f", s.values[r]);
      else
        std::printf("  %14s", "-");
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

inline std::vector<double> speedups(const std::vector<Tick>& durations) {
  std::vector<double> out;
  out.reserve(durations.size());
  for (Tick t : durations)
    out.push_back(durations.empty() || t == 0
                      ? 0.0
                      : static_cast<double>(durations.front()) / static_cast<double>(t));
  return out;
}

/// Tiny streaming writer for the BENCH_*.json artifacts (the idiom micro_sim
/// hand-rolled, shared so every bench emits machine-readable results). No
/// escaping or validation: keys and string values are trusted literals from
/// the bench code itself. All calls no-op if the file failed to open; check
/// ok() once and report.
class Json {
 public:
  explicit Json(const std::string& path) : path_(path), f_(std::fopen(path.c_str(), "w")) {
    if (f_) {
      std::fputc('{', f_);
      push('}');
    }
  }
  ~Json() { close(); }
  Json(const Json&) = delete;
  Json& operator=(const Json&) = delete;

  bool ok() const { return f_ != nullptr; }

  void u64(const char* key, std::uint64_t v) {
    item(key);
    if (f_) std::fprintf(f_, "%llu", static_cast<unsigned long long>(v));
  }
  void num(const char* key, double v) {
    item(key);
    if (f_) std::fprintf(f_, "%.6g", v);
  }
  void str(const char* key, const std::string& v) {
    item(key);
    if (f_) std::fprintf(f_, "\"%s\"", v.c_str());
  }
  void boolean(const char* key, bool v) {
    item(key);
    if (f_) std::fputs(v ? "true" : "false", f_);
  }
  void begin_array(const char* key) {
    item(key);
    if (f_) std::fputc('[', f_);
    push(']');
  }
  /// Array elements pass key=nullptr (no name inside an array).
  void begin_object(const char* key = nullptr) {
    item(key);
    if (f_) std::fputc('{', f_);
    push('}');
  }
  void end() {  // close the innermost open array/object
    if (!f_ || closers_.empty()) return;
    std::fprintf(f_, "\n%c", closers_.back());
    closers_.pop_back();
    firsts_.pop_back();
  }
  /// Closes every open scope and the file; prints the artifact name once.
  void close() {
    if (!f_) return;
    while (!closers_.empty()) end();
    std::fputc('\n', f_);
    std::fclose(f_);
    f_ = nullptr;
    std::printf("wrote %s\n", path_.c_str());
  }

 private:
  void push(char closer) {
    closers_.push_back(closer);
    firsts_.push_back(true);
  }
  void item(const char* key) {
    if (!f_) return;
    if (!firsts_.back()) std::fputc(',', f_);
    firsts_.back() = false;
    std::fputc('\n', f_);
    if (key) std::fprintf(f_, "\"%s\": ", key);
  }

  std::string path_;
  std::FILE* f_ = nullptr;
  std::vector<char> closers_;
  std::vector<bool> firsts_;
};

}  // namespace updown::bench
