// Table 5: lines-of-code metrics. Counts non-blank, non-comment-only lines
// per module of this repository and prints them next to the paper's reported
// UpDown numbers (UD column of Table 5) for the corresponding component.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#ifndef UD_SOURCE_DIR
#define UD_SOURCE_DIR "."
#endif

namespace fs = std::filesystem;

namespace {

std::uint64_t count_loc(const fs::path& path) {
  std::uint64_t loc = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".cpp" && ext != ".hpp") continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      const auto first = line.find_first_not_of(" \t");
      if (first == std::string::npos) continue;               // blank
      if (line.compare(first, 2, "//") == 0) continue;        // comment-only
      ++loc;
    }
  }
  return loc;
}

struct Row {
  const char* component;
  const char* subdir;
  const char* paper_ud;  ///< the paper's Table 5 UD LoC where comparable
};

}  // namespace

int main() {
  const fs::path root = UD_SOURCE_DIR;
  const std::vector<Row> rows = {
      // A single-file row counts its header too: PR's and TC's kernels
      // live in pagerank.hpp and tc.hpp, shared with the serve layer's
      // kPageRank and kTriangles queries.
      {"PR", "src/apps/pagerank.cpp", "218"},
      {"BFS", "src/apps/bfs.cpp", "226"},
      {"TC", "src/apps/tc.cpp", "312"},
      {"Ingestion (WF2 K1)", "src/apps/ingestion.cpp", "782"},
      {"Partial Match (WF2)", "src/apps/partial_match.cpp", "-"},
      {"Scalable Hash Table", "src/abstractions/sht.cpp", "4764"},
      {"Parallel Graph Abstraction", "src/abstractions/parallel_graph.cpp", "170"},
      {"KV map-shuffle-reduce", "src/kvmsr/kvmsr.cpp", "1586"},
      {"Scalable Global Sort", "src/abstractions/global_sort.cpp", "158"},
      {"SHMEM (put/get, reductions)", "src/abstractions/shmem.cpp", "1914"},
      {"Combining Cache (fetch&add)", "src/kvmsr/combining_cache.cpp", "232"},
      {"DRAMmalloc (global malloc)", "src/mem", "52"},
      {"TFORM", "src/tform", "-"},
      {"Simulator core", "src/sim", "-"},
      {"Serving (queries + scheduler)", "src/serve", "-"},
  };

  std::printf("Table 5 reproduction: code sizes (LoC, comments/blanks excluded)\n");
  std::printf("%-30s %12s %12s\n", "Component", "this repo", "paper (UD)");
  std::uint64_t total = 0;
  for (const auto& r : rows) {
    const fs::path p = root / r.subdir;
    std::uint64_t loc = 0;
    if (fs::is_directory(p))
      loc = count_loc(p);
    else if (fs::exists(p)) {
      // Single file: count it plus its header, if any.
      loc = 0;
      for (const auto& candidate :
           {p, fs::path(p).replace_extension(".hpp")}) {
        if (!fs::exists(candidate)) continue;
        std::ifstream in(candidate);
        std::string line;
        while (std::getline(in, line)) {
          const auto first = line.find_first_not_of(" \t");
          if (first == std::string::npos) continue;
          if (line.compare(first, 2, "//") == 0) continue;
          ++loc;
        }
      }
    }
    total += loc;
    std::printf("%-30s %12llu %12s\n", r.component, (unsigned long long)loc, r.paper_ud);
  }
  std::printf("%-30s %12llu %12s\n", "Sum of listed components", (unsigned long long)total,
              "~11k");
  std::printf("(LoC ratios differ: the paper counts UDWeave source; this repo's C++\n"
              " embedded DSL carries simulator plumbing in the same files.)\n");
  return 0;
}
