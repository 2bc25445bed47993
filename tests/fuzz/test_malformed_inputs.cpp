// Seeded malformed-input corpus for the file and record readers. Each case
// writes a valid input — an edge list (write_edge_list), a binary CSR pair
// (write_binary), a split graph (write_split_binary) or a TFORM CSV record
// stream — corrupts it with byte flips, a truncation or an inflated length
// field, and feeds it to its reader (read_edge_list, read_binary,
// read_split_binary, Fst::csv().parse_all). The reader must either return a
// result that meets its own documented invariants or throw
// std::runtime_error; any other exception fails the case, and under
// ASan/UBSan so does any memory or UB report.
//
// Seeds and the one-line repro are fuzz_seeds.hpp's:
//
//   UD_FUZZ_SEED=<seed> ./tests/test_malformed_inputs
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/rng.hpp"
#include "fuzz_seeds.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/split_io.hpp"
#include "tform/fst.hpp"
#include "tform/stream_gen.hpp"

namespace updown {
namespace {

constexpr int kDefaultCases = 2000;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// XOR 1..4 bytes with nonzero masks. Half the flips hit the low byte of an
/// aligned u64 word and half flip a single bit, so binary files also see
/// small, plausible value changes that pass the readers' coarse checks and
/// reach the fine ones.
void flip_bytes(Xoshiro256& rng, std::string& bytes) {
  if (bytes.empty()) return;
  const std::uint64_t flips = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::size_t at =
        rng.below(2) == 0 ? rng.below(bytes.size()) : 8 * rng.below((bytes.size() + 7) / 8);
    const unsigned mask = rng.below(2) == 0 ? 1u << rng.below(8) : 1 + rng.below(255);
    bytes[at] ^= static_cast<char>(mask);
  }
}

/// Overwrite the u64 length field at `at` with a larger value: a little
/// larger, twice as large, or far beyond anything the file could hold.
void inflate_length(Xoshiro256& rng, std::string& bytes, std::size_t at) {
  std::uint64_t n = 0;
  std::memcpy(&n, bytes.data() + at, 8);
  switch (rng.below(4)) {
    case 0: n += 1 + rng.below(16); break;
    case 1: n = 2 * n + 1; break;
    case 2: n = 1ull << (32 + rng.below(32)); break;
    default: n = ~0ull; break;
  }
  std::memcpy(bytes.data() + at, &n, 8);
}

/// Corrupt `bytes` in place: byte flips, a truncation, or (when the format
/// has length fields at `length_fields`) one inflated length.
void mutate(Xoshiro256& rng, std::string& bytes, const std::vector<std::size_t>& length_fields) {
  switch (rng.below(length_fields.empty() ? 2 : 3)) {
    case 0: flip_bytes(rng, bytes); break;
    case 1: bytes.resize(rng.below(bytes.size() + 1)); break;
    default: inflate_length(rng, bytes, length_fields[rng.below(length_fields.size())]); break;
  }
}

void mutate_file(Xoshiro256& rng, const std::string& path,
                 const std::vector<std::size_t>& length_fields) {
  std::string bytes = read_file(path);
  mutate(rng, bytes, length_fields);
  write_file(path, bytes);
}

/// The reader either returns (and `read_and_check` checks its result) or
/// throws std::runtime_error. Any other exception is a fatal failure.
void accept_or_reject(const char* reader, const std::function<void()>& read_and_check) {
  try {
    read_and_check();
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    FAIL() << reader << " threw " << typeid(e).name() << " instead of std::runtime_error: "
           << e.what();
  } catch (...) {
    FAIL() << reader << " threw a non-std exception";
  }
}

/// CSR invariants every Graph reader promises: offsets start at 0, never
/// decrease and end at m; neighbor ids are below n; sorted() lists ascend.
void expect_csr(const Graph& g) {
  const auto& off = g.offsets();
  ASSERT_FALSE(off.empty());
  ASSERT_EQ(off.front(), 0u);
  for (std::size_t v = 0; v + 1 < off.size(); ++v)
    ASSERT_LE(off[v], off[v + 1]) << "vertex " << v;
  ASSERT_EQ(off.back(), g.num_edges());
  for (const VertexId u : g.neighbors()) ASSERT_LT(u, g.num_vertices());
  if (!g.sorted()) return;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors_of(v);
    ASSERT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end(), std::greater_equal<>()) ==
                nbrs.end())
        << "sorted() but vertex " << v << "'s list does not ascend";
  }
}

/// read_split_binary's invariants: the sub-vertex CSR, one owner and owner
/// degree per sub-vertex, and a slot range per original vertex that is
/// non-empty, as wide as the sub-vertices it owns, and ends at num_sub.
void expect_split(const SplitGraph& sg) {
  ASSERT_NO_FATAL_FAILURE(expect_csr(sg.g));
  const std::uint64_t ns = sg.num_sub();
  ASSERT_EQ(sg.owner.size(), ns);
  ASSERT_EQ(sg.owner_degree.size(), ns);
  ASSERT_EQ(sg.slot_offset.size(), sg.num_original + 1);
  ASSERT_EQ(sg.slot_offset.front(), 0u);
  ASSERT_EQ(sg.slot_offset.back(), ns);
  std::vector<std::uint64_t> pieces(sg.num_original, 0);
  for (const VertexId o : sg.owner) {
    ASSERT_LT(o, sg.num_original);
    ++pieces[o];
  }
  for (VertexId v = 0; v < sg.num_original; ++v) {
    ASSERT_LT(sg.slot_offset[v], sg.slot_offset[v + 1]) << "vertex " << v;
    ASSERT_EQ(sg.slot_offset[v + 1] - sg.slot_offset[v], pieces[v]) << "vertex " << v;
  }
}

/// Parse results the TFORM CSV transducer promises for accepted text: one
/// record per '\n' (a '\n' can only end a record), each with one field per
/// ',' on its line plus one. Bytes after the last '\n' stay in the cursor.
void expect_csv(const std::string& text, const std::vector<std::vector<Word>>& records) {
  std::vector<std::size_t> fields_per_line;
  std::size_t fields = 1;
  for (const char c : text) {
    if (c == ',') ++fields;
    if (c == '\n') {
      fields_per_line.push_back(fields);
      fields = 1;
    }
  }
  ASSERT_EQ(records.size(), fields_per_line.size());
  for (std::size_t r = 0; r < records.size(); ++r)
    ASSERT_EQ(records[r].size(), fields_per_line[r]) << "record " << r;
}

// Every random draw is its own statement (at most one per call's
// arguments): argument evaluation order is unspecified, and a seed must
// derive the same case under every compiler.

Graph small_graph(Xoshiro256& rng) {
  const std::uint32_t scale = 2 + static_cast<std::uint32_t>(rng.below(5));  // 4..64 vertices
  const bool symmetrize = rng.below(2) == 0;
  if (rng.below(2) == 0) {
    RmatParams p;
    p.edge_factor = 1 + static_cast<std::uint32_t>(rng.below(8));
    p.symmetrize = symmetrize;
    return rmat(scale, p, rng());
  }
  const auto edge_factor = 1 + static_cast<std::uint32_t>(rng.below(8));
  return erdos_renyi(scale, edge_factor, rng(), symmetrize);
}

std::string case_prefix() {
  const auto dir = std::filesystem::temp_directory_path() / "ud_malformed_inputs";
  std::filesystem::create_directories(dir);
  return (dir / "case").string();
}

void fuzz_edge_list(Xoshiro256& rng) {
  const std::string path = case_prefix() + ".el";
  write_edge_list(small_graph(rng), path);
  mutate_file(rng, path, {});
  const bool symmetrize = rng.below(2) == 0;
  accept_or_reject("read_edge_list", [&] {
    ASSERT_NO_FATAL_FAILURE(expect_csr(read_edge_list(path, 0, symmetrize)));
  });
}

/// write_binary's header is magic, n, m: the lengths sit at bytes 8 and 16
/// of `_gv.bin`; `_nl.bin` is a bare array.
void fuzz_binary(Xoshiro256& rng) {
  const std::string prefix = case_prefix();
  write_binary(small_graph(rng), prefix);
  if (rng.below(3) == 0) mutate_file(rng, prefix + "_nl.bin", {});
  else mutate_file(rng, prefix + "_gv.bin", {8, 16});
  accept_or_reject("read_binary",
                   [&] { ASSERT_NO_FATAL_FAILURE(expect_csr(read_binary(prefix))); });
}

/// `_meta.bin` is magic, num_original, then the owner, owner_degree and
/// slot_offset arrays, each behind a u64 length.
void fuzz_split(Xoshiro256& rng) {
  const std::string prefix = case_prefix();
  const Graph g = small_graph(rng);
  const std::uint64_t max_degree = 1 + rng.below(8);
  const bool shuffle = rng.below(2) == 0;
  const SplitGraph sg = split_vertices(g, max_degree, shuffle, rng());
  write_split_binary(sg, prefix);
  const std::size_t owner_len = 16;
  const std::size_t degree_len = owner_len + 8 + 8 * sg.owner.size();
  const std::size_t slot_len = degree_len + 8 + 8 * sg.owner_degree.size();
  switch (rng.below(3)) {
    case 0: mutate_file(rng, prefix + "_meta.bin", {8, owner_len, degree_len, slot_len}); break;
    case 1: mutate_file(rng, prefix + "_gv.bin", {8, 16}); break;
    default: mutate_file(rng, prefix + "_nl.bin", {}); break;
  }
  accept_or_reject("read_split_binary",
                   [&] { ASSERT_NO_FATAL_FAILURE(expect_split(read_split_binary(prefix))); });
}

void fuzz_csv(Xoshiro256& rng) {
  const std::uint64_t records = 1 + rng.below(16);
  const std::uint64_t vertices = 1 + rng.below(1 << 20);
  const std::uint64_t types = 1 + rng.below(8);
  std::string text = tform::make_stream(records, vertices, types, rng()).bytes;
  mutate(rng, text, {});
  accept_or_reject("Fst::csv().parse_all", [&] {
    const auto records = tform::Fst::csv().parse_all(text);
    ASSERT_NO_FATAL_FAILURE(expect_csv(text, records));
  });
}

void run_case(std::uint64_t case_seed) {
  SCOPED_TRACE(fuzz::repro("test_malformed_inputs", case_seed));
  Xoshiro256 rng(case_seed);
  switch (rng.below(4)) {
    case 0: fuzz_edge_list(rng); break;
    case 1: fuzz_binary(rng); break;
    case 2: fuzz_split(rng); break;
    default: fuzz_csv(rng); break;
  }
}

TEST(MalformedInputs, ReadersReturnValidResultsOrThrowRuntimeError) {
  fuzz::sweep("test_malformed_inputs", kDefaultCases, run_case);
}

}  // namespace
}  // namespace updown
