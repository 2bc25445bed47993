#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace updown {

namespace {
constexpr std::uint64_t kGvMagic = 0x5544475631ull;  // "UDGV1"
constexpr std::uint64_t kGvHeaderBytes = 24;           // magic, n, m

void check(const std::ios& s, const std::string& what) {
  if (!s) throw std::runtime_error("graph io: failed to " + what);
}

[[noreturn]] void fail(const std::string& where, const std::string& what) {
  throw std::runtime_error("graph io: " + where + ": " + what);
}
[[noreturn]] void fail(const std::string& path, std::uint64_t line, const std::string& what) {
  fail(path + ":" + std::to_string(line), what);
}

constexpr std::string_view kBlanks = " \t\r\v\f";

/// Next whitespace-separated field of `line` at or after `pos` (empty at the
/// end of the line); `pos` moves past it.
std::string_view next_field(std::string_view line, std::size_t& pos) {
  const std::size_t b = line.find_first_not_of(kBlanks, pos);
  if (b == std::string_view::npos) {
    pos = line.size();
    return {};
  }
  pos = std::min(line.find_first_of(kBlanks, b), line.size());
  return line.substr(b, pos - b);
}

/// A vertex id: decimal digits only, and below VertexId's maximum so that
/// the vertex count (max id + 1) cannot wrap.
VertexId parse_id(std::string_view field, const std::string& path, std::uint64_t line) {
  if (field.empty()) fail(path, line, "expected two vertex ids");
  VertexId v = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec == std::errc::invalid_argument || ptr != end)
    fail(path, line, "bad vertex id '" + std::string(field) + "'");
  if (ec == std::errc::result_out_of_range || v == std::numeric_limits<VertexId>::max())
    fail(path, line, "vertex id '" + std::string(field) + "' out of range");
  return v;
}
}  // namespace

Graph read_edge_list(const std::string& path, std::uint64_t skip_lines, bool symmetrize) {
  std::ifstream in(path);
  check(in, "open " + path);
  std::string line;
  std::vector<Edge> edges;
  VertexId max_v = 0;
  std::uint64_t lineno = 0;
  while (std::getline(in, line)) {
    if (lineno++ < skip_lines) continue;
    std::size_t pos = 0;
    const std::string_view first = next_field(line, pos);
    if (first.empty() || first[0] == '#' || first[0] == '%') continue;
    const VertexId s = parse_id(first, path, lineno);
    const VertexId d = parse_id(next_field(line, pos), path, lineno);
    edges.emplace_back(s, d);  // further columns (weights, timestamps) ignored
    max_v = std::max({max_v, s, d});
  }
  const VertexId n = edges.empty() ? 0 : max_v + 1;  // before the move below
  return Graph::from_edges(n, std::move(edges), symmetrize);
}

void write_edge_list(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  check(out, "open " + path);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (VertexId u : g.neighbors_of(v)) out << v << '\t' << u << '\n';
  check(out, "write " + path);
}

void write_binary(const Graph& g, const std::string& prefix) {
  {
    std::ofstream gv(prefix + "_gv.bin", std::ios::binary);
    check(gv, "open " + prefix + "_gv.bin");
    const std::uint64_t n = g.num_vertices(), m = g.num_edges();
    gv.write(reinterpret_cast<const char*>(&kGvMagic), 8);
    gv.write(reinterpret_cast<const char*>(&n), 8);
    gv.write(reinterpret_cast<const char*>(&m), 8);
    gv.write(reinterpret_cast<const char*>(g.offsets().data()),
             static_cast<std::streamsize>((n + 1) * 8));
    check(gv, "write vertex array");
  }
  {
    std::ofstream nl(prefix + "_nl.bin", std::ios::binary);
    check(nl, "open " + prefix + "_nl.bin");
    nl.write(reinterpret_cast<const char*>(g.neighbors().data()),
             static_cast<std::streamsize>(g.num_edges() * 8));
    check(nl, "write neighbor list");
  }
}

Graph read_binary(const std::string& prefix) {
  const std::string gv_path = prefix + "_gv.bin", nl_path = prefix + "_nl.bin";
  std::ifstream gv(gv_path, std::ios::binary);
  check(gv, "open " + gv_path);
  std::uint64_t magic = 0, n = 0, m = 0;
  gv.read(reinterpret_cast<char*>(&magic), 8);
  if (!gv || magic != kGvMagic) fail(gv_path, "bad magic");
  gv.read(reinterpret_cast<char*>(&n), 8);
  gv.read(reinterpret_cast<char*>(&m), 8);
  check(gv, "read header of " + gv_path);
  std::ifstream nl(nl_path, std::ios::binary);
  check(nl, "open " + nl_path);
  // The header sizes both arrays; check it against the files before
  // allocating, so a corrupt count cannot demand terabytes.
  const std::uint64_t gv_bytes = std::filesystem::file_size(gv_path);
  const std::uint64_t nl_bytes = std::filesystem::file_size(nl_path);
  const std::uint64_t gv_words = (gv_bytes - kGvHeaderBytes) / 8;  // n + 1 offsets
  if ((gv_bytes - kGvHeaderBytes) % 8 != 0 || gv_words == 0 || n != gv_words - 1)
    fail(gv_path, "header n=" + std::to_string(n) + " does not match the file size " +
                      std::to_string(gv_bytes));
  if (m != nl_bytes / 8 || nl_bytes % 8 != 0)
    fail(nl_path, "header m=" + std::to_string(m) + " does not match the file size " +
                      std::to_string(nl_bytes));

  std::vector<std::uint64_t> offsets(n + 1);
  gv.read(reinterpret_cast<char*>(offsets.data()), static_cast<std::streamsize>((n + 1) * 8));
  check(gv, "read vertex array of " + gv_path);
  if (offsets[0] != 0) fail(gv_path, "offsets[0] is not 0");
  for (std::uint64_t v = 0; v < n; ++v)
    if (offsets[v] > offsets[v + 1])
      fail(gv_path, "offsets decrease at vertex " + std::to_string(v));
  if (offsets[n] != m) fail(gv_path, "offsets[n] is not m");

  std::vector<VertexId> neighbors(m);
  nl.read(reinterpret_cast<char*>(neighbors.data()), static_cast<std::streamsize>(m * 8));
  check(nl, "read neighbor list of " + nl_path);
  for (std::uint64_t i = 0; i < m; ++i)
    if (neighbors[i] >= n)
      fail(nl_path, "neighbor id " + std::to_string(neighbors[i]) + " at index " +
                        std::to_string(i) + " is not below n=" + std::to_string(n));
  // Binary files written by write_binary come from from_edges output (sorted
  // adjacency), but the format doesn't record that — verify with one O(m)
  // scan (cheap next to the file read) so has_edge/TC keep their fast paths
  // only when they are actually valid.
  bool sorted = true;
  for (std::uint64_t v = 0; v < n && sorted; ++v)
    for (std::uint64_t i = offsets[v] + 1; i < offsets[v + 1]; ++i)
      if (neighbors[i - 1] >= neighbors[i]) {
        sorted = false;
        break;
      }
  return Graph::from_csr(std::move(offsets), std::move(neighbors), sorted);
}

}  // namespace updown
