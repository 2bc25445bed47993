#include "graph/split_io.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "graph/io.hpp"

namespace updown {

namespace {
constexpr std::uint64_t kMetaMagic = 0x55444d455631ull;  // "UDMEV1"

void check(const std::ios& s, const std::string& what) {
  if (!s) throw std::runtime_error("split io: failed to " + what);
}

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  const std::uint64_t n = v.size();
  out.write(reinterpret_cast<const char*>(&n), 8);
  out.write(reinterpret_cast<const char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("split io: " + path + ": " + what);
}

/// Read one length-prefixed array. The length is checked against the bytes
/// left in the file before allocating, so a corrupt count cannot demand
/// terabytes; a truncated array fails the same check.
template <typename T>
std::vector<T> read_vec(std::ifstream& in, const std::string& path, std::uint64_t file_bytes,
                        const char* name) {
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), 8);
  if (!in) fail(path, std::string("truncated before the ") + name + " length");
  const std::uint64_t left = file_bytes - static_cast<std::uint64_t>(in.tellg());
  if (n > left / sizeof(T))
    fail(path, std::string(name) + " length " + std::to_string(n) + " exceeds the " +
                   std::to_string(left) + " bytes left");
  std::vector<T> v(n);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
  check(in, "read " + path);
  return v;
}
}  // namespace

void write_split_binary(const SplitGraph& sg, const std::string& prefix) {
  write_binary(sg.g, prefix);
  std::ofstream meta(prefix + "_meta.bin", std::ios::binary);
  check(meta, "open " + prefix + "_meta.bin");
  meta.write(reinterpret_cast<const char*>(&kMetaMagic), 8);
  const std::uint64_t n_orig = sg.num_original;
  meta.write(reinterpret_cast<const char*>(&n_orig), 8);
  write_vec(meta, sg.owner);
  write_vec(meta, sg.owner_degree);
  write_vec(meta, sg.slot_offset);
  check(meta, "write " + prefix + "_meta.bin");
}

SplitGraph read_split_binary(const std::string& prefix) {
  SplitGraph sg;
  sg.g = read_binary(prefix);
  const std::string path = prefix + "_meta.bin";
  std::ifstream meta(path, std::ios::binary);
  check(meta, "open " + path);
  const std::uint64_t bytes = std::filesystem::file_size(path);
  std::uint64_t magic = 0, n_orig = 0;
  meta.read(reinterpret_cast<char*>(&magic), 8);
  if (!meta || magic != kMetaMagic) fail(path, "bad magic");
  meta.read(reinterpret_cast<char*>(&n_orig), 8);
  check(meta, "read header of " + path);
  sg.num_original = n_orig;
  sg.owner = read_vec<VertexId>(meta, path, bytes, "owner");
  sg.owner_degree = read_vec<std::uint64_t>(meta, path, bytes, "owner_degree");
  sg.slot_offset = read_vec<std::uint64_t>(meta, path, bytes, "slot_offset");

  const std::uint64_t ns = sg.num_sub();
  if (sg.owner.size() != ns)
    fail(path, "owner has " + std::to_string(sg.owner.size()) + " entries, not num_sub=" +
                   std::to_string(ns));
  if (sg.owner_degree.size() != ns)
    fail(path, "owner_degree has " + std::to_string(sg.owner_degree.size()) +
                   " entries, not num_sub=" + std::to_string(ns));
  if (sg.slot_offset.empty() || sg.slot_offset.size() - 1 != n_orig)
    fail(path, "slot_offset has " + std::to_string(sg.slot_offset.size()) +
                   " entries, not num_original+1");
  for (std::uint64_t s = 0; s < ns; ++s)
    if (sg.owner[s] >= n_orig)
      fail(path, "owner[" + std::to_string(s) + "]=" + std::to_string(sg.owner[s]) +
                     " is not below num_original=" + std::to_string(n_orig));
  if (sg.slot_offset[0] != 0) fail(path, "slot_offset[0] is not 0");
  for (std::uint64_t v = 0; v < n_orig; ++v)
    if (sg.slot_offset[v] > sg.slot_offset[v + 1])
      fail(path, "slot_offset decreases at vertex " + std::to_string(v));
  if (sg.slot_offset.back() != ns) fail(path, "slot_offset[num_original] is not num_sub");
  // split_vertices gives every original vertex one slot per sub-vertex it
  // owns, and at least one: PageRank's apply sums exactly that slot range.
  std::vector<std::uint64_t> pieces(n_orig, 0);
  for (std::uint64_t s = 0; s < ns; ++s) ++pieces[sg.owner[s]];
  for (std::uint64_t v = 0; v < n_orig; ++v) {
    const std::uint64_t width = sg.slot_offset[v + 1] - sg.slot_offset[v];
    if (width == 0) fail(path, "slot range of vertex " + std::to_string(v) + " is empty");
    if (width != pieces[v])
      fail(path, "vertex " + std::to_string(v) + " has " + std::to_string(width) +
                     " slots but owns " + std::to_string(pieces[v]) + " sub-vertices");
  }
  // PageRank's map divides a sub-vertex's share by owner_degree, so it must
  // be the owner's whole out-degree: the summed degrees of its sub-vertices.
  std::vector<std::uint64_t> degree(n_orig, 0);
  for (std::uint64_t s = 0; s < ns; ++s) degree[sg.owner[s]] += sg.g.degree(s);
  for (std::uint64_t s = 0; s < ns; ++s)
    if (sg.owner_degree[s] != degree[sg.owner[s]])
      fail(path, "owner_degree[" + std::to_string(s) + "]=" +
                     std::to_string(sg.owner_degree[s]) + " but owner " +
                     std::to_string(sg.owner[s]) + "'s sub-vertices have degree " +
                     std::to_string(degree[sg.owner[s]]));
  return sg;
}

std::string split_stats(const Graph& original, const SplitGraph& sg) {
  std::ostringstream os;
  os << "vertices: " << original.num_vertices() << " -> " << sg.num_sub()
     << " sub-vertices\n"
     << "edges:    " << original.num_edges() << " (preserved: "
     << (sg.g.num_edges() == original.num_edges() ? "yes" : "NO") << ")\n"
     << "max degree: " << original.max_degree() << " -> " << sg.g.max_degree() << "\n";
  return os.str();
}

}  // namespace updown
