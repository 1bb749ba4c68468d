#include "transformer/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <map>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace xflow::transformer {

namespace {

constexpr char kMagic[4] = {'X', 'F', 'L', 'W'};
constexpr std::uint32_t kVersion = 1;

void WriteU32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint32_t ReadU32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  require(bool(is), "checkpoint truncated");
  return v;
}
std::uint64_t ReadU64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  require(bool(is), "checkpoint truncated");
  return v;
}
void WriteString(std::ostream& os, const std::string& s) {
  WriteU32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}
std::string ReadString(std::istream& is) {
  const auto n = ReadU32(is);
  require(n < 4096, "implausible string length in checkpoint");
  std::string s(n, '\0');
  is.read(s.data(), n);
  require(bool(is), "checkpoint truncated");
  return s;
}

void WriteHeader(std::ostream& os, std::uint32_t count) {
  os.write(kMagic, sizeof(kMagic));
  WriteU32(os, kVersion);
  WriteU32(os, count);
}

std::uint32_t ReadHeader(std::istream& is) {
  char magic[4] = {};
  is.read(magic, sizeof(magic));
  require(bool(is) && std::equal(magic, magic + 4, kMagic),
          "not an xflow checkpoint (bad magic)");
  require(ReadU32(is) == kVersion, "unsupported checkpoint version");
  return ReadU32(is);
}

void WriteTensor(std::ostream& os, const std::string& name,
                 const TensorH& t) {
  WriteString(os, name);
  WriteU32(os, static_cast<std::uint32_t>(t.shape().rank()));
  for (const auto& d : t.shape().dims()) {
    os.put(d.name);
    WriteU64(os, static_cast<std::uint64_t>(d.extent));
  }
  for (std::int64_t e = 0; e < t.size(); ++e) {
    const auto bits = t.data()[e].bits();
    os.write(reinterpret_cast<const char*>(&bits), sizeof(bits));
  }
}

/// Bytes between the read position and the end of the stream.
std::uint64_t BytesLeft(std::istream& is) {
  const std::streamoff pos = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(pos, std::ios::beg);
  require(bool(is) && pos >= 0 && end >= pos, "checkpoint is not seekable");
  return static_cast<std::uint64_t>(end - pos);
}

std::pair<std::string, TensorH> ReadTensor(std::istream& is) {
  const std::string name = ReadString(is);
  const auto rank = ReadU32(is);
  require(rank <= 8, "implausible tensor rank in checkpoint");
  std::vector<std::pair<char, std::uint64_t>> extents;
  for (std::uint32_t d = 0; d < rank; ++d) {
    const char c = static_cast<char>(is.get());
    extents.emplace_back(c, ReadU64(is));
  }
  // The stored extents size the allocation, so they must fit the payload
  // the file still holds before anything is allocated: a corrupt extent
  // fails here, by name, instead of as bad_alloc or a huge zero fill.
  // Dividing instead of multiplying keeps the product from overflowing.
  const std::uint64_t left = BytesLeft(is);
  const std::uint64_t max_elems = left / sizeof(std::uint16_t);
  std::uint64_t elems = 1;
  bool fits = elems <= max_elems;
  std::string listed;
  for (const auto& [c, e] : extents) {
    fits = fits && e > 0 && e <= max_elems / elems;
    if (fits) elems *= e;
    listed += StrFormat("%s%c:%llu", listed.empty() ? "" : ",", c,
                        static_cast<unsigned long long>(e));
  }
  require(fits, StrFormat("checkpoint tensor '%s' has extents [%s], more "
                          "than the %llu payload bytes left can hold "
                          "(corrupt or truncated file)",
                          name.c_str(), listed.c_str(),
                          static_cast<unsigned long long>(left)));
  std::vector<DimExt> dims;
  for (const auto& [c, e] : extents) {
    dims.push_back({c, static_cast<std::int64_t>(e)});
  }
  TensorH t{Shape(std::move(dims))};
  for (std::int64_t e = 0; e < t.size(); ++e) {
    std::uint16_t bits = 0;
    is.read(reinterpret_cast<char*>(&bits), sizeof(bits));
    t.data()[e] = Half::FromBits(bits);
  }
  require(bool(is), "checkpoint truncated in tensor payload");
  return {name, std::move(t)};
}

}  // namespace

void SaveCheckpoint(
    const std::string& path,
    const std::vector<std::pair<std::string, const TensorH*>>& tensors) {
  std::ofstream os(path, std::ios::binary);
  require(bool(os), StrFormat("cannot open '%s' for writing", path.c_str()));
  WriteHeader(os, static_cast<std::uint32_t>(tensors.size()));
  for (const auto& [name, t] : tensors) WriteTensor(os, name, *t);
  require(bool(os), "checkpoint write failed");
}

void LoadCheckpoint(
    const std::string& path,
    const std::vector<std::pair<std::string, TensorH*>>& tensors) {
  std::ifstream is(path, std::ios::binary);
  require(bool(is), StrFormat("cannot open '%s'", path.c_str()));
  const auto count = ReadHeader(is);

  std::map<std::string, TensorH> loaded;
  for (std::uint32_t c = 0; c < count; ++c) {
    auto [name, t] = ReadTensor(is);
    loaded.emplace(std::move(name), std::move(t));
  }
  for (const auto& [name, dst] : tensors) {
    const auto it = loaded.find(name);
    require(it != loaded.end(),
            StrFormat("checkpoint lacks tensor '%s'", name.c_str()));
    require(it->second.shape() == dst->shape(),
            StrFormat("shape mismatch for '%s'", name.c_str()));
    *dst = std::move(it->second);
  }
}

std::vector<std::pair<std::string, Shape>> InspectCheckpoint(
    const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  require(bool(is), StrFormat("cannot open '%s'", path.c_str()));
  const auto count = ReadHeader(is);
  std::vector<std::pair<std::string, Shape>> out;
  for (std::uint32_t c = 0; c < count; ++c) {
    auto [name, t] = ReadTensor(is);
    out.emplace_back(std::move(name), t.shape());
  }
  return out;
}

}  // namespace xflow::transformer
