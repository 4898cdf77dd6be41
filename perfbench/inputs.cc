#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace perfbench {

namespace {

// splitmix64: small, seedable and the same on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  bool Chance(double p) { return Uniform() < p; }

  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

std::string Base36(uint64_t value) {
  static const char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string out;
  do {
    out.push_back(kDigits[value % 36]);
    value /= 36;
  } while (value != 0);
  std::reverse(out.begin(), out.end());
  return out;
}

using Tokens = std::vector<std::string>;

// Builds canonical objects and their noisy copies. Common tokens are "w" +
// rank; every other token is fresh ("u" own, "f" family, "x" noise) and
// therefore unique to the object, the family or the copy.
class ObjectFactory {
 public:
  ObjectFactory(const Shape& shape, size_t profiles, size_t objects,
                Rng* rng)
      : shape_(shape), rng_(rng) {
    const size_t vocab = std::max<size_t>(
        64, static_cast<size_t>(shape.vocab_per_profile *
                                static_cast<double>(profiles)));
    cdf_.resize(vocab);
    double total = 0.0;
    for (size_t r = 0; r < vocab; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), shape.zipf_skew);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    const size_t families = std::max<size_t>(
        1, static_cast<size_t>(shape.family_fraction *
                               static_cast<double>(objects) /
                               static_cast<double>(shape.family_size)));
    families_.resize(families);
    for (Tokens& family : families_) {
      for (size_t t = 0; t < shape.family_tokens; ++t) {
        family.push_back("f" + Base36(fresh_++));
      }
    }
  }

  Tokens MakeObject() {
    Tokens tokens;
    for (size_t t = 0; t < shape_.common_tokens; ++t) {
      const double u = rng_->Uniform();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      tokens.push_back("w" + Base36(std::min(rank, cdf_.size() - 1)));
    }
    for (size_t t = 0; t < shape_.distinct_tokens; ++t) {
      tokens.push_back("u" + Base36(fresh_++));
    }
    if (rng_->Chance(shape_.family_fraction)) {
      const Tokens& family = families_[rng_->Below(families_.size())];
      tokens.insert(tokens.end(), family.begin(), family.end());
    }
    return tokens;
  }

  Tokens MakeCopy(const Tokens& object) {
    Tokens copy;
    for (const std::string& token : object) {
      if (rng_->Chance(shape_.drop_prob)) continue;
      if (rng_->Chance(shape_.corrupt_prob)) {
        copy.push_back("x" + Base36(fresh_++));
      } else {
        copy.push_back(token);
      }
    }
    for (size_t t = 0; t < shape_.junk_tokens; ++t) {
      copy.push_back("x" + Base36(fresh_++));
    }
    rng_->Shuffle(&copy);
    return copy;
  }

 private:
  const Shape& shape_;
  Rng* rng_;
  std::vector<double> cdf_;
  std::vector<Tokens> families_;
  uint64_t fresh_ = 0;
};

struct Profile {
  std::string id;
  Tokens tokens;
};

// Spreads a profile's tokens over three attributes; `style` picks the
// attribute names, so the two sources of a Clean-Clean pair differ in
// schema as real sources do.
void WriteProfiles(const std::string& path, const std::vector<Profile>& rows,
                   int style) {
  static const char* kNames[2][3] = {{"title", "cast", "info"},
                                     {"name", "actors", "details"}};
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "id,attribute,value\n";
  for (const Profile& p : rows) {
    const size_t n = p.tokens.size();
    const size_t cut1 = (n + 2) / 3;
    const size_t cut2 = std::min(n, cut1 + (n + 1) / 3);
    const size_t bounds[4] = {0, cut1, cut2, n};
    for (int a = 0; a < 3; ++a) {
      if (bounds[a] == bounds[a + 1]) continue;
      out << p.id << ',' << kNames[style][a] << ',';
      for (size_t t = bounds[a]; t < bounds[a + 1]; ++t) {
        if (t > bounds[a]) out << ' ';
        out << p.tokens[t];
      }
      out << '\n';
    }
  }
  if (!out) throw std::runtime_error("error writing " + path);
}

void WritePairs(const std::string& path,
                const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "left_id,right_id\n";
  for (const auto& [left, right] : pairs) out << left << ',' << right << '\n';
  if (!out) throw std::runtime_error("error writing " + path);
}

}  // namespace

void WriteCleanClean(const std::string& dir, const CleanCleanSize& size,
                     const Shape& shape, uint64_t seed) {
  if (size.matches > size.e1 || size.matches > size.e2) {
    throw std::invalid_argument("more matches than profiles in a source");
  }
  Rng rng(seed);
  const size_t objects = size.e1 + size.e2 - size.matches;
  ObjectFactory factory(shape, size.e1 + size.e2, objects, &rng);

  // Object o < matches appears in both sources; the rest in one.
  std::vector<Tokens> e1_tokens;
  std::vector<Tokens> e2_tokens;
  for (size_t o = 0; o < size.matches; ++o) {
    const Tokens object = factory.MakeObject();
    e1_tokens.push_back(factory.MakeCopy(object));
    e2_tokens.push_back(factory.MakeCopy(object));
  }
  for (size_t o = size.matches; o < size.e1; ++o) {
    e1_tokens.push_back(factory.MakeCopy(factory.MakeObject()));
  }
  for (size_t o = size.matches; o < size.e2; ++o) {
    e2_tokens.push_back(factory.MakeCopy(factory.MakeObject()));
  }

  // Shuffle each source so file order says nothing about the matches.
  std::vector<size_t> pos1(size.e1), pos2(size.e2);
  for (size_t i = 0; i < size.e1; ++i) pos1[i] = i;
  for (size_t i = 0; i < size.e2; ++i) pos2[i] = i;
  rng.Shuffle(&pos1);
  rng.Shuffle(&pos2);
  std::vector<Profile> e1(size.e1), e2(size.e2);
  for (size_t i = 0; i < size.e1; ++i) {
    e1[pos1[i]] = {"a" + std::to_string(pos1[i]), std::move(e1_tokens[i])};
  }
  for (size_t i = 0; i < size.e2; ++i) {
    e2[pos2[i]] = {"b" + std::to_string(pos2[i]), std::move(e2_tokens[i])};
  }
  std::vector<std::pair<std::string, std::string>> truth;
  for (size_t o = 0; o < size.matches; ++o) {
    truth.emplace_back(e1[pos1[o]].id, e2[pos2[o]].id);
  }
  WriteProfiles(dir + "/e1.csv", e1, 0);
  WriteProfiles(dir + "/e2.csv", e2, 1);
  WritePairs(dir + "/truth.csv", truth);
}

void WriteDirty(const std::string& dir, const DirtySize& size,
                const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> copies(size.objects);
  size_t profiles = 0;
  for (size_t& c : copies) {
    const double u = rng.Uniform();
    c = u < size.copies4                                  ? 4
        : u < size.copies4 + size.copies3                 ? 3
        : u < size.copies4 + size.copies3 + size.copies2  ? 2
                                                          : 1;
    profiles += c;
  }
  ObjectFactory factory(shape, profiles, size.objects, &rng);

  // Late arrivals: one held-back copy of `late` multi-copy objects.
  std::vector<size_t> multi;
  for (size_t o = 0; o < size.objects; ++o) {
    if (copies[o] > 1) multi.push_back(o);
  }
  if (multi.size() < size.late) {
    throw std::invalid_argument("fewer multi-copy objects than late arrivals");
  }
  rng.Shuffle(&multi);
  std::vector<char> has_late(size.objects, 0);
  for (size_t i = 0; i < size.late; ++i) has_late[multi[i]] = 1;

  struct Copy {
    size_t object;
    Tokens tokens;
  };
  std::vector<Copy> resident;
  std::vector<Copy> late;
  for (size_t o = 0; o < size.objects; ++o) {
    const Tokens object = factory.MakeObject();
    for (size_t c = 0; c < copies[o]; ++c) {
      Copy copy{o, factory.MakeCopy(object)};
      if (c == 0 && has_late[o]) {
        late.push_back(std::move(copy));
      } else {
        resident.push_back(std::move(copy));
      }
    }
  }
  rng.Shuffle(&resident);
  rng.Shuffle(&late);

  std::vector<Profile> resident_rows(resident.size());
  std::vector<std::vector<std::string>> resident_of(size.objects);
  for (size_t i = 0; i < resident.size(); ++i) {
    resident_rows[i] = {"r" + std::to_string(i), resident[i].tokens};
    resident_of[resident[i].object].push_back(resident_rows[i].id);
  }
  std::vector<Profile> late_rows(late.size());
  std::vector<std::pair<std::string, std::string>> late_truth;
  for (size_t i = 0; i < late.size(); ++i) {
    late_rows[i] = {"l" + std::to_string(i), late[i].tokens};
    for (const std::string& id : resident_of[late[i].object]) {
      late_truth.emplace_back(late_rows[i].id, id);
    }
  }
  std::vector<std::pair<std::string, std::string>> resident_truth;
  for (const std::vector<std::string>& ids : resident_of) {
    for (size_t a = 0; a < ids.size(); ++a) {
      for (size_t b = a + 1; b < ids.size(); ++b) {
        resident_truth.emplace_back(ids[a], ids[b]);
      }
    }
  }
  WriteProfiles(dir + "/resident.csv", resident_rows, 0);
  WriteProfiles(dir + "/late.csv", late_rows, 0);
  WritePairs(dir + "/resident_truth.csv", resident_truth);
  WritePairs(dir + "/late_truth.csv", late_truth);
}

// ---------------------------------------------------------------------------
// Facts
// ---------------------------------------------------------------------------

uint64_t TokenHash(std::string_view token) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : token) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool ShareToken(const std::vector<uint64_t>& a,
                const std::vector<uint64_t>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

int64_t Collection::Find(std::string_view id) const {
  auto it = index.find(std::string(id));
  return it == index.end() ? -1 : static_cast<int64_t>(it->second);
}

void AppendCollection(const std::string& path, Collection* collection) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  Collection& out = *collection;
  const size_t first = out.ids.size();
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const size_t c1 = line.find(',');
    const size_t c2 = line.find(',', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      throw std::runtime_error("malformed row in " + path + ": " + line);
    }
    std::string id = line.substr(0, c1);
    auto [it, inserted] =
        out.index.emplace(id, static_cast<uint32_t>(out.ids.size()));
    if (inserted) {
      out.ids.push_back(std::move(id));
      out.tokens.emplace_back();
    }
    std::vector<uint64_t>& tokens = out.tokens[it->second];
    std::string_view value(line);
    value.remove_prefix(c2 + 1);
    while (!value.empty()) {
      const size_t space = value.find(' ');
      tokens.push_back(TokenHash(value.substr(0, space)));
      if (space == std::string_view::npos) break;
      value.remove_prefix(space + 1);
    }
  }
  for (size_t i = first; i < out.tokens.size(); ++i) {
    std::vector<uint64_t>& tokens = out.tokens[i];
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  }
}

Collection ReadCollection(const std::string& path) {
  Collection out;
  AppendCollection(path, &out);
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> ReadTruth(const std::string& path,
                                                     const Collection& left,
                                                     const Collection& right) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::pair<uint32_t, uint32_t>> out;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const size_t comma = line.find(',');
    const int64_t l = left.Find(std::string_view(line).substr(0, comma));
    const int64_t r =
        comma == std::string::npos
            ? -1
            : right.Find(std::string_view(line).substr(comma + 1));
    if (l < 0 || r < 0) {
      throw std::runtime_error("unknown id in " + path + ": " + line);
    }
    out.emplace_back(static_cast<uint32_t>(l), static_cast<uint32_t>(r));
  }
  return out;
}

}  // namespace perfbench
