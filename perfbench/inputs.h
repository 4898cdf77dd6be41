// The benchmark's own inputs and the facts its checks rest on.
//
// Inputs are generated here from a seed, with no code of the library, and
// written in the library's CSV formats: `id,attribute,value` profile rows and
// `left_id,right_id` ground truth. Every attribute value is lowercase
// alphanumeric tokens separated by single spaces, so splitting a value on
// spaces gives exactly the tokens the library's TokenizeAlnum finds.
//
// The facts (`Collection`, `Facts`) are read back from those files by the
// same plain code, so what the checks compare against never passes through
// the program under test.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// Make-up of one generated input. A canonical object carries
/// `common_tokens` Zipf draws from a vocabulary of
/// `vocab_per_profile * profiles` ranked tokens, `distinct_tokens` tokens
/// of its own, and — for `family_fraction` of objects — `family_tokens`
/// rare tokens shared with the other objects of its near-duplicate family
/// (`family_size` objects on average). Each profile is a noisy copy:
/// every token is dropped with `drop_prob`, replaced by a fresh token with
/// `corrupt_prob`, and `junk_tokens` fresh tokens are added.
struct Shape {
  size_t common_tokens = 9;
  size_t distinct_tokens = 1;
  size_t family_tokens = 3;
  size_t family_size = 2;
  double family_fraction = 0.75;
  double drop_prob = 0.35;
  double corrupt_prob = 0.10;
  size_t junk_tokens = 1;
  double vocab_per_profile = 0.6;
  double zipf_skew = 1.0;
};

/// Clean-Clean ER: `e1` and `e2` profiles, `matches` objects present in
/// both (one planted match each).
struct CleanCleanSize {
  size_t e1 = 0;
  size_t e2 = 0;
  size_t matches = 0;
};

/// Dirty ER for serving: objects with 1..4 copies. `late` copies of objects
/// that also have a resident copy are held back as late arrivals; the rest
/// form the resident collection.
struct DirtySize {
  size_t objects = 0;
  double copies2 = 0.40;  ///< share of objects with 2 copies
  double copies3 = 0.20;  ///< ... with 3
  double copies4 = 0.10;  ///< ... with 4 (the rest have 1)
  size_t late = 0;
};

/// Writes e1.csv, e2.csv and truth.csv into `dir`.
void WriteCleanClean(const std::string& dir, const CleanCleanSize& size,
                     const Shape& shape, uint64_t seed);

/// Writes resident.csv, resident_truth.csv (resident duplicate pairs),
/// late.csv (late arrivals, in arrival order) and late_truth.csv (late id,
/// resident id of the same object) into `dir`.
void WriteDirty(const std::string& dir, const DirtySize& size,
                const Shape& shape, uint64_t seed);

// ---------------------------------------------------------------------------
// Facts
// ---------------------------------------------------------------------------

/// One profile file, read by the benchmark's own parser.
struct Collection {
  std::vector<std::string> ids;
  std::unordered_map<std::string, uint32_t> index;  ///< id -> row
  /// Per profile: hashes of its distinct tokens, ascending.
  std::vector<std::vector<uint64_t>> tokens;

  size_t size() const { return ids.size(); }
  /// Row of `id`, or -1 when the id is not in the collection.
  int64_t Find(std::string_view id) const;
};

Collection ReadCollection(const std::string& path);
/// Appends the profiles of `path` to `collection` (ids must be new).
void AppendCollection(const std::string& path, Collection* collection);

/// `left_id,right_id` rows of a truth file, resolved against the two
/// collections (the same one twice for Dirty ER). Throws on unknown ids.
std::vector<std::pair<uint32_t, uint32_t>> ReadTruth(const std::string& path,
                                                     const Collection& left,
                                                     const Collection& right);

/// 64-bit key of an index pair (left in the high half).
inline uint64_t PairKey(uint32_t left, uint32_t right) {
  return (static_cast<uint64_t>(left) << 32) | right;
}

/// Stable 64-bit hash of a token (FNV-1a).
uint64_t TokenHash(std::string_view token);

/// True when two ascending token-hash lists share an element.
bool ShareToken(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
