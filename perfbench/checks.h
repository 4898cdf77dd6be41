// The benchmark's output checker.
//
// Every check compares the program's output with facts the benchmark holds
// on its own (inputs.h): the generated profiles' tokens and the planted
// matches. Each returns an empty string when the output passes and a
// one-line reason when it does not. perfbench_checks_test feeds each check
// a deliberately corrupted output to show that it can fail.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "inputs.h"

namespace perfbench {

/// The facts of one input: its collections and its planted matches.
struct Facts {
  Collection e1;
  Collection e2;  ///< empty for Dirty ER
  bool dirty = false;
  /// PairKey of every planted match; Dirty ER keys are (smaller, larger).
  std::unordered_set<uint64_t> truth;

  const Collection& right() const { return dirty ? e1 : e2; }
  size_t num_profiles() const { return e1.size() + e2.size(); }
};

/// Reads e1.csv, e2.csv and truth.csv of a Clean-Clean input.
Facts ReadCleanCleanFacts(const std::string& dir);

/// Reads the serving input: resident.csv then late.csv as one Dirty
/// collection, with the planted matches of both truth files.
Facts ReadServeFacts(const std::string& dir);

/// A retained pair as the program reports it, by external id.
using IdPair = std::pair<std::string_view, std::string_view>;

/// Resolves `pairs` to PairKeys in `keys` and checks each pair: both ids
/// are in the input, the left id is in the first collection and the right
/// in the second (distinct profiles of the one collection for Dirty ER),
/// no pair repeats, and the two profiles share at least one token.
std::string CheckPairs(const Facts& facts, const std::vector<IdPair>& pairs,
                       std::vector<uint64_t>* keys);

/// Recall against the planted matches is at least `recall_floor`, and
/// precision is at least `pq_gain` times the candidate set's precision.
/// The latter is bounded above by |D| / `num_candidates`, so the check
/// uses that bound.
std::string CheckQuality(const Facts& facts, const std::vector<uint64_t>& keys,
                         uint64_t num_candidates, double recall_floor,
                         double pq_gain);

/// Number of `keys` that are planted matches.
size_t TruePositives(const Facts& facts, const std::vector<uint64_t>& keys);

/// The cardinality node budget k = max(1, Σ|b| / |E|), rounded to the
/// nearest whole number.
size_t NodeBudget(uint64_t total_block_sizes, size_t num_profiles);

/// No profile takes part in more than `k` of the pairs.
std::string CheckDegreeBound(const Facts& facts,
                             const std::vector<uint64_t>& keys, size_t k);

/// At most `limit` pairs.
std::string CheckCount(const std::vector<uint64_t>& keys, double limit,
                       std::string_view what);

/// Every key of `sub` is in `super` (both ascending).
std::string CheckSubset(const std::vector<uint64_t>& sub,
                        const std::vector<uint64_t>& super,
                        std::string_view sub_name,
                        std::string_view super_name);

/// `a` and `b` hold the same keys (both ascending).
std::string CheckSameSet(const std::vector<uint64_t>& a,
                         const std::vector<uint64_t>& b,
                         std::string_view what);

/// One query answer: the results' probabilities, in returned order, and
/// their ids.
struct ProbeAnswer {
  std::vector<uint32_t> ids;
  std::vector<double> probabilities;
};

/// Every probability is at least `threshold`, they never increase, there
/// are at most `max_results` of them and `exclude` is not among the ids.
std::string CheckProbe(const ProbeAnswer& answer, double threshold,
                       size_t max_results, std::optional<uint32_t> exclude);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
