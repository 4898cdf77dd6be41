#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

std::string Describe(uint64_t key) {
  return "(" + std::to_string(key >> 32) + "," +
         std::to_string(key & 0xffffffffull) + ")";
}

}  // namespace

Facts ReadCleanCleanFacts(const std::string& dir) {
  Facts facts;
  facts.e1 = ReadCollection(dir + "/e1.csv");
  facts.e2 = ReadCollection(dir + "/e2.csv");
  for (const auto& [l, r] : ReadTruth(dir + "/truth.csv", facts.e1, facts.e2)) {
    facts.truth.insert(PairKey(l, r));
  }
  return facts;
}

Facts ReadServeFacts(const std::string& dir) {
  Facts facts;
  facts.dirty = true;
  AppendCollection(dir + "/resident.csv", &facts.e1);
  AppendCollection(dir + "/late.csv", &facts.e1);
  for (const char* file : {"/resident_truth.csv", "/late_truth.csv"}) {
    for (auto [l, r] : ReadTruth(dir + file, facts.e1, facts.e1)) {
      facts.truth.insert(PairKey(std::min(l, r), std::max(l, r)));
    }
  }
  return facts;
}

std::string CheckPairs(const Facts& facts, const std::vector<IdPair>& pairs,
                       std::vector<uint64_t>* keys) {
  keys->clear();
  keys->reserve(pairs.size());
  const Collection& right = facts.right();
  for (const auto& [left_id, right_id] : pairs) {
    const int64_t l = facts.e1.Find(left_id);
    const int64_t r = right.Find(right_id);
    if (l < 0) {
      return "left id '" + std::string(left_id) +
             "' is not a profile of the first collection";
    }
    if (r < 0) {
      return "right id '" + std::string(right_id) + "' is not a profile of " +
             (facts.dirty ? "the collection" : "the second collection");
    }
    if (facts.dirty && l == r) {
      return "pair joins profile '" + std::string(left_id) + "' to itself";
    }
    const auto& left_tokens = facts.e1.tokens[static_cast<size_t>(l)];
    const auto& right_tokens = right.tokens[static_cast<size_t>(r)];
    if (!ShareToken(left_tokens, right_tokens)) {
      return "pair (" + std::string(left_id) + "," + std::string(right_id) +
             ") shares no token";
    }
    uint32_t a = static_cast<uint32_t>(l);
    uint32_t b = static_cast<uint32_t>(r);
    if (facts.dirty && a > b) std::swap(a, b);
    keys->push_back(PairKey(a, b));
  }
  std::sort(keys->begin(), keys->end());
  const auto repeat = std::adjacent_find(keys->begin(), keys->end());
  if (repeat != keys->end()) {
    return "pair " + Describe(*repeat) + " is retained more than once";
  }
  return "";
}

size_t TruePositives(const Facts& facts, const std::vector<uint64_t>& keys) {
  size_t tp = 0;
  for (uint64_t key : keys) tp += facts.truth.count(key);
  return tp;
}

std::string CheckQuality(const Facts& facts, const std::vector<uint64_t>& keys,
                         uint64_t num_candidates, double recall_floor,
                         double pq_gain) {
  const size_t tp = TruePositives(facts, keys);
  const double recall = facts.truth.empty()
                            ? 0.0
                            : static_cast<double>(tp) /
                                  static_cast<double>(facts.truth.size());
  std::ostringstream why;
  if (recall < recall_floor) {
    why << "recall " << recall << " is below the floor " << recall_floor;
    return why.str();
  }
  if (num_candidates == 0 || keys.empty()) {
    return "no candidates or no retained pairs";
  }
  const double precision =
      static_cast<double>(tp) / static_cast<double>(keys.size());
  const double candidate_pq_bound = static_cast<double>(facts.truth.size()) /
                                    static_cast<double>(num_candidates);
  if (precision < pq_gain * candidate_pq_bound) {
    why << "precision " << precision << " is below " << pq_gain
        << " x the candidate set's precision bound " << candidate_pq_bound;
    return why.str();
  }
  return "";
}

size_t NodeBudget(uint64_t total_block_sizes, size_t num_profiles) {
  if (num_profiles == 0) return 1;
  const double k = std::max(1.0, static_cast<double>(total_block_sizes) /
                                     static_cast<double>(num_profiles));
  return static_cast<size_t>(std::llround(k));
}

std::string CheckDegreeBound(const Facts& facts,
                             const std::vector<uint64_t>& keys, size_t k) {
  // Node ids: E1 rows, then E2 rows (Dirty ER: the one collection).
  const size_t offset = facts.dirty ? 0 : facts.e1.size();
  std::vector<uint32_t> degree(facts.num_profiles(), 0);
  for (uint64_t key : keys) {
    const size_t nodes[2] = {static_cast<size_t>(key >> 32),
                             offset + static_cast<size_t>(key & 0xffffffffull)};
    for (size_t node : nodes) {
      if (++degree[node] > k) {
        return "profile node " + std::to_string(node) + " holds more than k=" +
               std::to_string(k) + " retained pairs";
      }
    }
  }
  return "";
}

std::string CheckCount(const std::vector<uint64_t>& keys, double limit,
                       std::string_view what) {
  if (static_cast<double>(keys.size()) > limit) {
    std::ostringstream why;
    why << what << " retains " << keys.size() << " pairs, above " << limit;
    return why.str();
  }
  return "";
}

std::string CheckSubset(const std::vector<uint64_t>& sub,
                        const std::vector<uint64_t>& super,
                        std::string_view sub_name,
                        std::string_view super_name) {
  size_t j = 0;
  for (uint64_t key : sub) {
    while (j < super.size() && super[j] < key) ++j;
    if (j == super.size() || super[j] != key) {
      return std::string(sub_name) + " retains " + Describe(key) +
             " which " + std::string(super_name) + " does not";
    }
  }
  return "";
}

std::string CheckSameSet(const std::vector<uint64_t>& a,
                         const std::vector<uint64_t>& b,
                         std::string_view what) {
  if (a == b) return "";
  return std::string(what) + ": " + std::to_string(a.size()) + " vs " +
         std::to_string(b.size()) + " pairs, not the same set";
}

std::string CheckProbe(const ProbeAnswer& answer, double threshold,
                       size_t max_results, std::optional<uint32_t> exclude) {
  if (answer.ids.size() != answer.probabilities.size()) {
    return "probe answer has mismatched ids and probabilities";
  }
  if (answer.ids.size() > max_results) {
    return "probe returned " + std::to_string(answer.ids.size()) +
           " results, more than " + std::to_string(max_results);
  }
  for (size_t i = 0; i < answer.ids.size(); ++i) {
    if (answer.probabilities[i] < threshold) {
      return "probe result below the validity threshold";
    }
    if (i > 0 && answer.probabilities[i] > answer.probabilities[i - 1]) {
      return "probe results are not in non-increasing probability order";
    }
    if (exclude && answer.ids[i] == *exclude) {
      return "probe results include the excluded id " +
             std::to_string(*exclude);
    }
  }
  return "";
}

}  // namespace perfbench
