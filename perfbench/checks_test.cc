// Feeds the benchmark's output checker deliberately corrupted outputs and
// fails unless it rejects every one (and accepts the uncorrupted ones).
//
//   perfbench_checks_test <scratch dir>
//
// The inputs are a tiny Clean-Clean and a tiny Dirty collection written by
// perfbench_gen's own generator, so the facts are read exactly as a
// benchmark run reads them.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "inputs.h"

namespace {

using perfbench::Facts;
using perfbench::IdPair;

int failures = 0;

void ExpectPass(const std::string& why, const char* what) {
  if (!why.empty()) {
    std::printf("FAIL %s: rejected a correct output: %s\n", what, why.c_str());
    ++failures;
  } else {
    std::printf("ok   %s\n", what);
  }
}

void ExpectReject(const std::string& why, const char* what) {
  if (why.empty()) {
    std::printf("FAIL %s: accepted a corrupted output\n", what);
    ++failures;
  } else {
    std::printf("ok   %s: %s\n", what, why.c_str());
  }
}

// All planted matches, as the program would report them.
std::vector<IdPair> TruePairs(const Facts& facts) {
  std::vector<IdPair> pairs;
  for (uint64_t key : facts.truth) {
    pairs.emplace_back(facts.e1.ids[key >> 32],
                       facts.right().ids[key & 0xffffffffull]);
  }
  return pairs;
}

// The first pair of profiles (left from E1, right from `right`) that shares
// no token, or that does share one, as asked.
IdPair FindPair(const Facts& facts, bool share) {
  const perfbench::Collection& right = facts.right();
  for (size_t l = 0; l < facts.e1.size(); ++l) {
    for (size_t r = 0; r < right.size(); ++r) {
      if (facts.dirty && l == r) continue;
      if (perfbench::ShareToken(facts.e1.tokens[l], right.tokens[r]) == share) {
        return {facts.e1.ids[l], right.ids[r]};
      }
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc > 1 ? std::filesystem::path(argv[1]) : std::filesystem::path("checks_test_data");
  std::filesystem::create_directories(dir / "cc");
  std::filesystem::create_directories(dir / "dirty");

  perfbench::CleanCleanSize size{200, 180, 150};
  perfbench::Shape shape;
  shape.drop_prob = 0.1;
  shape.corrupt_prob = 0.02;
  perfbench::WriteCleanClean((dir / "cc").string(), size, shape, 7);
  const Facts facts = perfbench::ReadCleanCleanFacts((dir / "cc").string());

  // A correct output: the planted matches that share a token.
  std::vector<IdPair> good;
  for (const IdPair& p : TruePairs(facts)) {
    const int64_t l = facts.e1.Find(p.first);
    const int64_t r = facts.e2.Find(p.second);
    if (perfbench::ShareToken(facts.e1.tokens[l], facts.e2.tokens[r])) {
      good.push_back(p);
    }
  }
  std::vector<uint64_t> keys;
  ExpectPass(perfbench::CheckPairs(facts, good, &keys), "pairs of a correct output");
  ExpectPass(perfbench::CheckQuality(facts, keys, 10000, 0.8, 5.0),
             "quality of a correct output");

  // A pair that shares no token.
  std::vector<IdPair> bad = good;
  bad.push_back(FindPair(facts, /*share=*/false));
  ExpectReject(perfbench::CheckPairs(facts, bad, &keys), "pair sharing no token");

  // An E1-E1 pair.
  bad = good;
  bad.emplace_back(facts.e1.ids[0], facts.e1.ids[1]);
  ExpectReject(perfbench::CheckPairs(facts, bad, &keys), "E1-E1 pair");

  // A repeated pair.
  bad = good;
  bad.push_back(good.front());
  ExpectReject(perfbench::CheckPairs(facts, bad, &keys), "repeated pair");

  // Recall below the floor: a tenth of the matches.
  bad.assign(good.begin(), good.begin() + static_cast<ptrdiff_t>(good.size() / 10));
  perfbench::CheckPairs(facts, bad, &keys);
  ExpectReject(perfbench::CheckQuality(facts, keys, 10000, 0.8, 5.0),
               "recall below the floor");

  // Precision not raised over the candidate set's.
  perfbench::CheckPairs(facts, good, &keys);
  ExpectReject(perfbench::CheckQuality(facts, keys, 100, 0.8, 5.0),
               "precision not above the candidate set's");

  // An RCNP entity with more than k retained pairs: one E1 profile joined
  // to three E2 profiles it shares a token with, under k = 2.
  std::vector<IdPair> star;
  const std::string_view hub = facts.e1.ids[0];
  for (size_t r = 0; r < facts.e2.size() && star.size() < 3; ++r) {
    if (perfbench::ShareToken(facts.e1.tokens[0], facts.e2.tokens[r])) {
      star.emplace_back(hub, facts.e2.ids[r]);
    }
  }
  ExpectPass(perfbench::CheckPairs(facts, star, &keys), "pairs of the star");
  ExpectPass(perfbench::CheckDegreeBound(facts, keys, 3), "degree within k");
  ExpectReject(perfbench::CheckDegreeBound(facts, keys, 2),
               "RCNP entity above k");
  if (perfbench::NodeBudget(1000, 400) != 3 || perfbench::NodeBudget(10, 400) != 1) {
    std::printf("FAIL node budget k = max(1, sum|b| / |E|)\n");
    ++failures;
  }

  // A kind whose set is not a subset of BCl's.
  std::vector<uint64_t> bcl = {1, 3, 5, 7};
  ExpectPass(perfbench::CheckSubset({3, 7}, bcl, "blast", "bcl"), "subset of BCl");
  ExpectReject(perfbench::CheckSubset({3, 4}, bcl, "blast", "bcl"),
               "kind not a subset of BCl");
  ExpectReject(perfbench::CheckCount(bcl, 3.0, "cep"), "CEP above sum|b|/2");

  // An incremental serving set that differs from the cold one.
  ExpectPass(perfbench::CheckSameSet(bcl, bcl, "serving"), "same serving set");
  ExpectReject(perfbench::CheckSameSet(bcl, {1, 3, 5}, "serving"),
               "incremental serving set differs from the cold one");

  // Probe answers.
  perfbench::ProbeAnswer answer{{4, 9, 2}, {0.9, 0.7, 0.6}};
  ExpectPass(perfbench::CheckProbe(answer, 0.5, 10, 5), "probe answer");
  ExpectReject(perfbench::CheckProbe(answer, 0.65, 10, 5), "probe below threshold");
  ExpectReject(perfbench::CheckProbe(answer, 0.5, 2, 5), "probe above max_results");
  ExpectReject(perfbench::CheckProbe(answer, 0.5, 10, 9), "probe with excluded id");
  answer.probabilities = {0.7, 0.9, 0.6};
  ExpectReject(perfbench::CheckProbe(answer, 0.5, 10, 5), "probe out of order");

  // Dirty ER: a profile paired with itself.
  perfbench::DirtySize dirty;
  dirty.objects = 100;
  dirty.late = 20;
  perfbench::WriteDirty((dir / "dirty").string(), dirty, shape, 7);
  const Facts serve = perfbench::ReadServeFacts((dir / "dirty").string());
  std::vector<IdPair> self = {FindPair(serve, true)};
  ExpectPass(perfbench::CheckPairs(serve, self, &keys), "dirty pair");
  self.emplace_back(serve.e1.ids[3], serve.e1.ids[3]);
  ExpectReject(perfbench::CheckPairs(serve, self, &keys), "dirty self pair");

  std::printf("%s\n", failures == 0 ? "CHECKS TEST OK" : "CHECKS TEST FAILED");
  return failures == 0 ? 0 : 1;
}
