// Writes one workload's inputs from a seed, before the measured process
// starts (generation is never timed).
//
//   perfbench_gen --workload <name> --seed <n> --out <dir>
//
// The sizes below are the benchmark's definition of each workload; README.md
// describes them.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "inputs.h"

namespace {

using perfbench::CleanCleanSize;
using perfbench::DirtySize;
using perfbench::Shape;

// batch-oneshot: a dense Clean-Clean pair standing in for Movies.
void BatchOneshot(const std::string& dir, uint64_t seed) {
  CleanCleanSize size;
  size.e1 = 7000;
  size.e2 = 6000;
  size.matches = 5800;
  Shape shape;
  shape.vocab_per_profile = 0.6;
  perfbench::WriteCleanClean(dir, size, shape, seed);
}

// stream-sweep: |E1| << |E2|, standing in for WalmartAmazon.
void StreamSweep(const std::string& dir, uint64_t seed) {
  CleanCleanSize size;
  size.e1 = 1100;
  size.e2 = 9500;
  size.matches = 500;
  Shape shape;
  shape.drop_prob = 0.34;
  shape.corrupt_prob = 0.12;
  shape.vocab_per_profile = 0.5;
  perfbench::WriteCleanClean(dir, size, shape, seed);
}

// serve-trickle: a Dirty collection standing in for the D-series, with a
// pool of late arrivals held back from it.
void ServeTrickle(const std::string& dir, uint64_t seed) {
  DirtySize size;
  size.objects = 16000;
  size.late = 6000;
  Shape shape;
  shape.drop_prob = 0.10;
  shape.corrupt_prob = 0.05;
  shape.vocab_per_profile = 1.5;
  perfbench::WriteDirty(dir, size, shape, seed);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = argv[i + 1];
    }
  }
  if (workload.empty() || out.empty() || !have_seed) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload <name> --seed <n> --out "
                 "<dir>\n");
    return 2;
  }
  try {
    if (workload == "batch-oneshot") {
      BatchOneshot(out, seed);
    } else if (workload == "stream-sweep") {
      StreamSweep(out, seed);
    } else if (workload == "serve-trickle") {
      ServeTrickle(out, seed);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
