#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "blocking/block_stats.h"
#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "checks.h"
#include "core/features.h"
#include "core/pipeline.h"
#include "core/pruning.h"
#include "datasets/io.h"
#include "gsmb/digest.h"
#include "gsmb/engine.h"
#include "gsmb/sweep.h"
#include "gsmb/telemetry.h"
#include "ml/classifier.h"
#include "ml/sampler.h"
#include "schemes/scheme_registry.h"
#include "serve/session.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"trace.op_ms", "ms"},
      {"datasets.load_csv_ms", "ms"},
      {"blocking.build_ms", "ms"},
      {"blocking.preprocess_ms", "ms"},
      {"blocking.entity_index_ms", "ms"},
      {"blocking.candidate_pairs_ms", "ms"},
      {"blocking.blocks", "count"},
      {"blocking.candidates", "count"},
      {"blocking.pc", "ratio"},
      {"blocking.pq", "ratio"},
      {"ml.sample_ms", "ms"},
      {"ml.train_ms", "ms"},
      {"ml.classify_ms", "ms"},
      {"core.features_ms", "ms"},
      {"core.prune_ms.blast", "ms"},
      {"core.prune_ms.rcnp", "ms"},
  };
  for (gsmb::PruningKind kind : gsmb::AllPruningKinds()) {
    const std::string name = gsmb::PruningShortName(kind);
    out.push_back({"core.retained." + name, "count"});
    out.push_back({"core.pc." + name, "ratio"});
    out.push_back({"core.pq." + name, "ratio"});
    out.push_back({"core.retained_per_candidate." + name, "ratio"});
  }
  out.insert(out.end(), {
                            {"obs.digest_ms", "ms"},
                            {"api.prepare_ms", "ms"},
                            {"api.job_self_ms", "ms"},
                            {"api.sweep_ms", "ms"},
                            {"api.sweep_parallel_efficiency", "ratio"},
                        });
  for (gsmb::PruningKind kind : gsmb::AllPruningKinds()) {
    out.push_back({"stream.execute_ms." + gsmb::PruningShortName(kind), "ms"});
  }
  out.push_back({"stream.shards", "count"});
  for (gsmb::PruningKind kind : gsmb::AllPruningKinds()) {
    out.push_back({"stream.sweeps." + gsmb::PruningShortName(kind), "count"});
  }
  out.insert(out.end(), {
                            {"stream.arena_peak_mb", "MiB"},
                            {"stream.reported_pairs_ms", "ms"},
                            {"stream.reported_features_ms", "ms"},
                            {"stream.reported_classify_ms", "ms"},
                            {"stream.reported_prune_ms", "ms"},
                            {"serve.open_session_ms", "ms"},
                            {"serve.ingest_us", "us"},
                            {"serve.refresh_ms", "ms"},
                            {"serve.dirty_shards", "count"},
                            {"serve.shard_candidates", "count"},
                            {"serve.query_p50_us", "us"},
                            {"serve.query_p99_us", "us"},
                            {"serve.query_results", "count"},
                            {"serve.arrival_hit_rate", "ratio"},
                            {"mem.rss_after_prepare_mb", "MiB"},
                            {"mem.rss_after_pairs_mb", "MiB"},
                            {"mem.rss_after_features_mb", "MiB"},
                        });
  return out;
}

namespace {

using gsmb::PruningKind;

// Every workload runs on 2 worker threads, whatever the machine has.
constexpr size_t kThreads = 2;

// Meta-blocking must raise precision: a retained set's precision is at
// least this multiple of the candidate set's.
constexpr double kPqGain = 5.0;

// stream-sweep: the arena budget that makes the executor cut the candidate
// space into several shards.
constexpr size_t kStreamBudgetMb = 12;

// serve-trickle: key shards, late arrivals per tick, probes per tick (half
// residents, half not-yet-ingested arrivals), results per probe, warm-up
// ticks and the absolute block cap (as a fraction of the residents).
constexpr size_t kServeShards = 128;
constexpr size_t kTickArrivals = 16;
constexpr size_t kTickProbes = 32;
constexpr size_t kMaxResults = 10;
constexpr size_t kWarmTicks = 4;
constexpr double kServePurgeFraction = 0.005;
constexpr size_t kTracedProbes = 1000;

// The least recall each pruning kind must reach on the benchmark's inputs.
double RecallFloor(PruningKind kind) {
  switch (kind) {
    case PruningKind::kCep:
      return 0.3;
    case PruningKind::kCnp:
    case PruningKind::kRcnp:
      return 0.5;
    default:
      return 0.7;
  }
}

using Samples = std::map<std::string, std::vector<double>>;

double StatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;
    }
  }
  return 0.0;
}

template <typename T>
T Take(gsmb::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.status().ToString());
  }
  return std::move(*result);
}

gsmb::JobSpec CleanCleanSpec(const std::string& dir) {
  gsmb::JobSpec spec;
  spec.dataset.source = gsmb::DatasetSource::kCsv;
  spec.dataset.e1 = dir + "/e1.csv";
  spec.dataset.e2 = dir + "/e2.csv";
  spec.dataset.ground_truth = dir + "/truth.csv";
  spec.execution.options.num_threads = kThreads;
  return spec;
}

std::vector<IdPair> Views(const std::vector<gsmb::RetainedPair>& pairs) {
  std::vector<IdPair> out;
  out.reserve(pairs.size());
  for (const gsmb::RetainedPair& p : pairs) out.emplace_back(p.left, p.right);
  return out;
}

uint64_t TotalBlockSizes(const gsmb::BlockCollection& blocks) {
  uint64_t total = 0;
  for (const gsmb::Block& block : blocks.blocks()) total += block.Size();
  return total;
}

// Facts row of every profile of a loaded collection.
std::vector<uint32_t> RowsOf(const gsmb::EntityCollection& collection,
                             const Collection& facts) {
  std::vector<uint32_t> rows(collection.size());
  for (size_t i = 0; i < collection.size(); ++i) {
    const int64_t row = facts.Find(collection[i].external_id());
    if (row < 0) {
      throw std::runtime_error("loaded profile '" +
                               collection[i].external_id() +
                               "' is not in the input");
    }
    rows[i] = static_cast<uint32_t>(row);
  }
  return rows;
}

// The timed operations' durations, on stderr, for a reader of the run log.
void LogOps(const std::vector<double>& op_ms) {
  std::fprintf(stderr, "perfbench: %zu operations, ms:", op_ms.size());
  for (double ms : op_ms) std::fprintf(stderr, " %.1f", ms);
  std::fprintf(stderr, "\n");
}

void SetMedian(Report* report, const Samples& samples, const std::string& name,
               const std::string& unit) {
  auto it = samples.find(name);
  if (it != samples.end()) report->Set(name, Median(it->second), unit);
}

void SetLayerMetrics(Report* report, const Samples& samples) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    SetMedian(report, samples, name, unit);
  }
}

// Span durations of `tracer`, recorded as samples under metric names:
// span "x.y" -> "x.y_ms".
void AddSpanSamples(const Tracer& tracer, Samples* samples) {
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.end_ns != 0) (*samples)[span.name + "_ms"].push_back(span.ms());
  }
}

// ---------------------------------------------------------------------------
// The batch pipeline, one public layer function per step
// ---------------------------------------------------------------------------

struct Layers {
  gsmb::JobInputs inputs;
  gsmb::BlockCollection blocks;
  std::unique_ptr<gsmb::EntityIndex> index;
  std::vector<gsmb::CandidatePair> pairs;
  std::vector<uint8_t> is_positive;
};

// Steps 1-5: CSV loading, the `token` blocker from the scheme registry,
// PreprocessBlocks, EntityIndex and GenerateCandidatePairs (with the
// ground-truth labels the trainer samples from).
void ComposePrepare(const gsmb::JobSpec& spec, Tracer* tracer,
                    Samples* samples, Layers* out) {
  const bool dirty = spec.dataset.e2.empty();
  tracer->Time("datasets.load_csv", [&] {
    out->inputs.dirty = dirty;
    out->inputs.e1 = gsmb::LoadCollectionCsv(spec.dataset.e1, "dataset.e1");
    if (!dirty) {
      out->inputs.e2 = gsmb::LoadCollectionCsv(spec.dataset.e2, "dataset.e2");
    }
    out->inputs.ground_truth = gsmb::LoadGroundTruthCsv(
        spec.dataset.ground_truth, out->inputs.e1,
        dirty ? out->inputs.e1 : out->inputs.e2, dirty);
  });
  const gsmb::schemes::Blocker* blocker =
      gsmb::schemes::FindBlocker(spec.blocking.scheme);
  if (blocker == nullptr) throw std::runtime_error("no token blocker");
  gsmb::BlockCollection raw = tracer->Time("blocking.build", [&] {
    return blocker->Build(out->inputs, spec.blocking, kThreads);
  });
  gsmb::BlockingOptions options;
  options.min_token_length = spec.blocking.min_token_length;
  options.purge_size_fraction = spec.blocking.purge_size_fraction;
  options.filter_ratio = spec.blocking.filter_ratio;
  options.execution.num_threads = kThreads;
  out->blocks = tracer->Time("blocking.preprocess", [&] {
    return gsmb::PreprocessBlocks(std::move(raw), options);
  });
  out->index = tracer->Time("blocking.entity_index", [&] {
    return std::make_unique<gsmb::EntityIndex>(out->blocks, kThreads);
  });
  (*samples)["mem.rss_after_prepare_mb"].push_back(StatusMb("VmRSS"));
  tracer->Time("blocking.candidate_pairs", [&] {
    out->pairs = gsmb::GenerateCandidatePairs(*out->index, kThreads);
    out->is_positive.resize(out->pairs.size());
    for (size_t i = 0; i < out->pairs.size(); ++i) {
      out->is_positive[i] = out->inputs.ground_truth.IsMatch(
                                out->pairs[i].left, out->pairs[i].right)
                                ? 1
                                : 0;
    }
  });
  (*samples)["mem.rss_after_pairs_mb"].push_back(StatusMb("VmRSS"));
}

// Facts key of every candidate pair.
std::vector<uint64_t> CandidateKeys(const Layers& layers, const Facts& facts) {
  const std::vector<uint32_t> left = RowsOf(layers.inputs.e1, facts.e1);
  const std::vector<uint32_t> right =
      facts.dirty ? left : RowsOf(layers.inputs.e2, facts.e2);
  std::vector<uint64_t> keys(layers.pairs.size());
  for (size_t i = 0; i < layers.pairs.size(); ++i) {
    uint32_t a = left[layers.pairs[i].left];
    uint32_t b = right[layers.pairs[i].right];
    if (facts.dirty && a > b) std::swap(a, b);
    keys[i] = PairKey(a, b);
  }
  return keys;
}

// The blocking funnel against the benchmark's own planted matches.
void RecordFunnel(const Layers& layers, const Facts& facts, Samples* samples) {
  const std::vector<uint64_t> keys = CandidateKeys(layers, facts);
  const double tp = static_cast<double>(TruePositives(facts, keys));
  (*samples)["blocking.blocks"].push_back(
      static_cast<double>(layers.blocks.size()));
  (*samples)["blocking.candidates"].push_back(static_cast<double>(keys.size()));
  (*samples)["blocking.pc"].push_back(
      tp / static_cast<double>(std::max<size_t>(1, facts.truth.size())));
  (*samples)["blocking.pq"].push_back(
      tp / static_cast<double>(std::max<size_t>(1, keys.size())));
}

// Records retained count, PC, PQ and retained/candidates of one kind.
void RecordRetained(const std::string& kind, const Facts& facts,
                    const std::vector<uint64_t>& keys, uint64_t candidates,
                    Samples* samples) {
  const double retained = static_cast<double>(keys.size());
  const double tp = static_cast<double>(TruePositives(facts, keys));
  (*samples)["core.retained." + kind].push_back(retained);
  (*samples)["core.pc." + kind].push_back(
      tp / static_cast<double>(std::max<size_t>(1, facts.truth.size())));
  (*samples)["core.pq." + kind].push_back(tp / std::max(1.0, retained));
  (*samples)["core.retained_per_candidate." + kind].push_back(
      retained / static_cast<double>(std::max<uint64_t>(1, candidates)));
}

struct ComposedJob {
  std::vector<uint32_t> retained;  ///< indices into Layers::pairs
  uint64_t digest = 0;
};

// Steps 6-10: FeatureExtractor::Compute, SampleBalanced, the classifier,
// MakePruningAlgorithm(kind)->Prune and PairSetDigest.
ComposedJob ComposeJob(const gsmb::JobSpec& spec, const Layers& layers,
                       Tracer* tracer, Samples* samples) {
  const gsmb::Matrix features = tracer->Time("core.features", [&] {
    return gsmb::FeatureExtractor(*layers.index, layers.pairs)
        .Compute(spec.features, kThreads);
  });
  (*samples)["mem.rss_after_features_mb"].push_back(StatusMb("VmRSS"));
  gsmb::Rng rng(spec.training.seed);
  const gsmb::TrainingSet training = tracer->Time("ml.sample", [&] {
    return gsmb::SampleBalanced(layers.is_positive,
                                spec.training.labels_per_class, &rng);
  });
  const std::unique_ptr<gsmb::ProbabilisticClassifier> model =
      tracer->Time("ml.train", [&] {
        auto fitted = gsmb::MakeClassifier(spec.classifier, spec.training.seed);
        fitted->Fit(features.SelectRows(training.row_indices), training.labels);
        return fitted;
      });
  const std::vector<double> probabilities = tracer->Time(
      "ml.classify", [&] { return model->PredictBatch(features, kThreads); });
  ComposedJob job;
  job.retained = tracer->Time(
      "core.prune." + gsmb::PruningShortName(spec.pruning.kind), [&] {
        gsmb::PruningContext context = gsmb::PruningContext::FromIndex(
            *layers.index, gsmb::ComputeBlockStats(layers.blocks));
        context.blast_ratio = spec.pruning.blast_ratio;
        context.validity_threshold = spec.pruning.validity_threshold;
        context.execution.num_threads = kThreads;
        return gsmb::MakePruningAlgorithm(spec.pruning.kind)
            ->Prune(layers.pairs, probabilities, context);
      });
  job.digest = tracer->Time("obs.digest", [&] {
    gsmb::obs::PairSetDigest digest;
    for (uint32_t index : job.retained) {
      const gsmb::CandidatePair& pair = layers.pairs[index];
      digest.AddPair(layers.inputs.ExternalLeftId(pair.left),
                     layers.inputs.ExternalRightId(pair.right));
    }
    return digest.Value();
  });
  return job;
}

// ---------------------------------------------------------------------------
// batch-oneshot
// ---------------------------------------------------------------------------

struct BatchJob {
  PruningKind kind;
  gsmb::FeatureSet features;
};

std::vector<BatchJob> BatchJobs() {
  return {{PruningKind::kBlast, gsmb::FeatureSet::BlastOptimal()},
          {PruningKind::kRcnp, gsmb::FeatureSet::RcnpOptimal()}};
}

gsmb::JobSpec BatchSpec(const std::string& dir, const BatchJob& job) {
  gsmb::JobSpec spec = CleanCleanSpec(dir);
  spec.pruning.kind = job.kind;
  spec.features = job.features;
  spec.output.keep_retained = true;
  return spec;
}

struct OneShot {
  gsmb::JobResult result;
  double ms = 0.0;             ///< Engine::Run wall time
  uint64_t block_sizes = 0;    ///< Σ|b| of the prepared blocks
};

// One job as `gsmb_cli run` does it: a fresh Engine reads the CSV files and
// runs the batch backend through to the retained set. Only Run is timed;
// Σ|b| is read from the engine's cached preparation afterwards.
OneShot RunOneShot(const gsmb::JobSpec& spec) {
  gsmb::Engine engine;
  OneShot out;
  const int64_t start = NowNs();
  gsmb::Result<gsmb::JobResult> result = engine.Run(spec);
  out.ms = MsSince(start);
  out.result = Take(std::move(result), "Engine::Run");
  const gsmb::PreparedHandle prepared =
      Take(engine.Prepare(spec), "Engine::Prepare");
  out.block_sizes = TotalBlockSizes(prepared->stream.blocks);
  return out;
}

// Checks one batch job's retained pairs; `keys` receives them resolved.
std::string CheckBatchJob(const Facts& facts, PruningKind kind,
                          const std::vector<IdPair>& pairs,
                          uint64_t candidates, uint64_t block_sizes,
                          std::vector<uint64_t>* keys) {
  std::string why = CheckPairs(facts, pairs, keys);
  if (why.empty()) {
    why = CheckQuality(facts, *keys, candidates, RecallFloor(kind), kPqGain);
  }
  if (why.empty() && kind == PruningKind::kRcnp) {
    why = CheckDegreeBound(facts, *keys,
                           NodeBudget(block_sizes, facts.num_profiles()));
  }
  return why.empty() ? why : gsmb::PruningShortName(kind) + ": " + why;
}

Report BatchTimed(const RunOptions& options) {
  Report report;
  const std::vector<BatchJob> jobs = BatchJobs();
  std::vector<gsmb::JobSpec> specs;
  for (const BatchJob& job : jobs) specs.push_back(BatchSpec(options.data_dir, job));

  // Warm-up round: its digests are what every timed round must reproduce.
  std::vector<uint64_t> digests;
  for (const gsmb::JobSpec& spec : specs) {
    digests.push_back(RunOneShot(spec).result.retained_digest);
  }

  std::optional<Facts> facts;
  std::vector<double> op_ms;
  const int64_t first_op = NowNs();
  report.Set("setup_s", static_cast<double>(first_op - options.start_ns) / 1e9,
             "s");
  do {
    std::vector<OneShot> round;
    double ms = 0.0;
    ++report.attempted;
    try {
      for (const gsmb::JobSpec& spec : specs) {
        round.push_back(RunOneShot(spec));
        ms += round.back().ms;
      }
    } catch (const std::exception& e) {
      ++report.failed;
      std::fprintf(stderr, "perfbench: operation failed: %s\n", e.what());
      continue;
    }
    op_ms.push_back(ms);
    report.Set("peak_rss_mb", StatusMb("VmHWM"), "MiB");
    if (!facts) facts = ReadCleanCleanFacts(options.data_dir);
    for (size_t j = 0; j < jobs.size(); ++j) {
      const gsmb::JobResult& result = round[j].result;
      std::vector<uint64_t> keys;
      const std::string why =
          CheckBatchJob(*facts, jobs[j].kind, Views(result.retained),
                        result.num_candidates, round[j].block_sizes, &keys);
      if (!why.empty()) report.Fail(why);
      if (result.retained_digest != digests[j]) {
        report.Fail("batch retained digest changed between operations");
      }
    }
  } while (MsSince(first_op) < options.seconds * 1e3);
  LogOps(op_ms);
  report.Set("op_ms", Median(op_ms), "ms");
  return report;
}

Report BatchTraced(const RunOptions& options) {
  Report report;
  Tracer tracer(true);
  Samples samples;
  const Facts facts = ReadCleanCleanFacts(options.data_dir);
  const std::vector<BatchJob> jobs = BatchJobs();
  std::vector<gsmb::JobSpec> specs;
  for (const BatchJob& job : jobs) specs.push_back(BatchSpec(options.data_dir, job));

  // Warm-up, as in the timed run; also the batch digests at 2 threads.
  std::vector<uint64_t> digests;
  for (const gsmb::JobSpec& spec : specs) {
    digests.push_back(RunOneShot(spec).result.retained_digest);
  }

  std::vector<double> op_ms;
  const int64_t first_op = NowNs();
  bool first_round = true;
  do {
    ++report.attempted;
    double round_ms = 0.0;
    for (size_t j = 0; j < jobs.size(); ++j) {
      const gsmb::JobSpec& spec = specs[j];
      const std::string kind = gsmb::PruningShortName(spec.pruning.kind);
      double layer_ms = 0.0;
      {
        Layers layers;
        const size_t job_span = tracer.Open("job." + kind);
        ComposePrepare(spec, &tracer, &samples, &layers);
        const ComposedJob job = ComposeJob(spec, layers, &tracer, &samples);
        tracer.Close(job_span);
        round_ms += tracer.spans()[job_span].ms();
        layer_ms = tracer.ChildMs(job_span);

        // Untimed: the funnel, the per-kind counts and the checks.
        if (first_round && j == 0) RecordFunnel(layers, facts, &samples);
        std::vector<IdPair> pairs;
        for (uint32_t index : job.retained) {
          const gsmb::CandidatePair& pair = layers.pairs[index];
          pairs.emplace_back(layers.inputs.ExternalLeftId(pair.left),
                             layers.inputs.ExternalRightId(pair.right));
        }
        std::vector<uint64_t> keys;
        const std::string why =
            CheckBatchJob(facts, jobs[j].kind, pairs, layers.pairs.size(),
                          TotalBlockSizes(layers.blocks), &keys);
        if (!why.empty()) report.Fail(why);
        RecordRetained(kind, facts, keys, layers.pairs.size(), &samples);
        if (job.digest != digests[j]) {
          report.Fail(kind +
                      ": layer-by-layer digest differs from Engine::Run's");
        }
      }
      // The same job through Engine::Run: its time beyond the layer spans
      // is the facade's own.
      const OneShot shot = RunOneShot(spec);
      samples["api.job_self_ms"].push_back(shot.ms - layer_ms);
      if (j == 0) {
        tracer.Time("api.prepare", [&] {
          gsmb::Engine engine;
          Take(engine.Prepare(spec), "Engine::Prepare");
        });
      }
    }
    op_ms.push_back(round_ms);
    first_round = false;
  } while (MsSince(first_op) < options.seconds * 1e3);

  // Batch at 2 threads and streaming at 1 thread retain the same pairs.
  for (size_t j = 0; j < jobs.size(); ++j) {
    gsmb::JobSpec spec = specs[j];
    spec.output.keep_retained = false;
    spec.execution.options.num_threads = 1;
    gsmb::Engine engine;
    const gsmb::JobResult streamed =
        Take(engine.RunOn("streaming", spec), "streaming run");
    if (streamed.retained_digest != digests[j]) {
      report.Fail(gsmb::PruningShortName(jobs[j].kind) +
                  ": streaming at 1 thread differs from batch at 2 threads");
    }
  }

  AddSpanSamples(tracer, &samples);
  samples["core.prune_ms.blast"] = samples["core.prune.blast_ms"];
  samples["core.prune_ms.rcnp"] = samples["core.prune.rcnp_ms"];
  samples["trace.op_ms"] = op_ms;
  SetLayerMetrics(&report, samples);
  if (!options.trace_out.empty()) tracer.Write(options.trace_out);
  return report;
}

}  // namespace

Report RunBatchOneshot(const RunOptions& options) {
  return options.trace ? BatchTraced(options) : BatchTimed(options);
}

// ---------------------------------------------------------------------------
// stream-sweep
// ---------------------------------------------------------------------------

namespace {

// Checks every variant of one sweep. `keys` receives each kind's resolved
// retained set.
std::string CheckSweep(const Facts& facts, const gsmb::SweepResult& sweep,
                       uint64_t block_sizes,
                       std::map<PruningKind, std::vector<uint64_t>>* keys) {
  for (const gsmb::SweepVariant& variant : sweep.variants) {
    const PruningKind kind = variant.spec.pruning.kind;
    const std::string name = gsmb::PruningShortName(kind);
    if (!variant.status.ok()) {
      return name + ": variant failed: " + variant.status.ToString();
    }
    std::vector<uint64_t>& set = (*keys)[kind];
    std::string why = CheckPairs(facts, Views(variant.result.retained), &set);
    if (why.empty()) {
      why = CheckQuality(facts, set, variant.result.num_candidates,
                         RecallFloor(kind), kPqGain);
    }
    if (!why.empty()) return name + ": " + why;
  }
  const std::vector<uint64_t>& bcl = (*keys)[PruningKind::kBCl];
  for (const auto& [kind, set] : *keys) {
    const std::string why =
        CheckSubset(set, bcl, gsmb::PruningShortName(kind), "bcl");
    if (!why.empty()) return why;
  }
  std::string why = CheckSubset((*keys)[PruningKind::kRwnp],
                                (*keys)[PruningKind::kWnp], "rwnp", "wnp");
  if (why.empty()) {
    why = CheckSubset((*keys)[PruningKind::kRcnp], (*keys)[PruningKind::kCnp],
                      "rcnp", "cnp");
  }
  if (why.empty()) {
    why = CheckCount((*keys)[PruningKind::kCep],
                     static_cast<double>(block_sizes) / 2.0, "cep");
  }
  if (why.empty()) {
    why = CheckDegreeBound(facts, (*keys)[PruningKind::kRcnp],
                           NodeBudget(block_sizes, facts.num_profiles()));
  }
  return why;
}

}  // namespace

Report RunStreamSweep(const RunOptions& options) {
  Report report;
  Tracer tracer(options.trace);
  Samples samples;
  gsmb::JobSpec spec = CleanCleanSpec(options.data_dir);
  spec.execution.mode = gsmb::ExecutionMode::kStreaming;
  spec.execution.shards = 1;
  spec.execution.memory_budget_mb = kStreamBudgetMb;
  spec.output.keep_retained = true;

  std::optional<Facts> facts;
  if (options.trace) {
    // A layer-by-layer mirror of the preparation the set-up makes.
    facts = ReadCleanCleanFacts(options.data_dir);
    Layers layers;
    ComposePrepare(spec, &tracer, &samples, &layers);
    RecordFunnel(layers, *facts, &samples);
  }

  gsmb::Engine engine;
  const gsmb::PreparedHandle prepared = tracer.Time("api.prepare", [&] {
    return Take(engine.Prepare(spec), "Engine::Prepare");
  });
  const uint64_t block_sizes = TotalBlockSizes(prepared->stream.blocks);
  gsmb::SweepSpec sweep;
  sweep.base = spec;
  sweep.axes.pruning = gsmb::AllPruningKinds();

  // Warm-up sweep: its digests are what every timed sweep must reproduce.
  std::vector<uint64_t> digests;
  for (const gsmb::SweepVariant& v :
       Take(engine.RunSweep(sweep), "warm-up sweep").variants) {
    digests.push_back(v.result.retained_digest);
  }

  std::vector<double> op_ms;
  const int64_t first_op = NowNs();
  report.Set("setup_s", static_cast<double>(first_op - options.start_ns) / 1e9,
             "s");
  // The RCNP variant of the last sweep, for the cross-backend check.
  gsmb::JobSpec rcnp_spec;
  uint64_t rcnp_digest = 0;
  do {
    ++report.attempted;
    const int64_t start = NowNs();
    gsmb::Result<gsmb::SweepResult> result = tracer.Time(
        "api.sweep", [&] { return engine.RunSweep(sweep); });
    const double ms = MsSince(start);
    if (!result.ok()) {
      ++report.failed;
      std::fprintf(stderr, "perfbench: sweep failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    op_ms.push_back(ms);
    report.Set("peak_rss_mb", StatusMb("VmHWM"), "MiB");
    if (!facts) facts = ReadCleanCleanFacts(options.data_dir);
    std::map<PruningKind, std::vector<uint64_t>> keys;
    const std::string why = CheckSweep(*facts, *result, block_sizes, &keys);
    if (!why.empty()) report.Fail(why);
    for (size_t v = 0; v < result->variants.size(); ++v) {
      if (result->variants[v].result.retained_digest != digests[v]) {
        report.Fail("sweep retained digest changed between operations");
      }
    }
    if (options.trace) {
      double pairs = 0, features = 0, train = 0, classify = 0, prune = 0;
      for (const gsmb::SweepVariant& v : result->variants) {
        const gsmb::JobResult& r = v.result;
        const std::string name = gsmb::PruningShortName(v.spec.pruning.kind);
        pairs += r.generate_seconds * 1e3;
        features += r.feature_seconds * 1e3;
        train += r.train_seconds * 1e3;
        classify += r.classify_seconds * 1e3;
        prune += r.prune_seconds * 1e3;
        samples["stream.shards"].push_back(static_cast<double>(r.shards_used));
        samples["stream.sweeps." + name].push_back(static_cast<double>(r.sweeps));
        if (name == "blast" || name == "rcnp") {
          samples["core.prune_ms." + name].push_back(r.prune_seconds * 1e3);
        }
        RecordRetained(name, *facts, keys[v.spec.pruning.kind],
                       r.num_candidates, &samples);
        // The same variant alone on the shared handle.
        tracer.Time("stream.execute." + name, [&] {
          Take(engine.Execute(v.spec, *prepared), "Engine::Execute");
        });
      }
      samples["stream.reported_pairs_ms"].push_back(pairs);
      samples["stream.reported_features_ms"].push_back(features);
      samples["stream.reported_classify_ms"].push_back(classify);
      samples["stream.reported_prune_ms"].push_back(prune);
      samples["core.features_ms"].push_back(features);
      samples["ml.train_ms"].push_back(train);
      samples["ml.classify_ms"].push_back(classify);
    }
    for (const gsmb::SweepVariant& v : result->variants) {
      if (v.spec.pruning.kind != PruningKind::kRcnp) continue;
      rcnp_spec = v.spec;
      rcnp_digest = v.result.retained_digest;
    }
  } while (MsSince(first_op) < options.seconds * 1e3);

  // Once per run, untimed: one variant on the batch backend retains the
  // same pairs as on the streaming backend.
  rcnp_spec.output.keep_retained = false;
  const gsmb::JobResult batch =
      Take(engine.RunOn("batch", rcnp_spec), "batch run");
  if (batch.retained_digest != rcnp_digest) {
    report.Fail("rcnp: batch and streaming backends retain different pairs");
  }

  if (options.trace) {
    // The arena the executor sized, from the program's own gauge.
    gsmb::obs::TelemetrySink sink;
    gsmb::obs::InstallSink(&sink);
    gsmb::JobSpec blast = spec;
    blast.output.keep_retained = false;
    const gsmb::Result<gsmb::JobResult> r = engine.Execute(blast, *prepared);
    gsmb::obs::InstallSink(nullptr);
    if (!r.ok()) report.Fail("arena probe failed: " + r.status().ToString());
    const gsmb::obs::MetricsSnapshot snapshot = sink.SnapshotMetrics();
    auto gauge = snapshot.gauges.find("arena.bytes.peak");
    if (gauge != snapshot.gauges.end()) {
      samples["stream.arena_peak_mb"].push_back(gauge->second / (1024.0 * 1024.0));
    }
    AddSpanSamples(tracer, &samples);
    double variants_ms = 0.0;
    for (PruningKind kind : gsmb::AllPruningKinds()) {
      const std::string name = gsmb::PruningShortName(kind);
      samples["stream.execute_ms." + name] =
          samples["stream.execute." + name + "_ms"];
      variants_ms += Median(samples["stream.execute_ms." + name]);
    }
    const double sweep_ms = Median(samples["api.sweep_ms"]);
    samples["api.sweep_parallel_efficiency"].push_back(
        variants_ms / (sweep_ms * static_cast<double>(kThreads)));
    samples["trace.op_ms"] = op_ms;
    SetLayerMetrics(&report, samples);
    if (!options.trace_out.empty()) tracer.Write(options.trace_out);
  } else {
    LogOps(op_ms);
    report.Set("op_ms", Median(op_ms), "ms");
  }
  return report;
}

// ---------------------------------------------------------------------------
// serve-trickle
// ---------------------------------------------------------------------------

namespace {

struct Probe {
  gsmb::EntityProfile profile;
  std::optional<gsmb::EntityId> exclude;  ///< set for resident probes
};

}  // namespace

Report RunServeTrickle(const RunOptions& options) {
  Report report;
  Tracer tracer(options.trace);
  Samples samples;
  const std::string& dir = options.data_dir;
  gsmb::JobSpec spec;
  spec.dataset.source = gsmb::DatasetSource::kCsv;
  spec.dataset.e1 = dir + "/resident.csv";
  spec.dataset.ground_truth = dir + "/resident_truth.csv";
  spec.blocking.filter_ratio = 1.0;
  spec.blocking.purge_size_fraction = kServePurgeFraction;
  spec.execution.mode = gsmb::ExecutionMode::kServing;
  spec.execution.shards = kServeShards;
  spec.execution.options.num_threads = kThreads;

  std::optional<Facts> facts;
  if (options.trace) {
    // A layer-by-layer mirror of the preparation OpenSession makes, and
    // that preparation alone through the Engine.
    facts = ReadServeFacts(dir);
    {
      Layers layers;
      ComposePrepare(spec, &tracer, &samples, &layers);
      RecordFunnel(layers, *facts, &samples);
    }
    tracer.Time("api.prepare", [&] {
      gsmb::Engine engine;
      Take(engine.Prepare(spec), "Engine::Prepare");
    });
  }

  gsmb::Engine engine;
  gsmb::MetaBlockingSession session = tracer.Time("serve.open_session", [&] {
    return Take(engine.OpenSession(spec), "Engine::OpenSession");
  });
  const gsmb::EntityCollection late =
      gsmb::LoadCollectionCsv(dir + "/late.csv", "late");
  const size_t residents = session.profiles().size();
  const double threshold = session.options().validity_threshold;

  size_t cursor = 0;  // next late arrival to ingest
  size_t tick = 0;
  size_t arrival_probes = 0;
  size_t arrival_hits = 0;
  size_t probes_run = 0;
  std::vector<double> results_per_probe;

  // One tick: ingest a batch of arrivals, refresh, then probe. Returns the
  // tick's wall time; the answers are checked after the clock stops.
  auto run_tick = [&]() -> double {
    const std::vector<gsmb::EntityProfile> batch(
        late.profiles().begin() + static_cast<ptrdiff_t>(cursor),
        late.profiles().begin() + static_cast<ptrdiff_t>(cursor + kTickArrivals));
    std::vector<Probe> probes;
    for (size_t j = 0; j < kTickProbes / 2; ++j) {
      const gsmb::EntityId id = static_cast<gsmb::EntityId>(
          ((tick * kTickProbes / 2 + j) * 7919) % residents);
      probes.push_back({session.profiles()[id], id});
    }
    for (size_t j = 0; j < kTickProbes / 2; ++j) {
      probes.push_back({late[cursor + kTickArrivals + j], std::nullopt});
    }
    std::vector<std::vector<gsmb::QueryMatch>> answers(probes.size());

    const int64_t start = NowNs();
    tracer.Time("serve.ingest", [&] { session.AddProfiles(batch); });
    if (options.trace) {
      samples["serve.dirty_shards"].push_back(
          static_cast<double>(session.DirtyShardCount()));
    }
    tracer.Time("serve.refresh", [&] { session.Refresh(); });
    for (size_t p = 0; p < probes.size(); ++p) {
      answers[p] = tracer.Time("serve.query", [&] {
        return session.QueryCandidates(probes[p].profile, kMaxResults,
                                       probes[p].exclude);
      });
    }
    const double ms = MsSince(start);

    cursor += kTickArrivals;
    ++tick;
    probes_run += probes.size();
    if (!facts) facts = ReadServeFacts(dir);
    for (size_t p = 0; p < probes.size(); ++p) {
      ProbeAnswer answer;
      for (const gsmb::QueryMatch& m : answers[p]) {
        answer.ids.push_back(m.id);
        answer.probabilities.push_back(m.probability);
      }
      results_per_probe.push_back(static_cast<double>(answer.ids.size()));
      const std::string why =
          CheckProbe(answer, threshold, kMaxResults, probes[p].exclude);
      if (!why.empty()) report.Fail(why);
      if (probes[p].exclude) continue;
      // An arrival probe: does it find a planted resident duplicate?
      const int64_t row = facts->e1.Find(probes[p].profile.external_id());
      ++arrival_probes;
      for (const gsmb::QueryMatch& m : answers[p]) {
        const int64_t other =
            facts->e1.Find(session.profiles()[m.id].external_id());
        if (row < 0 || other < 0) continue;
        if (facts->truth.count(PairKey(
                static_cast<uint32_t>(std::min(row, other)),
                static_cast<uint32_t>(std::max(row, other))))) {
          ++arrival_hits;
          break;
        }
      }
    }
    return ms;
  };
  auto can_tick = [&] {
    return cursor + kTickArrivals + kTickProbes / 2 <= late.size();
  };

  for (size_t w = 0; w < kWarmTicks && can_tick(); ++w) run_tick();

  std::vector<double> op_ms;
  const int64_t first_op = NowNs();
  report.Set("setup_s", static_cast<double>(first_op - options.start_ns) / 1e9,
             "s");
  while (can_tick()) {
    ++report.attempted;
    op_ms.push_back(run_tick());
    if (MsSince(first_op) >= options.seconds * 1e3 &&
        (!options.trace || probes_run >= kTracedProbes)) {
      break;
    }
  }
  report.Set("peak_rss_mb", StatusMb("VmHWM"), "MiB");

  // Untimed: the incremental state equals a cold build of the same
  // profiles, and every retained pair passes the pair checks.
  const std::vector<gsmb::CandidatePair> incremental = session.RetainedPairs();
  gsmb::MetaBlockingSession cold(session.options(), session.model());
  cold.AddProfiles(session.profiles().profiles());
  cold.Refresh();
  auto keys_of = [](const std::vector<gsmb::CandidatePair>& pairs) {
    std::vector<uint64_t> keys;
    for (const gsmb::CandidatePair& p : pairs) keys.push_back(PairKey(p.left, p.right));
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  std::string why = CheckSameSet(keys_of(incremental), keys_of(cold.RetainedPairs()),
                                 "incremental vs cold serving set");
  if (!why.empty()) report.Fail(why);
  std::vector<IdPair> pairs;
  for (const gsmb::CandidatePair& p : incremental) {
    pairs.emplace_back(session.profiles()[p.left].external_id(),
                       session.profiles()[p.right].external_id());
  }
  std::vector<uint64_t> keys;
  why = CheckPairs(*facts, pairs, &keys);
  if (!why.empty()) report.Fail("serving retained set: " + why);
  // How often an arrival probe finds its planted resident duplicate is
  // reported, not gated: with many key shards it swings with the training
  // sample (see README.md).
  samples["serve.arrival_hit_rate"] = {
      static_cast<double>(arrival_hits) /
      static_cast<double>(std::max<size_t>(1, arrival_probes))};

  if (options.trace) {
    AddSpanSamples(tracer, &samples);
    std::vector<double> query_us;
    for (double ms : samples["serve.query_ms"]) query_us.push_back(ms * 1e3);
    samples["serve.query_p50_us"] = {Quantile(query_us, 0.50)};
    samples["serve.query_p99_us"] = {Quantile(query_us, 0.99)};
    std::vector<double> ingest_us;
    for (double ms : samples["serve.ingest_ms"]) ingest_us.push_back(ms * 1e3);
    samples["serve.ingest_us"] = ingest_us;
    samples["serve.shard_candidates"] = {
        static_cast<double>(session.Stats().num_candidates)};
    double mean_results = 0.0;
    for (double r : results_per_probe) mean_results += r;
    samples["serve.query_results"] = {
        mean_results / static_cast<double>(std::max<size_t>(1, results_per_probe.size()))};
    samples["trace.op_ms"] = op_ms;
    SetLayerMetrics(&report, samples);
    if (!options.trace_out.empty()) tracer.Write(options.trace_out);
  } else {
    LogOps(op_ms);
    report.Set("op_ms", Median(op_ms), "ms");
  }
  return report;
}

}  // namespace perfbench
