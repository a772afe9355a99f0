#include "workload.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "text/corpus.h"
#include "text/tokenizer.h"

namespace perfbench {
namespace {

// Sizes keep one timed streaming run short (0.6-1.8 s) so a measurement
// window holds several warm runs; see README.md for why each workload
// exists and why tweet_firehose is not in BENCHMARK.json.
const Workload kWorkloads[] = {
    {"tweet_firehose", dssj::DatasetPreset::kTweet, 800, 400'000,
     dssj::JoinTransport::kInproc, 0, 0.0, 0, false},
    {"enron_heavy", dssj::DatasetPreset::kEnron, 600, 60'000,
     dssj::JoinTransport::kInproc, 0, 0.0, 0, false},
    {"tweet_paced_loopback", dssj::DatasetPreset::kTweet, 800, 100'000,
     dssj::JoinTransport::kLoopback, 2, 150'000.0, 0, false},
    {"tweet_spill", dssj::DatasetPreset::kTweet, 800, 20'000,
     dssj::JoinTransport::kInproc, 0, 0.0, 128 << 10, true},
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Renders a token id as a lower-case alphanumeric word, so the word
// tokenizer maps it back to exactly one token.
void AppendWord(dssj::TokenId id, std::string* out) {
  char buf[16];
  int n = 0;
  do {
    const int digit = static_cast<int>(id % 36);
    buf[n++] = static_cast<char>(digit < 10 ? '0' + digit : 'a' + digit - 10);
    id /= 36;
  } while (id != 0);
  out->push_back('t');
  while (n > 0) out->push_back(buf[--n]);
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& w : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

std::vector<std::string> GenerateDocuments(const Workload& w, uint64_t seed) {
  dssj::WorkloadOptions options = dssj::PresetOptions(w.preset);
  options.seed = seed;
  dssj::WorkloadGenerator generator(options);
  std::vector<std::string> docs;
  docs.reserve(w.records);
  for (size_t i = 0; i < w.records; ++i) {
    const dssj::RecordPtr r = generator.Next();
    std::string line;
    for (const dssj::TokenId t : r->tokens) {
      if (!line.empty()) line.push_back(' ');
      AppendWord(t, &line);
    }
    docs.push_back(std::move(line));
  }
  return docs;
}

dssj::DistributedJoinOptions JoinOptions(const Workload& w,
                                         const dssj::LengthPartition& partition) {
  dssj::DistributedJoinOptions o;
  o.sim = dssj::SimilaritySpec(dssj::SimilarityFunction::kJaccard, w.threshold_permille);
  o.window = dssj::WindowSpec::ByTime(kWindowMicros);
  o.strategy = dssj::DistributionStrategy::kLengthBased;
  o.local = dssj::LocalAlgorithm::kRecord;
  o.num_joiners = kJoiners;
  o.length_partition = partition;
  o.collect_results = false;
  o.transport = w.transport;
  o.num_workers = w.workers;
  o.arrival_rate_per_sec = w.rate_per_sec;
  o.max_index_bytes = w.max_index_bytes;
  if (w.spill) {
    o.supervise = true;
    o.supervision.checkpoint_interval = kCheckpointInterval;
    o.checkpoint_mode = dssj::store::CheckpointMode::kAsync;
    o.spill_watermark = kSpillWatermark;
    // store_dir is set per run: every run gets a fresh directory.
  }
  return o;
}

bool RunSetup(const Workload& w, const std::string& path, Tracer* tracer, Setup* out) {
  const dssj::WordTokenizer tokenizer;
  const int root = tracer->Begin(kSetup, -1, -1);
  int span = tracer->Begin(kTextLoad, root, -1);
  auto t0 = std::chrono::steady_clock::now();
  // One lane, as dssj_cli loads with the default --ingest_lanes.
  dssj::StatusOr<dssj::Corpus> corpus = dssj::LoadCorpusFromFileSharded(path, tokenizer, 1);
  out->load_s = SecondsSince(t0);
  tracer->End(span);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus load failed: %s\n", corpus.status().ToString().c_str());
    tracer->End(root);
    return false;
  }
  const dssj::DistributedJoinOptions options = JoinOptions(w, {});
  span = tracer->Begin(kPartitionPlan, root, -1);
  t0 = std::chrono::steady_clock::now();
  out->partition = dssj::PlanLengthPartition(corpus.value().records, options.sim, kJoiners,
                                             dssj::PartitionMethod::kLoadAwareGreedy);
  out->plan_s = SecondsSince(t0);
  tracer->End(span);
  tracer->End(root);

  // Loaded records carry timestamp 0; a stream needs stream time for the
  // time window. This stamping is the benchmark's, not part of set-up.
  out->records.clear();
  out->records.reserve(corpus.value().records.size());
  for (const dssj::RecordPtr& r : corpus.value().records) {
    out->records.push_back(dssj::MakeRecord(
        r->id, r->seq, std::vector<dssj::TokenId>(r->tokens.begin(), r->tokens.end()),
        static_cast<int64_t>(r->seq) * kStampMicros));
  }
  return true;
}

}  // namespace perfbench
