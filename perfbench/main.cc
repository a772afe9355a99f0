// Benchmark program: runs one workload end to end and prints its metrics.
//
//   dssj_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --workdir=DIR [--commit=ID]
//
// Every run (a) generates the workload's documents from the seed and
// writes them as a text file, (b) measures set-up (text load + partition
// planning) several times, (c) replays the stream on one thread through
// the library's public calls to get the reference pair count, checked
// against the brute-force oracle on a prefix, and (d) runs the streaming
// join (RunDistributedJoin) repeatedly for S seconds, checking every run's
// result count against the replay. --trace=0 prints the end-to-end
// metrics; --trace=1 also replays with spans and prints the per-layer
// metrics. The last stdout line is one JSON object; the exit code is
// non-zero when any correctness check fails.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force_joiner.h"
#include "core/join_topology.h"
#include "replay.h"
#include "store/format.h"
#include "text/token_dictionary.h"
#include "text/tokenizer.h"
#include "trace.h"
#include "workload.h"

#ifndef DSSJ_PERFBENCH_BUILD_TYPE
#define DSSJ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 3;
/// Child-process runs whose median peak resident memory is reported.
constexpr int kRssRuns = 3;
/// Records checked against the brute-force oracle (quadratic in this).
constexpr size_t kOraclePrefix = 3000;
/// Warm timed runs are made until --seconds pass, but at least this many.
constexpr int kMinWarmRuns = 3;
/// A paced run below this share of the offered rate is over capacity.
constexpr double kCapacityShare = 0.95;
constexpr size_t kTextChunk = 8192;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Interquartile mean: the mean of the middle half of the values. Robust
/// to a stalled run like the median, but it also resolves values that one
/// run can only report on a histogram bucket bound.
double Iqm(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string workdir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  auto number = [&](const char* key, long long lo, long long hi, long long* out) {
    auto it = kv.find(key);
    if (it == kv.end() || it->second.empty()) return false;
    char* end = nullptr;
    *out = std::strtoll(it->second.c_str(), &end, 10);
    return *end == '\0' && *out >= lo && *out <= hi;
  };
  long long seed = 0, seconds = 0, trace = 0;
  if (!number("seed", 0, (1LL << 62), &seed) || !number("seconds", 1, 3600, &seconds) ||
      !number("trace", 0, 1, &trace) || kv.count("workload") == 0 || kv.count("workdir") == 0) {
    return false;
  }
  args->workload = kv["workload"];
  args->seed = static_cast<uint64_t>(seed);
  args->seconds = static_cast<int>(seconds);
  args->trace = static_cast<int>(trace);
  args->workdir = kv["workdir"];
  if (kv.count("commit") != 0) args->commit = kv["commit"];
  return true;
}

/// A fresh, empty directory under the work dir; removed by the caller.
std::string MakeTempDir(const std::string& workdir, const char* prefix) {
  std::string tmpl = workdir + "/" + prefix + "XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) return "";
  return tmpl;
}

bool WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) return false;
  for (const std::string& line : lines) {
    std::fwrite(line.data(), 1, line.size(), f.get());
    std::fputc('\n', f.get());
  }
  return std::fflush(f.get()) == 0 && !std::ferror(f.get());
}

/// Times Tokenizer::Tokenize over every document and
/// TokenDictionary::GetOrAdd over every token, in alternating chunks, as
/// root spans — the two halves of what the text load does per line.
void TextPasses(const std::vector<std::string>& docs, Tracer* tracer, double* tokenize_s,
                double* dict_s) {
  const dssj::WordTokenizer tokenizer;
  dssj::TokenDictionary dict;
  std::vector<std::string> tokens;
  for (size_t begin = 0; begin < docs.size(); begin += kTextChunk) {
    const size_t end = std::min(docs.size(), begin + kTextChunk);
    tokens.clear();
    int span = tracer->Begin(kTextTokenize, -1, -1);
    auto t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) tokenizer.Tokenize(docs[i], tokens);
    *tokenize_s += Since(t0);
    tracer->End(span);
    span = tracer->Begin(kTextDict, -1, -1);
    t0 = Clock::now();
    for (const std::string& t : tokens) dict.GetOrAdd(t);
    *dict_s += Since(t0);
    tracer->End(span);
  }
}

/// Checks the replay's pair set against the brute-force oracle on a prefix
/// of the input (the oracle is quadratic).
bool OracleCheck(const Workload& w, const std::vector<dssj::RecordPtr>& records,
                 const dssj::DistributedJoinOptions& options, const std::string& workdir,
                 uint64_t* oracle_pairs) {
  const std::vector<dssj::RecordPtr> prefix(
      records.begin(), records.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(records.size(), kOraclePrefix)));
  dssj::BruteForceJoiner oracle(options.sim, options.window);
  std::vector<std::pair<uint64_t, uint64_t>> expected;
  for (const dssj::ResultPair& p : dssj::SingleNodeJoin(prefix, oracle)) {
    expected.emplace_back(p.probe_id, p.partner_id);
  }
  std::sort(expected.begin(), expected.end());
  *oracle_pairs = expected.size();

  const std::string dir = MakeTempDir(workdir, "store_");
  if (dir.empty()) return false;
  Tracer off(false);
  const ReplayResult got = Replay(w, prefix, options, dir, &off, /*collect_pairs=*/true);
  const bool removed = dssj::store::RemoveTree(dir).ok();
  if (!got.ok) std::fprintf(stderr, "oracle replay failed: %s\n", got.error.c_str());
  return got.ok && removed && got.pair_ids == expected;
}

/// One timed streaming run.
struct TimedRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  dssj::DistributedJoinResult result;
};

bool TimedOnce(const Workload& w, const std::vector<dssj::RecordPtr>& records,
               dssj::DistributedJoinOptions options, const std::string& workdir,
               TimedRun* run) {
  std::string dir;
  if (w.spill) {
    dir = MakeTempDir(workdir, "store_");
    if (dir.empty()) return false;
    options.store_dir = dir;
  }
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  run->result = dssj::RunDistributedJoin(records, options);
  run->wall_s = Since(t0);
  run->cpu_s = CpuSeconds() - cpu0;
  if (!dir.empty()) {
    if (!dssj::store::RemoveTree(dir).ok() || fs::exists(dir)) {
      std::fprintf(stderr, "store dir %s left behind\n", dir.c_str());
      return false;
    }
  }
  return true;
}

/// Peak resident memory of a process that has done the set-up and then
/// streams once, as a dssj_cli process does. A forked child makes that one
/// run, so the figure does not creep up with the number of timed runs the
/// parent makes (allocator arenas keep memory that earlier runs freed).
/// No other thread runs while this forks. Returns false if the child's run
/// failed or returned another pair count than `expected`.
bool ChildPeakRss(const Workload& w, const std::vector<dssj::RecordPtr>& records,
                  const dssj::DistributedJoinOptions& options, const std::string& workdir,
                  uint64_t expected, double* mb) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    TimedRun run;
    const bool ok = TimedOnce(w, records, options, workdir, &run) && run.result.ok &&
                    run.result.result_count == expected;
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) return false;
  *mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Directories a run created under the work dir and did not remove.
int LeftoverStoreDirs(const std::string& workdir) {
  int n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(workdir, ec)) {
    if (e.path().filename().string().rfind("store_", 0) == 0) ++n;
  }
  return n;
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
    std::printf("  %-36s %14s %s\n", name.c_str(), buf, unit);
  }
  std::string Object() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A stage's busy (which = 0), idle (1) or blocked (2) time as a share of
/// its tasks' combined wall time.
double StageFrac(const dssj::DistributedJoinResult& r, const char* component, int which) {
  for (const auto& st : r.stage_times) {
    if (st.component != component) continue;
    const uint64_t v = which == 0 ? st.busy_micros : which == 1 ? st.idle_micros : st.blocked_micros;
    return Ratio(1e-6 * static_cast<double>(v), st.tasks * r.elapsed_seconds);
  }
  return 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=NAME --seed=N --seconds=S --trace=0|1 --workdir=DIR "
                 "[--commit=ID]\n",
                 argv[0]);
    return 2;
  }
  const Workload* wp = FindWorkload(args.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (have: %s)\n", args.workload.c_str(),
                 WorkloadNames().c_str());
    return 2;
  }
  const Workload& w = *wp;
  const auto start = Clock::now();
  std::error_code ec;
  fs::create_directories(args.workdir, ec);
  if (LeftoverStoreDirs(args.workdir) > 0) {
    std::fprintf(stderr, "stale store dirs under %s; remove them first\n", args.workdir.c_str());
    return 1;
  }
  const bool traced = args.trace == 1;
  std::printf("# meta {\"workload\": \"%s\", \"seed\": %llu, \"records\": %zu, \"seconds\": %d, "
              "\"trace\": %d, \"nproc\": %u, \"commit\": \"%s\", \"build_type\": \"%s\", "
              "\"compiler\": \"%s\"}\n",
              w.name, static_cast<unsigned long long>(args.seed), w.records, args.seconds,
              args.trace, std::thread::hardware_concurrency(), args.commit.c_str(),
              DSSJ_PERFBENCH_BUILD_TYPE, __VERSION__);

  // (a) Input: generated from the seed, handed to the program as text.
  std::vector<std::string> docs = GenerateDocuments(w, args.seed);
  const std::string text_path =
      args.workdir + "/" + w.name + "_" + std::to_string(args.seed) + ".txt";
  if (!WriteLines(text_path, docs)) {
    std::fprintf(stderr, "cannot write %s\n", text_path.c_str());
    return 1;
  }

  // (b) Set-up, repeated; the last one's output feeds everything below.
  Tracer tracer(traced);
  Tracer off(false);
  Setup setup;
  std::vector<double> setup_s, load_s, plan_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!RunSetup(w, text_path, i + 1 == kSetupRepeats ? &tracer : &off, &setup)) {
      std::remove(text_path.c_str());
      return 1;
    }
    setup_s.push_back(setup.load_s + setup.plan_s);
    load_s.push_back(setup.load_s);
    plan_s.push_back(setup.plan_s);
  }
  std::remove(text_path.c_str());
  const std::vector<dssj::RecordPtr>& records = setup.records;
  const dssj::DistributedJoinOptions options = JoinOptions(w, setup.partition);
  double tokenize_s = 0.0, dict_s = 0.0;
  if (traced) TextPasses(docs, &tracer, &tokenize_s, &dict_s);
  std::vector<std::string>().swap(docs);  // not part of the program's memory

  // (c) Reference: the single-thread replay, untraced (and traced).
  bool correct = true;
  auto replay = [&](Tracer* t) {
    const std::string dir = MakeTempDir(args.workdir, "store_");
    ReplayResult r = Replay(w, records, options, dir, t, /*collect_pairs=*/false);
    if (dir.empty() || !dssj::store::RemoveTree(dir).ok()) {
      r.ok = false;
      r.error = "replay store dir";
    }
    if (!r.ok) {
      std::fprintf(stderr, "replay failed: %s\n", r.error.c_str());
      correct = false;
    }
    return r;
  };
  const ReplayResult ref = replay(&off);
  ReplayResult traced_ref;
  if (traced) {
    traced_ref = replay(&tracer);
    if (traced_ref.pairs != ref.pairs) {
      std::fprintf(stderr, "traced replay found %llu pairs, untraced %llu\n",
                   static_cast<unsigned long long>(traced_ref.pairs),
                   static_cast<unsigned long long>(ref.pairs));
      correct = false;
    }
  }
  uint64_t oracle_pairs = 0;
  if (!OracleCheck(w, records, options, args.workdir, &oracle_pairs)) {
    std::fprintf(stderr, "replay pair set differs from the brute-force oracle on the first %zu "
                         "records\n",
                 std::min(records.size(), kOraclePrefix));
    correct = false;
  }
  std::printf("# reference: %llu pairs over %zu records (replay %.3f s); oracle prefix %zu "
              "records, %llu pairs, %s\n",
              static_cast<unsigned long long>(ref.pairs), records.size(), ref.wall_s,
              std::min(records.size(), kOraclePrefix),
              static_cast<unsigned long long>(oracle_pairs), correct ? "match" : "MISMATCH");

  // (d) Timed streaming runs: one cold, then warm until the time is up.
  // Before them, runs in child processes measure peak memory.
  std::vector<TimedRun> runs;
  int attempted = 0, failed = 0;
  std::vector<double> rss_mb;
  for (int i = 0; i < kRssRuns; ++i) {
    double mb = 0.0;
    ++attempted;
    if (!ChildPeakRss(w, records, options, args.workdir, ref.pairs, &mb)) {
      std::fprintf(stderr, "run %d (peak memory, child process) failed\n", attempted);
      ++failed;
    }
    std::printf("# run %d: in a child process, peak rss %.1f MB\n", attempted, mb);
    rss_mb.push_back(mb);
  }
  const auto timed0 = Clock::now();
  while (runs.size() < static_cast<size_t>(kMinWarmRuns + 1) ||
         Since(timed0) < static_cast<double>(args.seconds)) {
    TimedRun run;
    ++attempted;
    const bool hygiene = TimedOnce(w, records, options, args.workdir, &run);
    const bool ok = hygiene && run.result.ok && run.result.result_count == ref.pairs;
    std::printf("# run %d: %s %.0f rec/s (streaming %.3f s, call %.3f s), %llu pairs, "
                "p50 %llu us, p99 %llu us%s\n",
                attempted, runs.empty() ? "cold" : "warm", run.result.throughput_rps,
                run.result.elapsed_seconds, run.wall_s,
                static_cast<unsigned long long>(run.result.result_count),
                static_cast<unsigned long long>(run.result.latency.p50_us),
                static_cast<unsigned long long>(run.result.latency.p99_us),
                ok ? "" : "  FAILED");
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "run %d: ok=%d result_count=%llu expected=%llu %s\n", attempted,
                   run.result.ok ? 1 : 0,
                   static_cast<unsigned long long>(run.result.result_count),
                   static_cast<unsigned long long>(ref.pairs),
                   run.result.failure_message.c_str());
    }
    runs.push_back(std::move(run));
  }
  std::printf("# timing: %.1f s before the timed runs, %.1f s of timed runs\n",
              std::chrono::duration<double>(timed0 - start).count(), Since(timed0));
  const int leftovers = LeftoverStoreDirs(args.workdir);
  if (leftovers > 0) {
    std::fprintf(stderr, "%d store dirs left behind under %s\n", leftovers,
                 args.workdir.c_str());
    correct = false;
  }
  correct = correct && failed == 0;

  const double n = static_cast<double>(records.size());
  std::vector<double> rps, p50, p99, cpu, lag, overhead_ms;
  uint64_t lat_samples = 0;
  int over_capacity = 0;
  for (size_t i = 1; i < runs.size(); ++i) {
    const TimedRun& r = runs[i];
    // The streaming run's own wall time (source start to drain), as the
    // program reports it; topology build and teardown are reported apart.
    const double stream_s = r.result.elapsed_seconds;
    rps.push_back(n / stream_s);
    overhead_ms.push_back(1e3 * (r.wall_s - stream_s));
    p50.push_back(1e-3 * static_cast<double>(r.result.latency.p50_us));
    p99.push_back(1e-3 * static_cast<double>(r.result.latency.p99_us));
    cpu.push_back(r.cpu_s);
    lat_samples += r.result.latency.count;
    // How far the run ended behind the source's schedule; with no schedule
    // (unthrottled) the whole run counts as lag.
    const double schedule_s = w.rate_per_sec > 0.0 ? (n - 1.0) / w.rate_per_sec : 0.0;
    lag.push_back(1e3 * (stream_s - schedule_s));
    if (w.rate_per_sec > 0.0 && n / stream_s < kCapacityShare * w.rate_per_sec) {
      ++over_capacity;
      std::printf("# run %zu over capacity: %.0f rec/s against %.0f offered\n",
                  i + 1 + kRssRuns,
                  n / stream_s, w.rate_per_sec);
    }
  }
  const double rec_per_s = Iqm(rps);

  JsonMetrics m;
  if (!traced) {
    std::printf("# end-to-end (rec_per_s: interquartile mean of %zu warm runs)\n", rps.size());
    m.Add("rec_per_s", rec_per_s, "1/s");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", Median(rss_mb), "MB");
    m.Add("ok_frac", Ratio(attempted - failed, attempted), "frac");
  } else {
    const SelfTimes st = ComputeSelfTimes(tracer, kJoiners);
    auto self_ns = [&](SpanName s) { return static_cast<double>(st.by_name[s].self_ns); };
    std::printf("# self-time table (traced replay + set-up; %zu spans)\n",
                tracer.spans().size());
    std::printf("  %-16s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (int s = 0; s < kNumSpanNames; ++s) {
      const LayerTime& t = st.by_name[s];
      if (t.spans == 0) continue;
      std::printf("  %-16s %10llu %12.3f %12.3f\n", SpanNameString(static_cast<SpanName>(s)),
                  static_cast<unsigned long long>(t.spans), 1e-6 * static_cast<double>(t.total_ns),
                  1e-6 * static_cast<double>(t.self_ns));
    }
    const std::string spans_path = args.workdir + "/spans_" + w.name + ".tsv";
    if (!tracer.WriteTsv(spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      correct = false;
    }
    std::printf("# spans written to %s\n", spans_path.c_str());

    const JoinCounts& jc = st.join_counts;
    std::vector<double> part(st.join_self_ns_by_partition.begin(),
                             st.join_self_ns_by_partition.end());
    double part_sum = 0.0;
    for (double v : part) part_sum += v;
    const double rec_1t = Ratio(n, ref.wall_s);
    auto stage_median = [&](const char* comp, int which) {
      std::vector<double> v;
      for (size_t i = 1; i < runs.size(); ++i) {
        v.push_back(StageFrac(runs[i].result, comp, which));
      }
      return Median(v);
    };
    std::vector<double> joiner_busy_s, busy_skew;
    for (size_t i = 1; i < runs.size(); ++i) {
      const auto& b = runs[i].result.joiner_busy_micros;
      double sum = 0.0, mx = 0.0;
      for (uint64_t v : b) {
        sum += 1e-6 * static_cast<double>(v);
        mx = std::max(mx, 1e-6 * static_cast<double>(v));
      }
      joiner_busy_s.push_back(sum);
      busy_skew.push_back(Ratio(mx, sum / static_cast<double>(std::max<size_t>(1, b.size()))));
    }

    std::printf("# per-layer (stream.*: over %zu warm runs)\n", rps.size());
    m.Add("lat_p50_ms", Iqm(p50), "ms");
    m.Add("lat_p99_ms", Iqm(p99), "ms");
    m.Add("text.load_s", Median(load_s), "s");
    m.Add("text.tokenize_s", tokenize_s, "s");
    m.Add("text.dict_s", dict_s, "s");
    m.Add("core.partition.plan_ms", 1e3 * Median(plan_s), "ms");
    m.Add("core.partition.skew",
          Ratio(*std::max_element(part.begin(), part.end()), part_sum / kJoiners), "ratio");
    m.Add("core.route.ns_per_rec", Ratio(self_ns(kRoute), n), "ns");
    m.Add("core.route.targets_per_rec", Ratio(static_cast<double>(ref.route_targets), n),
          "count");
    m.Add("core.join.ns_per_rec", Ratio(self_ns(kJoin), n), "ns");
    m.Add("core.join.postings_per_probe",
          Ratio(static_cast<double>(jc.postings), static_cast<double>(jc.probes)), "count");
    m.Add("core.join.cands_per_probe",
          Ratio(static_cast<double>(jc.candidates), static_cast<double>(jc.probes)), "count");
    m.Add("core.join.yield",
          Ratio(static_cast<double>(jc.results), static_cast<double>(jc.candidates)), "ratio");
    m.Add("core.join.merge_steps_per_cand",
          Ratio(static_cast<double>(jc.merge_steps), static_cast<double>(jc.candidates)),
          "count");
    m.Add("core.join.rec_per_s_1t", rec_1t, "1/s");
    m.Add("net.encode_ns_per_tuple",
          Ratio(self_ns(kNetEncode), static_cast<double>(traced_ref.wire_tuples)), "ns");
    m.Add("net.decode_ns_per_tuple",
          Ratio(self_ns(kNetDecode), static_cast<double>(traced_ref.wire_tuples)), "ns");
    m.Add("net.bytes_per_rec", Ratio(static_cast<double>(traced_ref.wire_bytes), n), "B");
    m.Add("store.ckpt.freeze_us",
          Ratio(1e-3 * self_ns(kStoreFreeze), static_cast<double>(st.by_name[kStoreFreeze].spans)),
          "us");
    m.Add("store.ckpt.write_ms",
          Ratio(1e-6 * self_ns(kStoreWrite), static_cast<double>(st.by_name[kStoreWrite].spans)),
          "ms");
    m.Add("store.ckpt.kb_per_krec",
          Ratio(static_cast<double>(traced_ref.checkpoint_bytes) / 1024.0, n / 1000.0),
          "KB/krec");
    m.Add("store.spill.reads_per_probe",
          Ratio(static_cast<double>(jc.spill_reads), static_cast<double>(jc.probes)), "count");
    m.Add("store.spill.mb", static_cast<double>(traced_ref.spilled_bytes) / (1 << 20),
          "MB");
    for (const char* comp : {"source", "dispatcher", "joiner"}) {
      const char* kinds[] = {"busy", "idle", "blocked"};
      for (int which = 0; which < 3; ++which) {
        m.Add(std::string("stream.") + comp + "." + kinds[which] + "_frac",
              stage_median(comp, which), "frac");
      }
    }
    m.Add("stream.joiner.busy_inflation", Ratio(Median(joiner_busy_s), 1e-9 * self_ns(kJoin)),
          "ratio");
    m.Add("stream.joiner.busy_skew", Median(busy_skew), "ratio");
    m.Add("stream.speedup_vs_1t", Ratio(rec_per_s, rec_1t), "ratio");
    m.Add("stream.cold_rec_per_s", n / runs[0].result.elapsed_seconds, "1/s");
    m.Add("stream.source.lag_ms", Median(lag), "ms");
    m.Add("stream.call_overhead_ms", Median(overhead_ms), "ms");
    m.Add("stream.over_capacity_runs", over_capacity, "count");
    m.Add("stream.lat_samples", static_cast<double>(lat_samples), "count");
    m.Add("stream.cpu_ms_per_krec", Ratio(1e3 * Median(cpu), n / 1000.0), "ms/krec");
    m.Add("trace.overhead_frac", Ratio(traced_ref.wall_s, ref.wall_s) - 1.0, "frac");
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, m.Object().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
