#include "trace.h"

#include <cstdio>
#include <memory>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kRecord:
      return "record";
    case kSetup:
      return "setup";
    case kTextLoad:
      return "text.load";
    case kTextTokenize:
      return "text.tokenize";
    case kTextDict:
      return "text.dict";
    case kPartitionPlan:
      return "core.partition";
    case kRoute:
      return "core.route";
    case kNetEncode:
      return "net.encode";
    case kNetDecode:
      return "net.decode";
    case kJoin:
      return "core.join";
    case kStoreFreeze:
      return "store.freeze";
    case kStoreWrite:
      return "store.write";
    case kNumSpanNames:
      break;
  }
  return "unknown";
}

JoinCounts JoinCounts::Delta(const dssj::JoinerStats& before, const dssj::JoinerStats& after) {
  JoinCounts c;
  c.probes = after.probes - before.probes;
  c.postings = after.postings_scanned - before.postings_scanned;
  c.candidates = after.candidates - before.candidates;
  c.results = after.results - before.results;
  c.merge_steps = after.verify.merge_steps - before.verify.merge_steps;
  c.spill_reads = after.spill_reads - before.spill_reads;
  return c;
}

JoinCounts& JoinCounts::operator+=(const JoinCounts& o) {
  probes += o.probes;
  postings += o.postings;
  candidates += o.candidates;
  results += o.results;
  merge_steps += o.merge_steps;
  spill_reads += o.spill_reads;
  return *this;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) return false;
  std::fprintf(f.get(),
               "id\tparent\ttrace\tname\tstart_ns\tend_ns\tpartition\tprobes\tpostings\t"
               "candidates\tresults\tmerge_steps\tspill_reads\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const JoinCounts c = s.counts >= 0 ? counts_[static_cast<size_t>(s.counts)] : JoinCounts{};
    std::fprintf(f.get(), "%zu\t%d\t%lld\t%s\t%lld\t%lld\t%d\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\n",
                 i, s.parent, static_cast<long long>(s.trace), SpanNameString(s.name),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.partition, static_cast<unsigned long long>(c.probes),
                 static_cast<unsigned long long>(c.postings),
                 static_cast<unsigned long long>(c.candidates),
                 static_cast<unsigned long long>(c.results),
                 static_cast<unsigned long long>(c.merge_steps),
                 static_cast<unsigned long long>(c.spill_reads));
  }
  return std::fflush(f.get()) == 0 && !std::ferror(f.get());
}

SelfTimes ComputeSelfTimes(const Tracer& tracer, int partitions) {
  const std::vector<Span>& spans = tracer.spans();
  // Children are recorded after their parent and never overlap each other,
  // so the time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  SelfTimes out;
  out.join_self_ns_by_partition.assign(static_cast<size_t>(partitions), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t total = s.end_ns - s.start_ns;
    const int64_t self = total - child_ns[i];
    LayerTime& t = out.by_name[s.name];
    ++t.spans;
    t.total_ns += total;
    t.self_ns += self;
    if (s.name == kJoin && s.partition >= 0 && s.partition < partitions) {
      out.join_self_ns_by_partition[static_cast<size_t>(s.partition)] += self;
    }
    if (s.counts >= 0) out.join_counts += tracer.counts()[static_cast<size_t>(s.counts)];
  }
  return out;
}

}  // namespace perfbench
