#include <algorithm>
#include <atomic>
#include <fstream>
#include <thread>

#include "common/hash.h"
#include "workloads.h"

namespace perfbench {

void Measurement::Open() { before = ProcessSample::Now(); }

void Measurement::Close() {
  after = ProcessSample::Now();
  peak_rss_mib = PeakRssMiB();
}

size_t Measurement::Slice(int64_t end_ns) {
  const auto slice = static_cast<size_t>(
      std::max<int64_t>(0, end_ns - before.wall_ns) / kSliceNs);
  if (slice >= slice_ops.size()) {
    slice_ops.resize(slice + 1, 0);
    slice_reads.resize(slice + 1);
  }
  return slice;
}

void Measurement::AddRead(int64_t end_ns, int64_t latency_ns) {
  const size_t slice = Slice(end_ns);
  ++ops;
  ++slice_ops[slice];
  reads.Add(latency_ns);
  slice_reads[slice].Add(latency_ns);
}

void Measurement::AddUpdate(int64_t end_ns, int64_t latency_ns) {
  ++ops;
  ++slice_ops[Slice(end_ns)];
  updates.Add(latency_ns);
}

void Measurement::Merge(const Measurement& other) {
  reads.Merge(other.reads);
  updates.Merge(other.updates);
  ops += other.ops;
  attempted += other.attempted;
  failed += other.failed;
  if (other.slice_ops.size() > slice_ops.size()) {
    slice_ops.resize(other.slice_ops.size(), 0);
    slice_reads.resize(other.slice_ops.size());
  }
  for (size_t i = 0; i < other.slice_ops.size(); ++i) {
    slice_ops[i] += other.slice_ops[i];
    slice_reads[i].Merge(other.slice_reads[i]);
  }
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream): independent streams per client.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (stream + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void AddEndToEndSliced(const Measurement& m, const std::vector<double>& setup_s,
                       MetricTable* out) {
  const size_t complete = std::min(m.slice_ops.size(),
                                   static_cast<size_t>(m.seconds()));
  std::vector<double> ops, p50, p90;
  for (size_t i = 0; i < complete; ++i) {
    ops.push_back(static_cast<double>(m.slice_ops[i]) * 1e9 /
                  Measurement::kSliceNs);
    p50.push_back(m.slice_reads[i].QuantileNs(0.5) / 1e6);
    p90.push_back(m.slice_reads[i].QuantileNs(0.9) / 1e6);
  }
  if (complete == 0) {  // runs shorter than a slice: whole-run figures
    ops.push_back(static_cast<double>(m.ops) / m.seconds());
    p50.push_back(m.reads.QuantileNs(0.5) / 1e6);
    p90.push_back(m.reads.QuantileNs(0.9) / 1e6);
  }
  out->Set("ops_per_s", Quantile(ops, 0.5), "ops/s");
  out->Set("latency_p50_ms", Quantile(p50, 0.5), "ms");
  out->Set("latency_p90_ms", Quantile(p90, 0.5), "ms");
  out->Set("setup_s", Quantile(setup_s, 0.5), "s");
  out->Set("peak_rss_mb", m.peak_rss_mib, "MiB");
}

void AddEndToEndRepeated(
    const Measurement& m,
    const std::map<uint64_t, std::vector<int64_t>>& by_request,
    const std::vector<double>& setup_s, MetricTable* out) {
  std::vector<double> latencies_ms;
  double total_s = 0;
  for (const auto& [key, samples] : by_request) {
    const double median_ns = Quantile(
        std::vector<double>(samples.begin(), samples.end()), 0.5);
    latencies_ms.insert(latencies_ms.end(), samples.size(), median_ns / 1e6);
    total_s += median_ns / 1e9 * static_cast<double>(samples.size());
  }
  out->Set("ops_per_s",
           total_s > 0 ? static_cast<double>(latencies_ms.size()) / total_s : 0,
           "ops/s");
  out->Set("latency_p50_ms", Quantile(latencies_ms, 0.5), "ms");
  out->Set("latency_p90_ms", Quantile(latencies_ms, 0.9), "ms");
  out->Set("setup_s", Quantile(setup_s, 0.5), "s");
  out->Set("peak_rss_mb", m.peak_rss_mib, "MiB");
}

void AddUntracedDetail(const Measurement& m, uint64_t mismatches,
                       unsigned nproc, const std::vector<double>& setup_s,
                       MetricTable* out) {
  out->Set("setup_first_s", setup_s.front(), "s");
  out->Set("latency_p99_ms", m.reads.QuantileNs(0.99) / 1e6, "ms");
  out->Set("latency_samples", static_cast<double>(m.reads.count()), "count");
  out->Set("update_latency_p50_ms", m.updates.QuantileNs(0.5) / 1e6, "ms");
  out->Set("update_latency_p99_ms", m.updates.QuantileNs(0.99) / 1e6, "ms");
  out->Set("update_samples", static_cast<double>(m.updates.count()), "count");
  out->Set("failed_frac",
           m.attempted == 0 ? 0.0
                            : static_cast<double>(m.failed + mismatches) /
                                  static_cast<double>(m.attempted),
           "ratio");
  const double ops = std::max<double>(1.0, static_cast<double>(m.ops));
  out->Set("process.cpu_util",
           (m.after.cpu_s - m.before.cpu_s) / (m.seconds() * nproc), "ratio");
  out->Set("process.vol_ctx_switches_per_op",
           static_cast<double>(m.after.vol_ctx - m.before.vol_ctx) / ops,
           "count");
  out->Set("process.invol_ctx_switches_per_op",
           static_cast<double>(m.after.invol_ctx - m.before.invol_ctx) / ops,
           "count");
}

void AddIdleServeMetrics(MetricTable* out) {
  static constexpr std::pair<const char*, const char*> kIdle[] = {
      {"serve.result_hit_rate", "ratio"},
      {"serve.plan_hit_rate", "ratio"},
      {"serve.shed_frac", "ratio"},
      {"serve.hit_us_p50", "us"},
      {"serve.hit_us_p99", "us"},
      {"serve.miss_us_p50", "us"},
      {"serve.self_us_p50", "us"},
      {"serve.update_us_p50", "us"},
      {"serve.update_us_p99", "us"},
      {"serve.invalidated_per_update", "count"},
      {"durability.wal_appends", "count"},
      {"durability.wal_bytes_per_update", "B"},
      {"durability.snapshots", "count"},
  };
  for (const auto& [name, unit] : kIdle) out->Set(name, 0, unit);
}

void AddTraceOverhead(double traced_p50_ns, double untraced_p50_ns,
                      MetricTable* out) {
  out->Set("trace.overhead_us_p50", (traced_p50_ns - untraced_p50_ns) / 1e3,
           "us");
  out->Set("trace.overhead_frac",
           untraced_p50_ns <= 0 ? 0.0 : traced_p50_ns / untraced_p50_ns - 1,
           "ratio");
}

void WarmIndexes(const cqcs::Structure& s) {
  for (cqcs::RelId r = 0; r < s.vocabulary()->size(); ++r) {
    const cqcs::Relation& rel = s.relation(r);
    if (!rel.empty()) (void)rel.Contains(rel.tuple(0));
    rel.EnsurePositionIndex(static_cast<cqcs::Element>(s.universe_size()));
  }
}

uint64_t AnswerDigest(const cqcs::EngineResult& r) {
  std::vector<std::vector<cqcs::Element>> rows = r.rows;
  std::sort(rows.begin(), rows.end());
  std::vector<uint32_t> words = {static_cast<uint32_t>(r.task),
                                 r.decided ? 1u : 0u,
                                 static_cast<uint32_t>(r.count),
                                 static_cast<uint32_t>(r.count >> 32),
                                 static_cast<uint32_t>(rows.size())};
  for (const auto& row : rows) words.insert(words.end(), row.begin(), row.end());
  return cqcs::Fnv1a64(words.data(), words.size());
}

void ParallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

void WriteTraceFiles(const RunConfig& config,
                     const std::vector<const Tracer*>& tracers,
                     const MetricTable& layers, RunResult* result) {
  const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed);
  const std::string spans_path = stem + "-spans.jsonl";
  const std::string layers_path = stem + "-layers.json";
  if (!WriteSpans(spans_path, tracers)) {
    result->log.push_back("warning: could not write " + spans_path);
  }
  const SpanSummary summary = Summarize(tracers);
  std::ofstream out(layers_path);
  out.precision(10);
  out << "{\"workload\": " << JsonString(config.workload)
      << ", \"seed\": " << config.seed << ", \"metrics\": " << layers.ToJson()
      << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, totals] : summary.total_us) {
    if (!first) out << ", ";
    first = false;
    out << JsonString(SpanNameString(name)) << ": {\"count\": "
        << totals.size() << ", \"total_us_p50\": " << Quantile(totals, 0.5)
        << ", \"self_us_p50\": " << Quantile(summary.self_us.at(name), 0.5)
        << "}";
  }
  out << "}}\n";
  result->log.push_back("trace: " + spans_path + ", " + layers_path);
}

}  // namespace perfbench
