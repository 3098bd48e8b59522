// The three workloads and the pieces they share: run configuration, the
// closed-loop measurement record, end-to-end metric assembly, repeated
// set-up timing, answer digests, and the trace-file writer.

#ifndef CQCS_PERFBENCH_WORKLOADS_H_
#define CQCS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "harness.h"
#include "layers.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< span file, layer summary, WAL scratch
  unsigned nproc = 1;
};

struct RunResult {
  MetricTable metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;  ///< oracle disagreements (any makes it incorrect)
  std::vector<std::string> log;  ///< human-readable lines, printed first
};

/// What one closed-loop measurement window saw, in total and per
/// one-second slice (by the slice in which each request completed).
struct Measurement {
  static constexpr int64_t kSliceNs = 1000000000;

  LatencyRecorder reads;
  LatencyRecorder updates;
  uint64_t ops = 0;        ///< completed requests, reads + updates
  uint64_t attempted = 0;  ///< requests sent
  uint64_t failed = 0;     ///< errors + shed + quarantined
  ProcessSample before;
  ProcessSample after;
  double peak_rss_mib = 0;  ///< when the window closed
  std::vector<uint64_t> slice_ops;
  std::vector<LatencyRecorder> slice_reads;

  void Open();   ///< samples `before`; slices count from here
  void Close();  ///< samples `after` and the peak RSS
  void AddRead(int64_t end_ns, int64_t latency_ns);
  void AddUpdate(int64_t end_ns, int64_t latency_ns);
  double seconds() const { return (after.wall_ns - before.wall_ns) / 1e9; }
  /// Adds another client's requests (counts, latencies, slices) that were
  /// timed against the same Open().
  void Merge(const Measurement& other);

 private:
  size_t Slice(int64_t end_ns);
};

RunResult RunServeHot(const RunConfig& config);
RunResult RunServeChurn(const RunConfig& config);
RunResult RunEngineCyclic(const RunConfig& config);

// ---- Shared helpers --------------------------------------------------------

/// A client's or request stream's seed, derived from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Set-ups per run: at least kSetupRepeats, and more (up to
/// kSetupMaxRepeats) until they add up to kSetupMinSeconds, so a cheap
/// set-up's median is as steady as an expensive one's. setup_s is their
/// median: the set-up cost in a process that has already set up once. Costs
/// paid once per process (the morsel pool's lazily started threads, the
/// allocator's first growth) land in the first set-up only, which the
/// traced run reports as setup_first_s.
inline constexpr size_t kSetupRepeats = 9;
inline constexpr size_t kSetupMaxRepeats = 50;
inline constexpr double kSetupMinSeconds = 1.0;

/// Runs `make` as often as the constants above say, timing each; keeps the
/// last result and appends each duration (seconds) to `*seconds`. The
/// earlier results are destroyed before the next set-up starts.
template <typename State>
std::unique_ptr<State> RepeatSetup(
    const std::function<std::unique_ptr<State>()>& make,
    std::vector<double>* seconds) {
  std::unique_ptr<State> state;
  double total = 0;
  while (seconds->size() < kSetupRepeats ||
         (total < kSetupMinSeconds && seconds->size() < kSetupMaxRepeats)) {
    state.reset();
    const int64_t t0 = NowNs();
    state = make();
    seconds->push_back((NowNs() - t0) / 1e9);
    total += seconds->back();
  }
  return state;
}

/// The end-to-end metrics of an untraced serving run: ops_per_s and the
/// latency percentiles are medians over the run's complete one-second
/// slices (a slice a noisy neighbour slowed does not move them); setup_s is
/// the median set-up; peak_rss_mb is read when the window closes.
void AddEndToEndSliced(const Measurement& m, const std::vector<double>& setup_s,
                       MetricTable* out);

/// The same for a single-caller run whose requests recur every round: each
/// request counts with the median latency of its repetitions, so the
/// percentiles are taken over those medians and ops_per_s is the request
/// count over their sum.
void AddEndToEndRepeated(
    const Measurement& m,
    const std::map<uint64_t, std::vector<int64_t>>& by_request,
    const std::vector<double>& setup_s, MetricTable* out);

/// Metrics demoted from end-to-end (they exist only on some workloads, or
/// read 0 on a correct run) plus the process counters, from the untraced
/// half of a traced run, and the first (cold) set-up's time.
void AddUntracedDetail(const Measurement& m, uint64_t mismatches,
                       unsigned nproc, const std::vector<double>& setup_s,
                       MetricTable* out);

/// Zero-valued serve/durability metrics for workloads without a serving
/// layer (the per-layer set is the same on every workload).
void AddIdleServeMetrics(MetricTable* out);

/// Tracing overhead: traced real-call p50 against the untraced p50.
void AddTraceOverhead(double traced_p50_ns, double untraced_p50_ns,
                      MetricTable* out);

/// Builds every relation's lazily built indexes (Relation::Contains's sorted
/// index and the position index the CSP reads). Those builds are not
/// synchronized, and the serving registry hands one database to every
/// concurrent request, so a database must have them before it is shared.
/// Building them in set-up also makes every copy of an input the same size.
void WarmIndexes(const cqcs::Structure& s);

/// Order-insensitive digest of an answer: the task's verdict, count, and
/// the sorted rows.
uint64_t AnswerDigest(const cqcs::EngineResult& r);

/// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t)>& fn);

/// Writes <out_dir>/<workload>-seed<seed>-spans.jsonl and -layers.json (the
/// per-layer metrics plus per-span total/self p50s).
void WriteTraceFiles(const RunConfig& config,
                     const std::vector<const Tracer*>& tracers,
                     const MetricTable& layers, RunResult* result);

}  // namespace perfbench

#endif  // CQCS_PERFBENCH_WORKLOADS_H_
