// Measurement plumbing shared by every workload: clocks, latency recorders,
// in-memory trace spans, process counters, and the metric table a run
// prints.
//
// Nothing here calls into the library; the workloads own every call into
// cqcs and wrap them in the spans and recorders below.

#ifndef CQCS_PERFBENCH_HARNESS_H_
#define CQCS_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
int64_t NowNs();

/// CPUs this process may run on (sched_getaffinity), at least 1.
unsigned Nproc();

/// Percentile of `values` (0 <= q <= 1) by linear interpolation between
/// order statistics; 0 for an empty vector. Sorts a copy.
double Quantile(std::vector<double> values, double q);

/// Latency samples in nanoseconds. Keeps every sample up to a fixed cap and
/// a log-linear histogram (64 sub-buckets per octave, ~1.6% wide) of all of
/// them, so memory stays fixed however many requests a run completes.
/// Quantiles are exact while the raw samples cover the whole run, otherwise
/// interpolated inside the histogram bucket.
class LatencyRecorder {
 public:
  void Add(int64_t ns);
  void Merge(const LatencyRecorder& other);
  uint64_t count() const { return count_; }
  double QuantileNs(double q) const;

 private:
  static constexpr size_t kRawCap = 8192;
  static constexpr int kSubBits = 6;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  static size_t BucketOf(uint64_t v);
  static uint64_t BucketLow(size_t b);
  static uint64_t BucketWidth(size_t b);

  uint64_t count_ = 0;
  std::vector<int64_t> raw_;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
};

/// Span names: one per layer boundary the benchmark times.
enum class SpanName : uint16_t {
  kServe,           ///< ServingEngine::Serve
  kUpsert,          ///< ServingEngine::UpsertDatabase
  kEngineRun,       ///< HomEngine::Run, the caller's real call
  kReplay,          ///< parent of the layer-by-layer replay of one request
  kParse,           ///< cq ParseQuery
  kPrint,           ///< cq ToString
  kCompile,         ///< HomProblem::From*
  kRebind,          ///< HomProblem::WithTarget
  kRoute,           ///< kAuto's routing accessors, in its order
  kGyo,             ///< HomProblem::SourceAcyclic on a fresh problem
  kDecompose,       ///< HomProblem::SourceDecomposition (min-fill)
  kCspBuild,        ///< HomProblem::Csp
  kRun,             ///< HomEngine::Run on the warmed problem
  kAcyclicEval,     ///< the task's cq/acyclic.h function, the run's threads
  kValidate,        ///< TreeDecomposition::ValidateFor
  kTreewidthDp,     ///< SolveViaTreeDecomposition on the cached decomposition
  kSearch,          ///< BacktrackingSolver on the warmed problem
};
const char* SpanNameString(SpanName name);

struct Span {
  uint64_t request = 0;
  int32_t parent = -1;  ///< index into the same tracer's spans, -1 for roots
  SpanName name = SpanName::kServe;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans, kept in memory until the run ends. Fixed capacity:
/// callers stop tracing new requests once full() says so.
class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }
  bool full() const { return spans_.size() + 64 > spans_.capacity(); }
  void BeginRequest(uint64_t id) { request_ = id; }
  int32_t Open(SpanName name);
  void Close(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t request_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name)
      : tracer_(tracer), index_(tracer ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Runs `fn` inside a span of `tracer` (non-null) and returns its duration.
template <typename Fn>
int64_t Timed(Tracer* tracer, SpanName name, Fn&& fn) {
  const int32_t index = tracer->Open(name);
  fn();
  tracer->Close(index);
  const Span& span = tracer->spans()[static_cast<size_t>(index)];
  return span.end_ns - span.start_ns;
}

/// Per-span-name durations and self times (duration minus the part covered
/// by child spans), in microseconds, over every tracer.
struct SpanSummary {
  std::map<SpanName, std::vector<double>> total_us;
  std::map<SpanName, std::vector<double>> self_us;
};
SpanSummary Summarize(const std::vector<const Tracer*>& tracers);

/// Writes every span as one JSON object per line.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

/// getrusage(RUSAGE_SELF) counters at one instant.
struct ProcessSample {
  int64_t wall_ns = 0;
  double cpu_s = 0;
  int64_t vol_ctx = 0;
  int64_t invol_ctx = 0;
  static ProcessSample Now();
};

/// Peak resident set of this process, MiB.
double PeakRssMiB();

/// Ordered name -> (value, unit) table: the last stdout line of a run.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// JSON string literal with escapes.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // CQCS_PERFBENCH_HARNESS_H_
