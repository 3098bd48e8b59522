#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---- LatencyRecorder ------------------------------------------------------

size_t LatencyRecorder::BucketOf(uint64_t v) {
  if (v < (uint64_t{2} << kSubBits)) return static_cast<size_t>(v);
  const int e = 63 - std::countl_zero(v);
  const uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
  return (static_cast<size_t>(e - kSubBits + 1) << kSubBits) + sub;
}

uint64_t LatencyRecorder::BucketLow(size_t b) {
  if (b < (size_t{2} << kSubBits)) return b;
  const size_t octave = b >> kSubBits;
  const uint64_t sub = b & ((1u << kSubBits) - 1);
  return ((uint64_t{1} << kSubBits) + sub) << (octave - 1);
}

uint64_t LatencyRecorder::BucketWidth(size_t b) {
  if (b < (size_t{2} << kSubBits)) return 1;
  return uint64_t{1} << ((b >> kSubBits) - 1);
}

void LatencyRecorder::Add(int64_t ns) {
  const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 0;
  ++count_;
  ++buckets_[BucketOf(v)];
  if (raw_.size() < kRawCap) raw_.push_back(static_cast<int64_t>(v));
}

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  count_ += other.count_;
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  for (int64_t v : other.raw_) {
    if (raw_.size() < kRawCap) raw_.push_back(v);
  }
}

double LatencyRecorder::QuantileNs(double q) const {
  if (count_ == 0) return 0.0;
  if (raw_.size() == count_) {
    return Quantile(std::vector<double>(raw_.begin(), raw_.end()), q);
  }
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t before = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t n = buckets_[b];
    if (n == 0) continue;
    if (static_cast<double>(before + n) > rank) {
      const double frac = (rank - static_cast<double>(before) + 0.5) /
                          static_cast<double>(n);
      return static_cast<double>(BucketLow(b)) +
             frac * static_cast<double>(BucketWidth(b));
    }
    before += n;
  }
  return static_cast<double>(BucketLow(kBuckets - 1));
}

// ---- Spans ----------------------------------------------------------------

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kServe: return "serve.Serve";
    case SpanName::kUpsert: return "serve.UpsertDatabase";
    case SpanName::kEngineRun: return "api.HomEngine::Run";
    case SpanName::kReplay: return "replay";
    case SpanName::kParse: return "cq.ParseQuery";
    case SpanName::kPrint: return "cq.ToString";
    case SpanName::kCompile: return "api.HomProblem::From";
    case SpanName::kRebind: return "api.HomProblem::WithTarget";
    case SpanName::kRoute: return "api.route";
    case SpanName::kGyo: return "cq.gyo.SourceAcyclic";
    case SpanName::kDecompose: return "treewidth.HeuristicDecomposition";
    case SpanName::kCspBuild: return "solver.HomProblem::Csp";
    case SpanName::kRun: return "api.Run.warm";
    case SpanName::kAcyclicEval: return "acyclic.eval";
    case SpanName::kValidate: return "treewidth.ValidateFor";
    case SpanName::kTreewidthDp: return "treewidth.SolveViaTreeDecomposition";
    case SpanName::kSearch: return "solver.BacktrackingSolver";
  }
  return "unknown";
}

int32_t Tracer::Open(SpanName name) {
  Span span;
  span.request = request_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

SpanSummary Summarize(const std::vector<const Tracer*>& tracers) {
  SpanSummary summary;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double total = static_cast<double>(spans[i].end_ns -
                                               spans[i].start_ns) / 1e3;
      summary.total_us[spans[i].name].push_back(total);
      summary.self_us[spans[i].name].push_back(
          total - static_cast<double>(child_ns[i]) / 1e3);
    }
  }
  return summary;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& s : tracers[t]->spans()) {
      out << "{\"thread\":" << t << ",\"request\":" << s.request
          << ",\"name\":\"" << SpanNameString(s.name)
          << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

// ---- Process counters -----------------------------------------------------

ProcessSample ProcessSample::Now() {
  ProcessSample s;
  s.wall_ns = NowNs();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  s.vol_ctx = ru.ru_nvcsw;
  s.invol_ctx = ru.ru_nivcsw;
  return s;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Output ---------------------------------------------------------------

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit) {
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricTable::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << JsonString(name) << ": {\"value\": " << entry.first
        << ", \"unit\": " << JsonString(entry.second) << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
