// The benchmark's own arithmetic: the tail-percentile rule, open-loop
// timing from due times, span self times, and ranking fingerprints. Kept
// apart from the workloads so `kqr_perfbench --self-test` can check each
// rule on hand-made inputs before any number is reported.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kqr.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// Percentiles.

/// Median plus the tail percentile the sample supports: p99, or, when
/// fewer than ten samples lie beyond p99, the highest nearest-rank
/// percentile that still has ten samples beyond it.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  /// The percentile `tail` sits at (99 when the sample supports p99).
  double tail_pct = 0.0;
  /// False when n < 11: no percentile has ten samples beyond it.
  bool tail_ok = false;
};

/// 0-based nearest rank of quantile q (0 < q <= 1) among n sorted values.
inline size_t NearestRank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  return r < 1.0 ? 0 : std::min(n - 1, static_cast<size_t>(r) - 1);
}

/// Rank of the reported tail value: the p99 rank, pulled down so that at
/// least ten samples lie strictly beyond it.
inline size_t TailRank(size_t n) {
  const size_t p99 = NearestRank(n, 0.99);
  return n >= 11 ? std::min(p99, n - 11) : n - 1;
}

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = values[NearestRank(s.n, 0.5)];
  const size_t tail = TailRank(s.n);
  s.tail = values[tail];
  s.tail_pct = 100.0 * static_cast<double>(tail + 1) /
               static_cast<double>(s.n);
  s.tail_ok = s.n >= 11;
  return s;
}

inline double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Summarize(std::move(values)).p50;
}

/// A latency sample stamped with the time its operation finished.
struct Timed {
  int64_t at_ns = 0;
  double value = 0.0;
};

/// Latency of a timed phase cut into equal windows by finish time: the
/// median over windows of each window's p50 and of each window's tail.
/// A stall that lands in one window moves that window's tail only, so
/// the figure describes a typical stretch of the phase; `overall` keeps
/// the whole-phase summary for the record.
struct Windowed {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct_min = 100.0;  // lowest percentile any window's tail sits at
  bool ok = false;              // every window supports a tail
  std::vector<double> window_p50s;
  std::vector<double> window_tails;
  Summary overall;
};

inline Windowed SummarizeWindows(const std::vector<Timed>& samples,
                                 int64_t start, int64_t end, size_t windows) {
  std::vector<std::vector<double>> bins(windows);
  std::vector<double> all;
  const double width =
      static_cast<double>(std::max<int64_t>(1, end - start)) /
      static_cast<double>(windows);
  for (const Timed& t : samples) {
    const double pos = static_cast<double>(t.at_ns - start) / width;
    const size_t w =
        pos < 0.0 ? 0 : std::min(windows - 1, static_cast<size_t>(pos));
    bins[w].push_back(t.value);
    all.push_back(t.value);
  }
  Windowed out;
  out.overall = Summarize(all);
  out.ok = true;
  for (auto& bin : bins) {
    const Summary s = Summarize(std::move(bin));
    out.ok = out.ok && s.tail_ok;
    out.tail_pct_min = std::min(out.tail_pct_min, s.tail_pct);
    out.window_p50s.push_back(s.p50);
    out.window_tails.push_back(s.tail);
  }
  out.p50 = Median(out.window_p50s);
  out.tail = Median(out.window_tails);
  return out;
}

// ---------------------------------------------------------------------
// Open-loop schedules.

/// Poisson arrival offsets (ns from the schedule start) for `count`
/// requests at `rate_qps`, from a seeded generator.
inline std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_qps,
                                            size_t count) {
  kqr::Rng rng(seed);
  std::vector<int64_t> due(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate_qps;
    due[i] = static_cast<int64_t>(t * 1e9);
  }
  return due;
}

/// Per-request open-loop timing. Latency runs from when the request was
/// due, not from when the generator got round to sending it, so a stall
/// charges every request queued behind it; lag is how late the generator
/// sent it.
struct OpenLoopTiming {
  std::vector<double> latency_us;
  std::vector<double> lag_us;
};

/// `due`, `sent` and `done` are absolute ns stamps per request; requests
/// with done < 0 (never completed) are left out of the latencies.
inline OpenLoopTiming TimeFromDue(const std::vector<int64_t>& due,
                                  const std::vector<int64_t>& sent,
                                  const std::vector<int64_t>& done) {
  OpenLoopTiming t;
  for (size_t i = 0; i < due.size(); ++i) {
    t.lag_us.push_back(static_cast<double>(std::max<int64_t>(
                           0, sent[i] - due[i])) /
                       1e3);
    if (done[i] >= 0) {
      t.latency_us.push_back(static_cast<double>(done[i] - due[i]) / 1e3);
    }
  }
  return t;
}

// ---------------------------------------------------------------------
// Spans.

/// One timed call into a layer. `parent` indexes the recorder's span
/// list (-1 for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// Keeps spans in memory; written out once the run ends. A disabled
/// recorder reads no clocks and stores nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int32_t Begin(const char* name, int32_t parent, uint32_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent, so
/// overlapping or overhanging children are not double-counted).
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// ---------------------------------------------------------------------
// Fingerprints.

inline uint64_t Mix(uint64_t h, uint64_t v) {
  // FNV-1a over the 8 little-endian bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-sensitive hash of a ranking: every term id, the raw bits of
/// every score and the identity flag. An error hashes its status code,
/// so an error never matches a ranking.
inline uint64_t Fingerprint(
    const kqr::Result<std::vector<kqr::ReformulatedQuery>>& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  if (!result.ok()) {
    return Mix(Mix(h, 0xdeadULL),
               static_cast<uint64_t>(result.status().code()));
  }
  h = Mix(h, result->size());
  for (const kqr::ReformulatedQuery& q : *result) {
    h = Mix(h, q.terms.size());
    for (kqr::TermId t : q.terms) h = Mix(h, t);
    uint64_t bits = 0;
    std::memcpy(&bits, &q.score, sizeof(bits));
    h = Mix(h, bits);
    h = Mix(h, q.is_identity ? 1 : 0);
  }
  return h;
}

}  // namespace perfbench
