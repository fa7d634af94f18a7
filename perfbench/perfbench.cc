// kqr_perfbench: the repository benchmark's measuring program.
//
//   kqr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --shardd <kqr_shardd binary> --workdir <work dir>
//   kqr_perfbench --self-test
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   direct_warm   closed loop, 3 client threads calling ReformulateTerms on
//                 a fully prepared model reopened with OpenMapped.
//   fleet_routed  closed loop, one ShardRouter sending ReformulateBatch
//                 calls to a 2 groups x 2 replicas kqr_shardd fleet.
//
// With --trace 0 the run reports the end-to-end metrics of its workload.
// With --trace 1 it replays the workload's query stream through every
// layer, lazy preparation on freshly built lazy models included, timing
// each call into a layer with a span kept in memory (spans are written
// to the work directory when the run ends), and reports the per-layer
// metrics. The open-loop Server arm and lazy preparation are measured in
// the traced run only: as timed workloads, their end-to-end figures
// varied by more than any usable bound between runs on a 4-core x86
// virtual machine. Every ranking either run produces is fingerprinted
// against a serial ServingModel::ReformulateTerms reference; a mismatch
// counts as a failed operation and makes the program exit non-zero.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_math.h"
#include "core/astar_topk.h"
#include "core/candidates.h"
#include "core/hmm.h"
#include "closeness/closeness_index.h"
#include "datagen/dblp_gen.h"
#include "eval/experiment.h"
#include "fleet.h"
#include "graph/tat_builder.h"
#include "kqr.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "walk/similarity_index.h"

namespace perfbench {
namespace {

using kqr::Result;
using kqr::ReformulatedQuery;
using kqr::ServingModel;
using kqr::TermId;
using Ranking = Result<std::vector<ReformulatedQuery>>;
using Query = std::vector<TermId>;
using ModelPtr = std::shared_ptr<const ServingModel>;

// ---------------------------------------------------------------------
// Fixed workload shape. Changing any of these changes the benchmark.

constexpr size_t kK = 10;             // ranking depth
constexpr size_t kPoolSize = 1024;    // distinct queries per seed
constexpr size_t kMinLen = 2;         // query lengths 2..6
constexpr size_t kMaxLen = 6;
constexpr size_t kClients = 3;        // client threads / server workers
constexpr size_t kSetupReps = 3;      // set-ups per run; setup_s = median
constexpr size_t kWindows = 20;       // latency windows per timed phase
constexpr size_t kWindowMinSamples = 1100;  // 11 samples beyond p99
constexpr size_t kMaxSamples = 1 << 18;  // per direct_warm client thread
constexpr size_t kFleetGroups = 2;
constexpr size_t kFleetReplicas = 2;
constexpr size_t kFleetBatch = 64;    // queries per ReformulateBatch call

// The traced run's server arm: open-loop Poisson arrivals through a
// 3-worker Server at a low rate (the queueing baseline) and at a nominal
// rate, about 70% of the highest rate at which that Server kept p99 within
// 2 ms on a 4-core x86 virtual machine (~8k queries/s).
constexpr double kQueueBaseRate = 1000.0;
constexpr double kQueueNominalRate = 5500.0;

// Traced-run check: layer self times must cover the traced wall time to
// within this share.
constexpr double kLayerSumTolPct = 5.0;

// ---------------------------------------------------------------------
// Command line and report.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string shardd;
  std::string workdir = ".";
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Fail(name + " is not a finite number");
      value = 0.0;
    }
    metrics.emplace_back(name, value, unit);
  }
  /// Notes print in the human-readable part of the output only.
  void Note(const std::string& line) { std::printf("  %s\n", line.c_str()); }
  void Fail(const std::string& why) {
    correct = false;
    std::printf("  FAILED CHECK: %s\n", why.c_str());
  }

  void Print() const {
    for (const auto& [name, value, unit] : metrics) {
      std::printf("%-36s %16.6f %s\n", name.c_str(), value, unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, value, unit] = metrics[i];
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "kqr_perfbench: %s\n", why.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

double SecondsSince(int64_t t0) { return (NowNs() - t0) / 1e9; }

// ---------------------------------------------------------------------
// Corpus, models and queries.

/// The fixed DblpOptions{} corpus; appends the generation time to
/// `generate_s` when given.
kqr::Database GenerateCorpus(std::vector<double>* generate_s) {
  const int64_t t0 = NowNs();
  kqr::DblpCorpus corpus =
      Must(kqr::GenerateDblp(kqr::DblpOptions{}), "GenerateDblp");
  if (generate_s != nullptr) generate_s->push_back(SecondsSince(t0));
  return std::move(corpus.db);
}

kqr::EngineOptions EagerOptions() {
  kqr::EngineOptions options;
  options.precompute_offline = true;
  return options;
}

ModelPtr BuildModel(kqr::EngineOptions options,
                    std::vector<double>* generate_s) {
  return Must(kqr::EngineBuilder(std::move(options))
                  .Build(GenerateCorpus(generate_s)),
              "EngineBuilder::Build");
}

void SaveModel(const ServingModel& model, const std::string& path) {
  const kqr::Status st = kqr::EngineBuilder::SaveModel(model, path);
  if (!st.ok()) Die("SaveModel: " + st.ToString());
}

/// The direct_warm set-up: generate, build eagerly, save the v3 file,
/// generate again and reopen it mapped — what standing up a prepared
/// serving process costs today.
ModelPtr SetUpPrepared(const std::string& path) {
  {
    ModelPtr built = BuildModel(EagerOptions(), nullptr);
    SaveModel(*built, path);
  }
  return Must(ServingModel::OpenMapped(GenerateCorpus(nullptr), path),
              "OpenMapped");
}

/// `kPoolSize` queries of lengths kMinLen..kMaxLen, a pure function of
/// the seed (the corpus is the fixed DblpOptions{} default).
std::vector<Query> SamplePool(const ServingModel& model, uint64_t seed) {
  kqr::QuerySampler sampler(model, seed);
  kqr::Rng lengths(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<Query> pool;
  pool.reserve(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    pool.push_back(sampler.SampleQuery(
        kMinLen + lengths.NextBounded(kMaxLen - kMinLen + 1)));
  }
  return pool;
}

/// Serial reference fingerprints: one cold ReformulateTerms per query.
/// Every reference call must succeed: the workloads are chosen so that
/// no operation fails.
std::vector<uint64_t> ReferenceFingerprints(const ServingModel& model,
                                            const std::vector<Query>& pool) {
  std::vector<uint64_t> ref;
  ref.reserve(pool.size());
  for (const Query& q : pool) {
    Ranking r = model.ReformulateTerms(q, kK);
    if (!r.ok()) Die("reference query failed: " + r.status().ToString());
    ref.push_back(Fingerprint(r));
  }
  return ref;
}

/// A query stream: `count` pool indices drawn uniformly.
std::vector<size_t> Stream(uint64_t seed, size_t count) {
  kqr::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 11);
  std::vector<size_t> out(count);
  for (size_t& i : out) i = rng.NextBounded(kPoolSize);
  return out;
}

/// latency_p50_ms / latency_p99_ms of a timed phase [start, end): the
/// medians over up to kWindows equal windows (see SummarizeWindows), as
/// many as still leave each window enough samples for a true p99.
void AddLatency(Report* rep, const std::vector<Timed>& latency_ms,
                int64_t start, int64_t end) {
  const size_t windows =
      std::clamp<size_t>(latency_ms.size() / kWindowMinSamples, 1, kWindows);
  const Windowed w = SummarizeWindows(latency_ms, start, end, windows);
  if (!w.ok) rep->Fail("a latency window has fewer than 11 samples");
  rep->Add("latency_p50_ms", w.p50, "ms");
  rep->Add("latency_p99_ms", w.tail, "ms");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "latency samples=%zu in %zu windows, window tails at >= "
                "p%.3f; whole phase p50 %.4f ms, p%.3f %.4f ms",
                w.overall.n, windows, w.tail_pct_min, w.overall.p50,
                w.overall.tail_pct, w.overall.tail);
  rep->Note(buf);
  std::string tails = "window tails (ms):";
  for (double t : w.window_tails) {
    tails += ' ';
    tails += std::to_string(t);
  }
  rep->Note(tails);
}

void AddFailedFrac(Report* rep) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "failed_frac = %.6f ratio (%" PRIu64
                "/%" PRIu64 ")",
                rep->attempted ? static_cast<double>(rep->failed) /
                                     static_cast<double>(rep->attempted)
                               : 0.0,
                rep->failed, rep->attempted);
  rep->Note(buf);
  if (rep->failed > 0) rep->Fail("operations failed");
}

// ---------------------------------------------------------------------
// Open-loop load through a Server.

struct OpenLoopRun {
  std::vector<int64_t> due, sent, done;
  std::vector<double> submit_us;
  size_t shed = 0;
  size_t errors = 0;      // non-shed errors
  size_t mismatches = 0;  // completed rankings that differ from reference
  OpenLoopTiming timing;
};

/// Submits `rate` queries/s for `duration` seconds on a Poisson schedule,
/// waits for every request, and times each from its due time.
OpenLoopRun RunOpenLoop(kqr::Server* server, const std::vector<Query>& pool,
                        const std::vector<uint64_t>& ref, uint64_t seed,
                        double rate, double duration) {
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * duration));
  OpenLoopRun run;
  std::vector<int64_t> offsets = PoissonSchedule(seed, rate, n);
  const std::vector<size_t> which = Stream(seed ^ 0x5bd1e995ULL, n);
  run.due.resize(n);
  run.sent.assign(n, 0);
  run.done.assign(n, -1);
  run.submit_us.resize(n);
  std::vector<uint8_t> outcome(n, 0);  // 0 ok, 1 shed, 2 error, 3 mismatch
  std::atomic<size_t> completed{0};
  const int64_t start = NowNs() + 2000000;
  for (size_t i = 0; i < n; ++i) run.due[i] = start + offsets[i];

  for (size_t i = 0; i < n; ++i) {
    // The generator spins rather than sleeps: a wake-up from sleep can
    // take longer than the gap between two arrivals.
    const int64_t target = run.due[i];
    int64_t now = 0;
    while ((now = NowNs()) < target) {
    }
    run.sent[i] = now;
    kqr::ServerRequest req;
    req.terms = pool[which[i]];
    req.k = kK;
    const uint64_t expect = ref[which[i]];
    server->Submit(std::move(req), [&, i, expect](kqr::ServeResult r) {
      run.done[i] = NowNs();
      if (!r.ok()) {
        outcome[i] = r.status().code() == kqr::StatusCode::kUnavailable ? 1
                                                                         : 2;
      } else if (Fingerprint(r) != expect) {
        outcome[i] = 3;
      }
      completed.fetch_add(1, std::memory_order_release);
    });
    run.submit_us[i] = (NowNs() - now) / 1e3;
  }
  while (completed.load(std::memory_order_acquire) < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (size_t i = 0; i < n; ++i) {
    if (outcome[i] == 1) {
      ++run.shed;
      run.done[i] = -1;  // shed requests have no latency
    }
    run.errors += outcome[i] == 2;
    run.mismatches += outcome[i] == 3;
  }
  run.timing = TimeFromDue(run.due, run.sent, run.done);
  return run;
}

// ---------------------------------------------------------------------
// direct_warm

void DirectWarm(const Args& args, Report* rep) {
  const std::string path = args.workdir + "/direct.kqrm";
  std::vector<double> setup;
  ModelPtr model;
  for (size_t r = 0; r < kSetupReps; ++r) {
    model.reset();
    const int64_t t0 = NowNs();
    model = SetUpPrepared(path);
    setup.push_back(SecondsSince(t0));
  }
  const std::vector<Query> pool = SamplePool(*model, args.seed);
  const std::vector<uint64_t> ref = ReferenceFingerprints(*model, pool);

  // Sample buffers are sized and touched before the peak-memory reset, so
  // peak_rss_mb does not grow with the number of operations timed.
  std::vector<std::vector<Timed>> lat(kClients,
                                      std::vector<Timed>(kMaxSamples));
  ResetPeakRss();
  std::vector<uint64_t> ops(kClients, 0), bad(kClients, 0);
  std::vector<int64_t> finished(kClients, 0);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  int64_t start = 0;
  const int64_t span_ns = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      kqr::RequestContext ctx;
      kqr::Rng rng(args.seed * 1315423911ULL + t + 1);
      for (size_t w = 0; w < 64; ++w) {  // warm this thread's scratch
        (void)model->ReformulateTerms(pool[rng.NextBounded(kPoolSize)], kK,
                                      &ctx);
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const int64_t end = start + span_ns;
      int64_t now = NowNs();
      while (now < end && ops[t] < kMaxSamples) {
        const size_t i = rng.NextBounded(kPoolSize);
        Ranking r = model->ReformulateTerms(pool[i], kK, &ctx);
        const int64_t after = NowNs();
        lat[t][ops[t]] = Timed{after, (after - now) / 1e6};
        ++ops[t];
        if (!r.ok() || Fingerprint(r) != ref[i]) ++bad[t];
        now = after;
      }
      finished[t] = now;
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  start = NowNs();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const double peak_rss = PeakRssMiB("self");  // before any analysis

  std::vector<Timed> all;
  for (size_t t = 0; t < kClients; ++t) {
    all.insert(all.end(), lat[t].begin(),
               lat[t].begin() + static_cast<ptrdiff_t>(ops[t]));
    rep->attempted += ops[t];
    rep->failed += bad[t];
  }
  const double wall =
      (*std::max_element(finished.begin(), finished.end()) - start) / 1e9;
  rep->Add("setup_s", Median(setup), "s");
  rep->Add("throughput_qps",
           static_cast<double>(rep->attempted - rep->failed) / wall,
           "queries/s");
  AddLatency(rep, all, start, start + span_ns);
  rep->Add("peak_rss_mb", peak_rss, "MiB");
  AddFailedFrac(rep);
}

// ---------------------------------------------------------------------
// Closed loop through a Server (the traced run's lazy-preparation arm).

/// Pool index and ranking fingerprint of every request served.
struct ClosedRun {
  std::vector<size_t> index;
  std::vector<uint64_t> fp;
};

/// Keeps kClients requests in flight through `server` for `seconds` or
/// `max_requests` requests, whichever ends first.
ClosedRun RunServerClosedLoop(kqr::Server* server,
                              const std::vector<Query>& pool, uint64_t seed,
                              double seconds, size_t max_requests) {
  ClosedRun run;
  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;
  kqr::Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t slot = 0; slot < max_requests && NowNs() < end; ++slot) {
    kqr::ServerRequest req;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < kClients; });
      ++in_flight;
      run.index.push_back(rng.NextBounded(kPoolSize));
      run.fp.push_back(0);
      req.terms = pool[run.index[slot]];
    }
    req.k = kK;
    server->Submit(std::move(req), [&, slot](kqr::ServeResult r) {
      const uint64_t fp = Fingerprint(r);
      std::lock_guard<std::mutex> lock(mu);
      run.fp[slot] = fp;
      --in_flight;
      cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return in_flight == 0; });
  return run;
}

// ---------------------------------------------------------------------
// fleet_routed

struct Fleet {
  std::vector<std::unique_ptr<Daemon>> daemons;  // group-major
  kqr::FleetTopology topology;
  double ready_ms_median = 0.0;  // spawn to LISTENING, per replica

  ~Fleet() {
    for (auto& d : daemons) d->Stop();
  }
};

/// Spawns the 2x2 fleet over `model_path` and waits for every announce.
std::unique_ptr<Fleet> SpawnFleet(const Args& args,
                                  const std::string& model_path) {
  auto fleet = std::make_unique<Fleet>();
  for (size_t i = 0; i < kFleetGroups * kFleetReplicas; ++i) {
    auto d = std::make_unique<Daemon>();
    if (!d->Spawn(args.shardd, {"--model", model_path, "--port", "0",
                                "--workers", "1"})) {
      Die("spawning " + args.shardd + " failed");
    }
    fleet->daemons.push_back(std::move(d));
  }
  std::vector<double> ready;
  fleet->topology.groups.resize(kFleetGroups);
  for (size_t i = 0; i < fleet->daemons.size(); ++i) {
    Daemon& d = *fleet->daemons[i];
    if (!d.AwaitListening(60000)) Die("a kqr_shardd replica did not start");
    ready.push_back(d.ready_ms());
    fleet->topology.groups[i / kFleetReplicas].push_back(
        kqr::ShardAddress{"127.0.0.1", d.port()});
  }
  fleet->ready_ms_median = Median(ready);
  return fleet;
}

/// Sends every pool query to each replica in turn through a router that
/// knows only that replica, checking each answer. Returns mismatches.
size_t WarmEveryReplica(const Fleet& fleet, const std::vector<Query>& pool,
                        const std::vector<uint64_t>& ref) {
  size_t bad = 0;
  for (const auto& group : fleet.topology.groups) {
    for (const kqr::ShardAddress& address : group) {
      auto router = Must(kqr::ShardRouter::Connect(
                             kqr::FleetTopology::SingleReplica({address}),
                             kqr::RouterOptions{}),
                         "ShardRouter::Connect (warm)");
      for (size_t base = 0; base < pool.size(); base += kFleetBatch) {
        std::vector<Query> batch(
            pool.begin() + static_cast<ptrdiff_t>(base),
            pool.begin() + static_cast<ptrdiff_t>(
                               std::min(pool.size(), base + kFleetBatch)));
        std::vector<kqr::ServeResult> out = router->ReformulateBatch(batch, kK);
        for (size_t i = 0; i < out.size(); ++i) {
          bad += Fingerprint(out[i]) != ref[base + i];
        }
      }
    }
  }
  return bad;
}

struct ReplicaCounters {
  uint64_t lazy = 0;
  std::vector<uint64_t> queries;
};

ReplicaCounters ScrapeReplicas(kqr::ShardRouter* router) {
  ReplicaCounters c;
  for (size_t g = 0; g < kFleetGroups; ++g) {
    for (size_t r = 0; r < kFleetReplicas; ++r) {
      const std::string json =
          Must(router->Stats(kqr::ReplicaRef{g, r}), "ShardRouter::Stats");
      c.lazy += CounterIn(json, "kqr_lazy_terms_prepared_total");
      c.queries.push_back(CounterIn(json, "kqr_shard_queries_total"));
    }
  }
  return c;
}

/// Spawn, connect, health-check and warm: everything before the fleet can
/// serve timed traffic. Returns the router; `setup_s` is its wall time.
std::unique_ptr<kqr::ShardRouter> StandUpFleet(
    const Args& args, const std::string& model_path,
    const std::vector<Query>& pool, const std::vector<uint64_t>& ref,
    std::unique_ptr<Fleet>* fleet, double* setup_s, double* connect_ms,
    size_t* warm_mismatches) {
  const int64_t t0 = NowNs();
  *fleet = SpawnFleet(args, model_path);
  const int64_t tc = NowNs();
  auto router = Must(
      kqr::ShardRouter::Connect((*fleet)->topology, kqr::RouterOptions{}),
      "ShardRouter::Connect");
  *connect_ms = (NowNs() - tc) / 1e6;
  for (size_t g = 0; g < kFleetGroups; ++g) {
    for (size_t r = 0; r < kFleetReplicas; ++r) {
      (void)Must(router->Health(kqr::ReplicaRef{g, r}), "Health");
    }
  }
  *warm_mismatches += WarmEveryReplica(**fleet, pool, ref);
  *setup_s = SecondsSince(t0);
  return router;
}

std::vector<Query> Gather(const std::vector<Query>& pool,
                          const std::vector<size_t>& idx) {
  std::vector<Query> out;
  out.reserve(idx.size());
  for (size_t i : idx) out.push_back(pool[i]);
  return out;
}

void FleetRouted(const Args& args, Report* rep) {
  const std::string path = args.workdir + "/fleet.kqrm";
  ModelPtr model = BuildModel(EagerOptions(), nullptr);
  SaveModel(*model, path);
  const std::vector<Query> pool = SamplePool(*model, args.seed);
  const std::vector<uint64_t> ref = ReferenceFingerprints(*model, pool);
  model.reset();

  std::vector<double> setup;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<kqr::ShardRouter> router;
  size_t warm_bad = 0;
  for (size_t r = 0; r < kSetupReps; ++r) {
    router.reset();
    fleet.reset();
    double s = 0.0, connect_ms = 0.0;
    router = StandUpFleet(args, path, pool, ref, &fleet, &s, &connect_ms,
                          &warm_bad);
    setup.push_back(s);
  }
  if (warm_bad > 0) rep->Fail("warm-up rankings differ from the reference");

  const ReplicaCounters before = ScrapeReplicas(router.get());
  const kqr::RouterStats rs0 = router->stats();
  kqr::Rng rng(args.seed * 0xd6e8feb86659fd93ULL + 5);
  std::vector<Timed> lat;
  size_t queries = 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  int64_t now = start;
  std::vector<size_t> idx(kFleetBatch);
  while (now < end) {
    for (size_t& i : idx) i = rng.NextBounded(kPoolSize);
    const std::vector<Query> batch = Gather(pool, idx);
    std::vector<kqr::ServeResult> out = router->ReformulateBatch(batch, kK);
    const int64_t after = NowNs();
    lat.push_back(Timed{after, (after - now) / 1e6});
    now = after;
    for (size_t i = 0; i < out.size(); ++i) {
      ++rep->attempted;
      if (Fingerprint(out[i]) != ref[idx[i]]) ++rep->failed;
    }
    queries += out.size();
  }
  const double wall = (now - start) / 1e9;
  const kqr::RouterStats rs1 = router->stats();
  const ReplicaCounters after = ScrapeReplicas(router.get());
  double rss = 0.0;
  for (const auto& d : fleet->daemons) rss += d->PeakRss();
  router.reset();
  fleet.reset();

  if (after.lazy != before.lazy) {
    rep->Fail("replicas prepared terms lazily during timed rounds");
  }
  if (rs1.failovers != rs0.failovers) {
    rep->Fail("router failed over during timed rounds");
  }
  rep->Add("setup_s", Median(setup), "s");
  rep->Add("throughput_qps",
           static_cast<double>(queries - rep->failed) / wall, "queries/s");
  AddLatency(rep, lat, start, end);
  rep->Add("peak_rss_mb", rss, "MiB");
  rep->Note("operation = one ReformulateBatch of " +
            std::to_string(kFleetBatch) + " queries");
  AddFailedFrac(rep);
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics.

/// Scratch for one serial thread replaying requests stage by stage.
struct StageScratch {
  std::vector<std::vector<kqr::CandidateState>> candidates;
  kqr::HmmModel hmm;
  kqr::AStarScratch astar;
};

struct StageCounts {
  size_t positions = 0;
  size_t states = 0;
  size_t transitions = 0;
  size_t generated = 0;
  size_t expanded = 0;
  size_t prepared = 0;
  double last_prep_ms = 0.0;  // the latest request's core.prep span
};

/// One request replayed by calling the layers in the order the facade
/// does: (lazy preparation), CandidateBuilder::BuildInto,
/// HmmBuilder::BuildInto, AStarTopK; then the benchmark assembles the
/// ranking the way the facade would and returns it for fingerprinting.
Ranking StagedRequest(const ServingModel& model, const Query& q,
                      bool prepare, StageScratch* s, SpanRecorder* rec,
                      uint32_t id, StageCounts* counts) {
  const kqr::ReformulatorOptions& opts = model.options().reformulator;
  const int32_t root = rec->Begin("request", -1, id);
  if (prepare) {
    const int32_t sp = rec->Begin("core.prep", root, id);
    counts->prepared += model.PrepareTermsBatch(q);
    rec->End(sp);
    if (sp >= 0) {
      const Span& span = rec->spans()[static_cast<size_t>(sp)];
      counts->last_prep_ms = (span.end_ns - span.start_ns) / 1e6;
    }
  }
  int32_t sp = rec->Begin("core.candidates", root, id);
  kqr::CandidateBuilder(model.similarity_index(), opts.candidates)
      .BuildInto(q, &s->candidates);
  rec->End(sp);
  sp = rec->Begin("core.hmm", root, id);
  kqr::HmmBuilder(model.closeness_index(), model.stats(), model.graph(),
                  opts.hmm)
      .BuildInto(s->candidates, &s->hmm);
  rec->End(sp);
  sp = rec->Begin("core.decode", root, id);
  kqr::AStarStats astar;
  const size_t fetch = opts.drop_identity ? kK + 1 : kK;
  std::vector<kqr::DecodedPath> paths =
      kqr::AStarTopK(s->hmm, fetch, &astar, &s->astar, opts.prune_decode);
  rec->End(sp);

  sp = rec->Begin("bench.assemble", root, id);
  std::vector<ReformulatedQuery> out;
  for (const kqr::DecodedPath& path : paths) {
    ReformulatedQuery rq;
    rq.score = path.score;
    bool identity = true;
    for (size_t pos = 0; pos < path.states.size(); ++pos) {
      const kqr::CandidateState& st =
          s->candidates[pos][static_cast<size_t>(path.states[pos])];
      rq.terms.push_back(st.is_void ? kqr::kInvalidTermId : st.term);
      identity = identity && st.is_original;
    }
    rq.is_identity = identity;
    if (opts.drop_identity && identity) continue;
    out.push_back(std::move(rq));
    if (out.size() >= kK) break;
  }
  rec->End(sp);
  rec->End(root);

  counts->positions += s->candidates.size();
  for (size_t c = 0; c < s->candidates.size(); ++c) {
    counts->states += s->candidates[c].size();
    if (c + 1 < s->candidates.size()) {
      counts->transitions +=
          s->candidates[c].size() * s->candidates[c + 1].size();
    }
  }
  counts->generated += astar.nodes_generated;
  counts->expanded += astar.nodes_expanded;
  return out;
}

/// Durations (us) of spans named `name`, in request order.
std::vector<double> SpanUs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back((s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

/// Share of the traced wall time that named layer spans' self times do
/// not account for, in percent.
double LayerSumGapPct(const std::vector<Span>& spans, int64_t wall_ns) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  int64_t layers = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) layers += self[i];
  }
  return 100.0 * static_cast<double>(wall_ns - layers) /
         static_cast<double>(wall_ns);
}

struct Tracer {
  Tracer(const Args& a, Report* r) : args(a), rep(r) {}

  const Args& args;
  Report* rep;
  SpanRecorder rec{true};
  std::vector<Span> all_spans;
  uint32_t next_request = 1;
  double worst_gap_pct = 0.0;

  void Keep() {
    all_spans.insert(all_spans.end(), rec.spans().begin(), rec.spans().end());
    rec.Clear();
  }
  void Check(uint64_t got, uint64_t want) {
    ++rep->attempted;
    if (got != want) ++rep->failed;
  }
  void WriteSpans() const {
    std::ofstream out(args.workdir + "/spans-" + args.workload + "-" +
                      std::to_string(args.seed) + ".tsv");
    out << "request\tname\tstart_ns\tend_ns\tparent\n";
    for (const Span& s : all_spans) {
      out << s.request << '\t' << s.name << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t' << s.parent << '\n';
    }
  }
};

/// The payload of one encoded frame.
std::span<const std::byte> FramePayload(const std::string& frame) {
  return {reinterpret_cast<const std::byte*>(frame.data()) +
              kqr::kFrameHeaderBytes,
          frame.size() - kqr::kFrameHeaderBytes};
}

void TraceRun(const Args& args, Report* rep) {
  Tracer tr(args, rep);
  const std::string path = args.workdir + "/trace.kqrm";
  std::vector<double> generate_s;

  // -- offline layers -------------------------------------------------
  ModelPtr built = BuildModel(EagerOptions(), &generate_s);
  const kqr::EngineOptions eo = built->options();
  int64_t t0 = NowNs();
  (void)Must(kqr::BuildTatGraph(built->db(), built->vocab(), built->index(),
                                eo.graph),
             "BuildTatGraph");
  const double tat_s = SecondsSince(t0);
  t0 = NowNs();
  (void)kqr::SimilarityIndex::Build(built->graph(), built->stats(),
                                    eo.similarity);
  const double sim_s = SecondsSince(t0);
  std::vector<TermId> eligible;
  for (TermId t = 0; t < built->vocab().size(); ++t) {
    if (built->graph().Degree(built->graph().NodeOfTerm(t)) >=
        eo.similarity.min_degree) {
      eligible.push_back(t);
    }
  }
  t0 = NowNs();
  (void)kqr::ClosenessIndex::BuildFor(built->graph(), eligible, eo.closeness);
  const double clos_s = SecondsSince(t0);
  t0 = NowNs();
  SaveModel(*built, path);
  const double save_s = SecondsSince(t0);
  const double bytes =
      static_cast<double>(std::filesystem::file_size(path));
  built.reset();
  std::vector<double> open_ms;
  ModelPtr model;
  for (size_t r = 0; r < kSetupReps; ++r) {
    model.reset();
    kqr::Database db = GenerateCorpus(&generate_s);
    t0 = NowNs();
    model = Must(ServingModel::OpenMapped(std::move(db), path), "OpenMapped");
    open_ms.push_back((NowNs() - t0) / 1e6);
  }
  rep->Add("datagen.generate_s", Median(generate_s), "s");
  rep->Add("graph.tat_build_s", tat_s, "s");
  rep->Add("walk.similarity_build_s", sim_s, "s");
  rep->Add("closeness.build_s", clos_s, "s");
  rep->Add("core.model_file.save_s", save_s, "s");
  rep->Add("core.model_file.open_ms", Median(open_ms), "ms");
  rep->Add("core.model_file.bytes", bytes, "bytes");

  const std::vector<Query> pool = SamplePool(*model, args.seed);
  const std::vector<uint64_t> ref = ReferenceFingerprints(*model, pool);

  // -- core stages on the prepared model ------------------------------
  const std::vector<size_t> stream = Stream(args.seed, 3000);
  StageScratch scratch;
  SpanRecorder off(false);
  for (size_t i = 0; i < 200; ++i) {  // warm scratch and caches
    StageCounts c;
    (void)StagedRequest(*model, pool[stream[i]], false, &scratch, &off, 0, &c);
  }
  // Untraced and traced passes over the same requests, ordered ABBA ABBA
  // so that drift in machine speed cancels out of the overhead.
  double untraced_s = 0.0, traced_s = 0.0;
  int64_t traced_wall_ns = 0;
  std::vector<Span> measured;
  StageCounts counts;
  for (int pass = 0; pass < 8; ++pass) {
    const bool traced = pass % 4 == 1 || pass % 4 == 2;
    SpanRecorder& rec = traced ? tr.rec : off;
    StageCounts c;
    const int64_t p0 = NowNs();
    for (size_t i = 0; i < stream.size(); ++i) {
      Ranking r = StagedRequest(*model, pool[stream[i]], false, &scratch,
                                &rec, tr.next_request + i, &c);
      tr.Check(Fingerprint(r), ref[stream[i]]);
    }
    const int64_t wall = NowNs() - p0;
    (traced ? traced_s : untraced_s) += wall / 1e9;
    if (pass == 1) {
      traced_wall_ns = wall;
      measured = tr.rec.spans();
      counts = c;
    }
    if (traced) {
      tr.Keep();
      tr.next_request += static_cast<uint32_t>(stream.size());
    }
  }
  tr.worst_gap_pct = LayerSumGapPct(measured, traced_wall_ns);
  const std::vector<double> cand = SpanUs(measured, "core.candidates");
  const std::vector<double> hmm = SpanUs(measured, "core.hmm");
  const std::vector<double> dec = SpanUs(measured, "core.decode");
  // The facade's own time for the same requests (untraced).
  std::vector<double> request_us, glue_us;
  {
    kqr::RequestContext ctx;
    for (size_t i = 0; i < 200; ++i) {
      (void)model->ReformulateTerms(pool[stream[i]], kK, &ctx);
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      const int64_t a = NowNs();
      Ranking r = model->ReformulateTerms(pool[stream[i]], kK, &ctx);
      const double us = (NowNs() - a) / 1e3;
      tr.Check(Fingerprint(r), ref[stream[i]]);
      request_us.push_back(us);
      glue_us.push_back(us - cand[i] - hmm[i] - dec[i]);
    }
  }
  const double n_req = static_cast<double>(stream.size());
  const Summary hmm_s = Summarize(hmm), dec_s = Summarize(dec);
  double hmm_total_ns = 0.0;
  for (double us : hmm) hmm_total_ns += us * 1e3;
  rep->Add("core.candidates.us_p50", Summarize(cand).p50, "us");
  rep->Add("core.candidates.states_per_pos",
           static_cast<double>(counts.states) /
               static_cast<double>(counts.positions),
           "count");
  rep->Add("core.hmm.us_p50", hmm_s.p50, "us");
  rep->Add("core.hmm.us_p99", hmm_s.tail, "us");
  rep->Add("core.hmm.transitions_per_req",
           static_cast<double>(counts.transitions) / n_req, "count");
  rep->Add("core.hmm.ns_per_transition",
           hmm_total_ns / static_cast<double>(counts.transitions), "ns");
  rep->Add("core.decode.us_p50", dec_s.p50, "us");
  rep->Add("core.decode.us_p99", dec_s.tail, "us");
  rep->Add("core.decode.astar_generated_per_req",
           static_cast<double>(counts.generated) / n_req, "count");
  rep->Add("core.decode.astar_expanded_per_req",
           static_cast<double>(counts.expanded) / n_req, "count");
  rep->Add("core.request.us_p50", Summarize(request_us).p50, "us");
  rep->Add("core.glue.us_p50", Summarize(glue_us).p50, "us");

  // -- lazy preparation -----------------------------------------------
  {
    ModelPtr lazy = BuildModel(kqr::EngineOptions{}, nullptr);
    StageScratch ls;
    StageCounts lc;
    std::vector<double> prep_ms;
    const std::vector<size_t> lazy_stream = Stream(args.seed + 1, 400);
    const int64_t l0 = NowNs();
    for (size_t i = 0; i < lazy_stream.size(); ++i) {
      const size_t before = lc.prepared;
      Ranking r = StagedRequest(*lazy, pool[lazy_stream[i]], true, &ls,
                                &tr.rec, tr.next_request++, &lc);
      tr.Check(Fingerprint(r), ref[lazy_stream[i]]);
      if (lc.prepared > before) {
        prep_ms.push_back(lc.last_prep_ms);
      }
    }
    const int64_t lazy_wall = NowNs() - l0;
    tr.worst_gap_pct =
        std::max(tr.worst_gap_pct, LayerSumGapPct(tr.rec.spans(), lazy_wall));
    tr.Keep();
    const kqr::MetricsSnapshot snap = lazy->MetricsNow();
    const double hits = static_cast<double>(
        snap.CounterValue("kqr_term_cache_hits_total"));
    const double misses = static_cast<double>(
        snap.CounterValue("kqr_term_cache_misses_total"));
    const Summary ps = Summarize(prep_ms);
    rep->Add("core.prep.terms_prepared", static_cast<double>(lc.prepared),
             "count");
    rep->Add("core.prep.ms_p50", ps.p50, "ms");
    rep->Add("core.prep.ms_p99", ps.tail, "ms");
    rep->Add("core.prep.cache_hit_rate",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");

    // The walk layer alone: one single-threaded similarity walk per term.
    kqr::SimilarityIndexOptions so = eo.similarity;
    so.num_threads = 1;
    std::set<TermId> terms;
    for (size_t i : lazy_stream) {
      for (TermId t : pool[i]) {
        if (terms.size() < 32) terms.insert(t);
      }
    }
    std::vector<double> walk_ms;
    for (TermId t : terms) {
      const int64_t w0 = NowNs();
      (void)kqr::SimilarityIndex::BuildFor(lazy->graph(), lazy->stats(), {t},
                                           so);
      walk_ms.push_back((NowNs() - w0) / 1e6);
    }
    rep->Add("walk.prep_ms_per_term", Median(walk_ms), "ms");
  }
  {
    // Batch-level lazy preparation through the Server, on a fresh model.
    ModelPtr lazy = BuildModel(kqr::EngineOptions{}, nullptr);
    kqr::ServerOptions options;
    options.num_workers = kClients;
    ClosedRun run;
    {
      auto server = Must(kqr::Server::Create(lazy, options), "Server::Create");
      run = RunServerClosedLoop(server.get(), pool, args.seed + 2, 4.0,
                                400);
    }
    for (size_t i = 0; i < run.index.size(); ++i) {
      tr.Check(run.fp[i], ref[run.index[i]]);
    }
    const kqr::MetricsSnapshot snap = lazy->MetricsNow();
    const double batch = static_cast<double>(
        snap.CounterValue("kqr_server_batch_terms_prepared_total"));
    const double all = static_cast<double>(
        snap.CounterValue("kqr_lazy_terms_prepared_total"));
    rep->Add("server.batch_prep_share", all > 0 ? batch / all : 0.0, "ratio");
  }

  // -- server queue on the prepared model -----------------------------
  {
    kqr::ServerOptions options;
    options.num_workers = kClients;
    auto server = Must(kqr::Server::Create(model, options), "Server::Create");
    uint64_t s = args.seed * 0x9e3779b97f4a7c15ULL + 17;
    (void)RunOpenLoop(server.get(), pool, ref, ++s, kQueueNominalRate, 0.3);
    OpenLoopRun low =
        RunOpenLoop(server.get(), pool, ref, ++s, kQueueBaseRate, 1.0);
    const kqr::MetricsSnapshot b0 = model->MetricsNow();
    OpenLoopRun nom =
        RunOpenLoop(server.get(), pool, ref, ++s, kQueueNominalRate, 1.5);
    const kqr::MetricsSnapshot b1 = model->MetricsNow();
    server->Drain();
    for (const OpenLoopRun* r : {&low, &nom}) {
      rep->attempted += r->due.size();
      rep->failed += r->errors + r->mismatches;
    }
    const Summary ls = Summarize(low.timing.latency_us);
    const Summary ns = Summarize(nom.timing.latency_us);
    const kqr::HistogramSnapshot* h0 = b0.Histogram("kqr_server_batch_size");
    const kqr::HistogramSnapshot* h1 = b1.Histogram("kqr_server_batch_size");
    if (h1 == nullptr) Die("server batch-size histogram missing");
    const double batches =
        static_cast<double>(h1->count - (h0 ? h0->count : 0));
    const double batched = h1->sum - (h0 ? h0->sum : 0.0);
    rep->Add("server.queueing_us_p50", ns.p50 - ls.p50, "us");
    rep->Add("server.queueing_us_p99", ns.tail - ls.tail, "us");
    rep->Add("server.batch_size_mean", batches > 0 ? batched / batches : 0.0,
             "count");
    rep->Add("server.submit_us_p50", Summarize(nom.submit_us).p50, "us");
    rep->Add("server.shed", static_cast<double>(low.shed + nom.shed),
             "count");
    rep->Add("server.gen_lag_us_p99", Summarize(nom.timing.lag_us).tail,
             "us");
  }

  // -- net codecs and the fleet ---------------------------------------
  {
    const size_t batches = 40;
    const std::vector<size_t> fs =
        Stream(args.seed + 3, batches * kFleetBatch);
    // Direct arm: the same queries, serially, on the in-process model.
    double direct_s = 0.0;
    std::vector<std::vector<kqr::ServeResult>> local(batches);
    {
      kqr::RequestContext ctx;
      const int64_t d0 = NowNs();
      for (size_t b = 0; b < batches; ++b) {
        for (size_t j = 0; j < kFleetBatch; ++j) {
          local[b].push_back(
              model->ReformulateTerms(pool[fs[b * kFleetBatch + j]], kK, &ctx));
        }
      }
      direct_s = SecondsSince(d0);
    }
    double req_bytes = 0.0, resp_bytes = 0.0, codec_ns = 0.0;
    for (size_t b = 0; b < batches; ++b) {
      kqr::ReformulateRequest req;
      req.request_id = b + 1;
      req.k = kK;
      for (size_t j = 0; j < kFleetBatch; ++j) {
        req.queries.push_back(pool[fs[b * kFleetBatch + j]]);
      }
      kqr::ReformulateResponse resp;
      resp.request_id = b + 1;
      resp.results = local[b];
      const int64_t c0 = NowNs();
      const std::string rq = kqr::EncodeFrameString(
          kqr::FrameType::kReformulateRequest,
          kqr::EncodeReformulateRequest(req));
      const std::string rs = kqr::EncodeFrameString(
          kqr::FrameType::kReformulateResponse,
          kqr::EncodeReformulateResponse(resp));
      auto dq = kqr::DecodeReformulateRequest(FramePayload(rq));
      auto ds = kqr::DecodeReformulateResponse(FramePayload(rs));
      codec_ns += static_cast<double>(NowNs() - c0);
      if (!dq.ok() || !ds.ok() || dq->queries != req.queries) {
        rep->Fail("protocol round trip failed");
      } else {
        for (size_t j = 0; j < kFleetBatch; ++j) {
          tr.Check(Fingerprint(ds->results[j]), ref[fs[b * kFleetBatch + j]]);
        }
      }
      req_bytes += static_cast<double>(rq.size());
      resp_bytes += static_cast<double>(rs.size());
    }
    const double nq = static_cast<double>(batches * kFleetBatch);
    rep->Add("net.req_bytes_per_query", req_bytes / nq, "bytes");
    rep->Add("net.resp_bytes_per_query", resp_bytes / nq, "bytes");
    rep->Add("net.codec_us_per_query", codec_ns / 1e3 / nq, "us");

    // Fleet over the same v3 file.
    std::unique_ptr<Fleet> fleet;
    double setup_s = 0.0, connect_ms = 0.0;
    size_t warm_bad = 0;
    auto router = StandUpFleet(args, path, pool, ref, &fleet, &setup_s,
                               &connect_ms, &warm_bad);
    if (warm_bad > 0) rep->Fail("warm-up rankings differ from the reference");
    std::vector<double> rtt;
    for (size_t g = 0; g < kFleetGroups; ++g) {
      for (size_t r = 0; r < kFleetReplicas; ++r) {
        for (int i = 0; i < 25; ++i) {
          const int64_t h0 = NowNs();
          (void)Must(router->Health(kqr::ReplicaRef{g, r}), "Health");
          rtt.push_back((NowNs() - h0) / 1e3);
        }
      }
    }
    const ReplicaCounters before = ScrapeReplicas(router.get());
    const kqr::RouterStats rs0 = router->stats();
    const int64_t f0 = NowNs();
    for (size_t b = 0; b < batches; ++b) {
      const auto first = fs.begin() + static_cast<ptrdiff_t>(b * kFleetBatch);
      const std::vector<size_t> idx(
          first, first + static_cast<ptrdiff_t>(kFleetBatch));
      std::vector<kqr::ServeResult> out =
          router->ReformulateBatch(Gather(pool, idx), kK);
      for (size_t j = 0; j < out.size(); ++j) {
        tr.Check(Fingerprint(out[j]), ref[idx[j]]);
      }
    }
    const double fleet_s = SecondsSince(f0);
    const kqr::RouterStats rs1 = router->stats();
    const ReplicaCounters after = ScrapeReplicas(router.get());
    const double ready_ms = fleet->ready_ms_median;
    router.reset();
    fleet.reset();
    uint64_t total = 0, least = UINT64_MAX;
    for (size_t i = 0; i < after.queries.size(); ++i) {
      const uint64_t d = after.queries[i] - before.queries[i];
      total += d;
      least = std::min(least, d);
    }
    rep->Add("shard.health_rtt_us_p50", Summarize(rtt).p50, "us");
    rep->Add("shard.wire_us_per_query", (fleet_s - direct_s) * 1e6 / nq,
             "us");
    rep->Add("shard.router.scatters_per_batch",
             static_cast<double>(rs1.scatters - rs0.scatters) /
                 static_cast<double>(rs1.batches - rs0.batches),
             "count");
    rep->Add("shard.router.failovers",
             static_cast<double>(rs1.failovers - rs0.failovers), "count");
    rep->Add("shard.router.reconnects",
             static_cast<double>(rs1.reconnects - rs0.reconnects), "count");
    rep->Add("shard.replica_query_share_min",
             total > 0 ? static_cast<double>(least) /
                             static_cast<double>(total)
                       : 0.0,
             "ratio");
    rep->Add("shard.lazy_preps_timed",
             static_cast<double>(after.lazy - before.lazy), "count");
    rep->Add("shard.daemon_ready_ms", ready_ms, "ms");
    rep->Add("shard.connect_ms", connect_ms, "ms");
    if (after.lazy != before.lazy) {
      rep->Fail("replicas prepared terms lazily during timed rounds");
    }
    if (rs1.failovers != rs0.failovers) {
      rep->Fail("router failed over during timed rounds");
    }
  }

  // -- tracing itself -------------------------------------------------
  rep->Add("obs.trace_overhead_pct",
           100.0 * (traced_s - untraced_s) / untraced_s, "%");
  rep->Add("obs.layer_sum_gap_pct", tr.worst_gap_pct, "%");
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "layer-sum check: self times cover the traced wall time to "
                "%.2f%% (tolerance %.1f%%); tracing overhead %.2f%%",
                tr.worst_gap_pct, kLayerSumTolPct,
                100.0 * (traced_s - untraced_s) / untraced_s);
  rep->Note(buf);
  if (std::abs(tr.worst_gap_pct) > kLayerSumTolPct) {
    rep->Fail("layer self times do not add up to the traced time");
  }
  if (rep->failed > 0) rep->Fail("replayed rankings differ from reference");
  tr.WriteSpans();
}

// ---------------------------------------------------------------------
// Self-tests of the arithmetic above.

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
    }
  };
  auto ramp = [](size_t n) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;  // values 1..n, unsorted
  };
  // Percentile rule: p99 when >= 10 samples lie beyond it.
  {
    const Summary s = Summarize(ramp(2000));  // p99 rank 1979: 20 beyond
    expect(s.tail == 1980.0 && s.tail_pct == 99.0 && s.tail_ok,
           "p99 of 1..2000 is 1980");
    expect(s.p50 == 1000.0, "p50 of 1..2000 is 1000");
  }
  {
    const Summary s = Summarize(ramp(1000));  // p99 rank 989: exactly 10
    expect(s.tail == 990.0 && s.tail_pct == 99.0, "p99 of 1..1000 is 990");
  }
  {
    const Summary s = Summarize(ramp(100));  // p99 has 1 beyond: pull down
    expect(s.tail == 90.0 && s.tail_pct == 90.0,
           "tail of 1..100 is p90 (10 beyond)");
  }
  {
    const Summary s = Summarize(ramp(11));
    expect(s.tail == 1.0 && s.tail_ok, "tail of 11 samples is the minimum");
    expect(!Summarize(ramp(10)).tail_ok, "10 samples support no tail");
  }
  // Open loop: latency from due time, lag from the generator.
  {
    // Request 1 is due at 100 but sent at 400 (the generator stalled);
    // both finish 50 after they were sent.
    const OpenLoopTiming t =
        TimeFromDue({0, 100, 200}, {0, 400, 400}, {50, 450, -1});
    expect(t.latency_us.size() == 2, "uncompleted requests have no latency");
    expect(t.latency_us[1] == 0.35, "latency counts the generator stall");
    expect(t.lag_us[1] == 0.3 && t.lag_us[2] == 0.2, "generator lag");
    const std::vector<int64_t> due = PoissonSchedule(7, 1000.0, 20000);
    expect(std::abs(due.back() / 1e9 - 20.0) < 0.5,
           "Poisson schedule runs at the nominal rate");
    expect(PoissonSchedule(7, 1000.0, 50) == PoissonSchedule(7, 1000.0, 50),
           "schedule is a function of the seed");
  }
  // Windowed latency: a stall confined to one window moves only that
  // window's tail, not the median over windows.
  {
    std::vector<Timed> samples;
    for (int w = 0; w < 5; ++w) {
      for (int i = 1; i <= 100; ++i) {
        const double v = (w == 2 && i > 80) ? 1000.0 : static_cast<double>(i);
        samples.push_back(Timed{w * 1000 + i, v});
      }
    }
    const Windowed win = SummarizeWindows(samples, 0, 5000, 5);
    expect(win.ok && win.p50 == 50.0 && win.tail == 90.0,
           "median over windows ignores one window's stall");
    expect(win.overall.n == 500 && win.overall.tail == 1000.0,
           "whole-phase tail sees the stall");
  }
  // Span self time: children's union, clipped to the parent.
  {
    std::vector<Span> spans = {
        {"root", 0, 100, -1, 1},
        {"a", 10, 40, 0, 1},   // overlaps b on 30..40
        {"b", 30, 60, 0, 1},
        {"c", 90, 120, 0, 1},  // overhangs the root by 20
        {"a.x", 15, 25, 1, 1},
    };
    const std::vector<int64_t> self = SelfTimesNs(spans);
    expect(self[0] == 100 - 50 - 10, "root self excludes union of children");
    expect(self[1] == 30 - 10, "a self excludes a.x");
    expect(self[2] == 30 && self[3] == 30 && self[4] == 10, "leaf self");
    expect(LayerSumGapPct(spans, 100) == 100.0 - 90.0,
           "layer sum counts non-root self times");
  }
  // Fingerprints separate rankings, scores and errors.
  {
    ReformulatedQuery q;
    q.terms = {1, 2};
    q.score = 0.5;
    Ranking a = std::vector<ReformulatedQuery>{q};
    q.score = std::nextafter(0.5, 1.0);
    Ranking b = std::vector<ReformulatedQuery>{q};
    Ranking e = kqr::Status::NotFound("x");
    expect(Fingerprint(a) != Fingerprint(b), "score bits are fingerprinted");
    expect(Fingerprint(a) != Fingerprint(e), "errors never match rankings");
  }
  std::printf("self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  signal(SIGPIPE, SIG_IGN);
  Args args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--shardd") {
      args.shardd = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (self_test) return SelfTest();
  if (args.seconds <= 0.0) Die("--seconds must be positive");

  Report rep;
  std::printf("workload %s, seed %" PRIu64 ", %.1f s, %s\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? "traced (per-layer metrics)"
                         : "untraced (end-to-end metrics)");
  if (args.trace) {
    if (args.workload != "direct_warm" && args.workload != "fleet_routed") {
      Die("unknown workload " + args.workload);
    }
    TraceRun(args, &rep);
  } else if (args.workload == "direct_warm") {
    DirectWarm(args, &rep);
  } else if (args.workload == "fleet_routed") {
    FleetRouted(args, &rep);
  } else {
    Die("unknown workload " + args.workload);
  }
  rep.Print();
  return rep.correct ? 0 : 1;
}
