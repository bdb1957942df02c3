// Fleet-scale engine throughput (calendar event queue + SoA ranking
// kernel) at platform sizes the micro-bench never reaches (up to 4096
// slaves x 100k tasks).
//
// Output is events (scheduled tasks) per second, setup time (platform +
// workload generation, EXCLUDED from the timed region) and the process peak
// RSS after the row (getrusage ru_maxrss — monotone across rows, so rows
// run smallest-first and the last row's value is the run's peak).
//
// Each row also micro-benches the ranking kernel at the row's slave count:
// branch-free scalar completion_batch vs the explicitly vectorized
// completion_batch_simd (probes/sec each) — measuring whether the
// compiler's autovectorization of the scalar loop already matched the
// hand-vectorized form (outputs are bit-identical either way).
//
// A second table covers the sharded engine (core/sharded_engine.hpp): the
// same (platform, workload, policy) run as one 16384-slave one-port engine
// (K=1) vs K one-port clusters under hash routing, at fleet sizes the
// single engine's O(m) per-decision cost makes painful. Each sharded row is
// additionally measured at shard_threads 1, 2 and 4 (the util::ThreadPool
// advancing the K engines) — output is byte-identical at every thread
// count, so the t2/t4 columns are pure wall-clock; the speedup they show is
// bounded by the host's core count (reported as host_threads in the JSON).
// Peak RSS is recorded after every shard count.
//
// Modes:
//   (no args)            full-scale table to stdout
//   --scale=small        reduced rows (CI smoke on shared runners)
//   --json[=FILE]        also write machine-readable BENCH_fleet.json
//   --check-schema=FILE  no benching: verify FILE carries every key this
//                        binary emits (schema-drift guard for the committed
//                        BENCH_fleet.json); exit 1 on drift.

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/rank_kernel.hpp"
#include "core/sharded_engine.hpp"
#include "experiments/campaign.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace msol;

// Keeps simulate() results observable without google-benchmark.
volatile double g_sink = 0.0;

/// Peak resident set of this process so far, in kilobytes.
long peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

struct Row {
  const char* policy;
  int slaves;
  int tasks;
  int reps;  // best-of-reps
};

struct RowResult {
  Row row;
  double calendar_eps = 0.0;  // events/sec, default engine
  double kernel_scalar_mps = 0.0;  // completion_batch, million probes/sec
  double kernel_simd_mps = 0.0;    // completion_batch_simd, same input
  double setup_sec = 0.0;     // platform + workload generation
  long rss_peak_kb = 0;       // process peak RSS after this row
  double kernel_speedup() const {
    return kernel_scalar_mps > 0.0 ? kernel_simd_mps / kernel_scalar_mps : 0.0;
  }
};

/// One sharded-engine comparison: the same instance as a single K=1
/// one-port engine vs `shards` one-port clusters (hash routing).
struct ShardedRow {
  const char* policy;
  int slaves;
  int tasks;
  int shards;
  int reps;
};

struct ShardedResult {
  ShardedRow row;
  double k1_eps = 0.0;       // events/sec, ShardedEngine with K=1
  double sharded_eps = 0.0;  // events/sec, K=row.shards, shard_threads=1
  double sharded_t2_eps = 0.0;  // same run, shard_threads=2
  double sharded_t4_eps = 0.0;  // same run, shard_threads=4
  long rss_peak_kb = 0;      // process peak RSS after this shard count
  double speedup() const { return k1_eps > 0.0 ? sharded_eps / k1_eps : 0.0; }
  double thread_speedup() const {
    return sharded_eps > 0.0 ? sharded_t4_eps / sharded_eps : 0.0;
  }
};

/// Best-of-reps engine throughput. The scheduler is constructed inside
/// (stateful policies must start fresh per rep) but the timed region covers
/// only simulate().
double best_events_per_sec(const platform::Platform& plat,
                           const core::Workload& work, const char* policy,
                           int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto scheduler = algorithms::make_scheduler(policy);
    const auto start = std::chrono::steady_clock::now();
    g_sink = core::simulate(plat, work, *scheduler).makespan();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() > 0.0)
      best = std::max(best, work.size() / elapsed.count());
  }
  return best;
}

/// Million completion probes per second over a static m-slave view —
/// scalar completion_batch when `simd` is false, completion_batch_simd
/// when true. Deterministic inputs; both forms produce bit-identical
/// output (asserted by tests/test_rank_kernel_simd.cpp), so this measures
/// throughput only.
double kernel_probes_mps(int m, bool simd) {
  util::Rng rng(1234);
  std::vector<core::Time> comm(m), comp(m), ready(m), out(m);
  for (int j = 0; j < m; ++j) {
    comm[j] = rng.uniform(0.1, 10.0);
    comp[j] = rng.uniform(1.0, 100.0);
    ready[j] = rng.uniform(0.0, 50.0);
  }
  core::SlaveStateView view;
  view.comm = comm.data();
  view.comp = comp.data();
  view.ready = ready.data();
  view.m = m;
  // Repeat until the timed region is long enough to trust (~20 ms).
  long long iters = 0;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::duration<double> elapsed{0.0};
  do {
    for (int r = 0; r < 64; ++r) {
      if (simd) {
        core::completion_batch_simd(view, 25.0, 30.0, 1.0, 1.0, out.data());
      } else {
        core::completion_batch(view, 25.0, 30.0, 1.0, 1.0, out.data());
      }
      g_sink = out[m - 1];
      ++iters;
    }
    elapsed = std::chrono::steady_clock::now() - start;
  } while (elapsed.count() < 0.02);
  return elapsed.count() > 0.0
             ? iters * static_cast<double>(m) / elapsed.count() / 1e6
             : 0.0;
}

RowResult run_row(const Row& row) {
  RowResult out;
  out.row = row;

  const auto setup_start = std::chrono::steady_clock::now();
  util::Rng prng(42);
  const platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, row.slaves, prng);
  util::Rng wrng(7);
  const double rate = 0.9 * experiments::max_throughput(plat);
  const core::Workload work = core::Workload::poisson(row.tasks, rate, wrng);
  out.setup_sec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - setup_start)
                      .count();

  out.calendar_eps = best_events_per_sec(plat, work, row.policy, row.reps);

  out.kernel_scalar_mps = kernel_probes_mps(row.slaves, /*simd=*/false);
  out.kernel_simd_mps = kernel_probes_mps(row.slaves, /*simd=*/true);

  out.rss_peak_kb = peak_rss_kb();
  return out;
}

/// Best-of-reps throughput of a ShardedEngine run (construction + load +
/// run inside the timed region, matching best_events_per_sec which times
/// simulate() — itself engine construction + run).
double best_sharded_events_per_sec(const platform::Platform& plat,
                                   const core::Workload& work,
                                   const char* policy, int shards,
                                   int shard_threads, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    core::ShardedEngineOptions options;
    options.shards = shards;  // routing: default hash
    options.shard_threads = shard_threads;
    const auto start = std::chrono::steady_clock::now();
    core::ShardedEngine engine(
        plat, [&] { return algorithms::make_scheduler(policy); },
        std::move(options));
    engine.load(work);
    engine.run_to_completion();
    g_sink = engine.schedule().makespan();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() > 0.0)
      best = std::max(best, work.size() / elapsed.count());
  }
  return best;
}

ShardedResult run_sharded_row(const ShardedRow& row) {
  ShardedResult out;
  out.row = row;
  util::Rng prng(42);
  const platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, row.slaves, prng);
  util::Rng wrng(7);
  const double rate = 0.9 * experiments::max_throughput(plat);
  const core::Workload work = core::Workload::poisson(row.tasks, rate, wrng);

  out.k1_eps =
      best_sharded_events_per_sec(plat, work, row.policy, 1, 1, row.reps);
  out.sharded_eps = best_sharded_events_per_sec(plat, work, row.policy,
                                                row.shards, 1, row.reps);
  out.sharded_t2_eps = best_sharded_events_per_sec(plat, work, row.policy,
                                                   row.shards, 2, row.reps);
  out.sharded_t4_eps = best_sharded_events_per_sec(plat, work, row.policy,
                                                   row.shards, 4, row.reps);
  out.rss_peak_kb = peak_rss_kb();
  return out;
}

std::vector<Row> rows_for_scale(bool small) {
  if (small) {
    // CI smoke: exercises every table and the JSON schema in a few seconds;
    // throughputs at this size are not the acceptance numbers.
    return {{"LS", 64, 5000, 2}, {"RR", 128, 8000, 2}, {"LS", 128, 8000, 2}};
  }
  return {{"LS", 256, 20000, 2},
          {"RR", 1024, 50000, 2},
          {"LS", 1024, 50000, 2},
          {"RR", 4096, 100000, 1},
          {"LS", 4096, 100000, 1}};
}

std::vector<ShardedRow> sharded_rows_for_scale(bool small) {
  if (small) {
    // CI smoke: exercises the sharded path and its JSON keys in seconds.
    return {{"LS", 256, 8000, 4, 2}};
  }
  // 16384 slaves is past where the single engine's O(m) per-decision cost
  // dominates; rows ascend in shard count so rss_peak_kb stays the
  // monotone per-shard-count peak.
  return {{"LS", 16384, 60000, 4, 1},
          {"LS", 16384, 60000, 16, 1},
          {"RR", 16384, 60000, 16, 1}};
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string to_json(const std::vector<RowResult>& results,
                    const std::vector<ShardedResult>& sharded, bool small) {
  std::string json = "{\"bench\":\"fleet_scale\",\"unit\":\"events/sec\"";
  json += ",\"scale\":\"" + std::string(small ? "small" : "full") + "\"";
  json += ",\"simd_available\":";
  json += core::rank_kernel_simd_available() ? "true" : "false";
  json += ",\"avx512_available\":";
  json += core::rank_kernel_avx512_available() ? "true" : "false";
  json += ",\"host_threads\":" +
          std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  json += ",\"cases\":[";
  bool first = true;
  for (const RowResult& r : results) {
    if (!first) json += ',';
    first = false;
    json += "{\"policy\":\"" + std::string(r.row.policy) + "\"";
    json += ",\"slaves\":" + std::to_string(r.row.slaves);
    json += ",\"tasks\":" + std::to_string(r.row.tasks);
    json += ",\"events_per_sec_calendar\":" + fmt(r.calendar_eps);
    json += ",\"kernel_scalar_mprobes\":" + fmt(r.kernel_scalar_mps);
    json += ",\"kernel_simd_mprobes\":" + fmt(r.kernel_simd_mps);
    json += ",\"kernel_simd_speedup\":" + fmt(r.kernel_speedup());
    json += ",\"setup_sec\":" + fmt(r.setup_sec);
    json += ",\"rss_peak_kb\":" + std::to_string(r.rss_peak_kb) + "}";
  }
  json += "],\"sharded\":[";
  first = true;
  for (const ShardedResult& r : sharded) {
    if (!first) json += ',';
    first = false;
    json += "{\"policy\":\"" + std::string(r.row.policy) + "\"";
    json += ",\"slaves\":" + std::to_string(r.row.slaves);
    json += ",\"tasks\":" + std::to_string(r.row.tasks);
    json += ",\"shards\":" + std::to_string(r.row.shards);
    json += ",\"routing\":\"hash\"";
    json += ",\"events_per_sec_k1\":" + fmt(r.k1_eps);
    json += ",\"events_per_sec_sharded\":" + fmt(r.sharded_eps);
    json += ",\"events_per_sec_sharded_t2\":" + fmt(r.sharded_t2_eps);
    json += ",\"events_per_sec_sharded_t4\":" + fmt(r.sharded_t4_eps);
    json += ",\"sharded_speedup\":" + fmt(r.speedup());
    json += ",\"shard_threads_speedup\":" + fmt(r.thread_speedup());
    json += ",\"rss_peak_kb\":" + std::to_string(r.rss_peak_kb) + "}";
  }
  json += "]}";
  return json;
}

/// Every key the JSON emitter above writes; --check-schema fails if the
/// committed artifact is missing any of them (i.e. the schema drifted
/// without the artifact being regenerated).
const char* const kSchemaKeys[] = {
    "\"bench\":\"fleet_scale\"", "\"unit\":\"events/sec\"",
    "\"scale\":",                "\"cases\":",
    "\"policy\":",               "\"slaves\":",
    "\"tasks\":",                "\"events_per_sec_calendar\":",
    "\"setup_sec\":",            "\"rss_peak_kb\":",
    "\"simd_available\":",       "\"kernel_scalar_mprobes\":",
    "\"kernel_simd_mprobes\":",  "\"kernel_simd_speedup\":",
    "\"sharded\":",              "\"shards\":",
    "\"routing\":",              "\"events_per_sec_k1\":",
    "\"events_per_sec_sharded\":", "\"sharded_speedup\":",
    "\"events_per_sec_sharded_t2\":", "\"events_per_sec_sharded_t4\":",
    "\"shard_threads_speedup\":", "\"avx512_available\":",
    "\"host_threads\":",
};

int check_schema(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_fleet_scale: cannot read " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  int missing = 0;
  for (const char* key : kSchemaKeys) {
    if (contents.find(key) == std::string::npos) {
      std::cerr << "schema drift: " << path << " is missing " << key << "\n";
      ++missing;
    }
  }
  if (missing == 0) std::cout << path << ": schema OK\n";
  return missing == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  bool json = false;
  std::string json_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale=small") {
      small = true;
    } else if (arg == "--scale=full") {
      small = false;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
    } else if (arg.rfind("--check-schema=", 0) == 0) {
      return check_schema(arg.substr(15));
    } else {
      std::cerr << "usage: bench_fleet_scale [--scale=small|full] "
                   "[--json[=FILE]] [--check-schema=FILE]\n";
      return 1;
    }
  }

  std::vector<RowResult> results;
  for (const Row& row : rows_for_scale(small)) {
    RowResult r = run_row(row);
    std::cout << r.row.policy << " m=" << r.row.slaves << " n=" << r.row.tasks
              << ": " << r.calendar_eps << " ev/s, kernel "
              << r.kernel_scalar_mps << " -> " << r.kernel_simd_mps
              << " Mprobe/s (x" << r.kernel_speedup() << "), setup "
              << r.setup_sec << " s, peak RSS " << r.rss_peak_kb << " kb\n";
    results.push_back(r);
  }

  std::cout << "simd kernel: "
            << (core::rank_kernel_avx512_available()
                    ? "avx512"
                    : core::rank_kernel_simd_available() ? "avx2"
                                                         : "scalar fallback")
            << ", host threads: "
            << std::max(1u, std::thread::hardware_concurrency()) << "\n";

  std::vector<ShardedResult> sharded;
  for (const ShardedRow& row : sharded_rows_for_scale(small)) {
    ShardedResult r = run_sharded_row(row);
    std::cout << r.row.policy << " m=" << r.row.slaves << " n=" << r.row.tasks
              << " K=" << r.row.shards << ": single " << r.k1_eps
              << " ev/s, sharded " << r.sharded_eps << " ev/s (x"
              << r.speedup() << "), threads 1/2/4 " << r.sharded_eps << "/"
              << r.sharded_t2_eps << "/" << r.sharded_t4_eps << " ev/s (x"
              << r.thread_speedup() << "), peak RSS " << r.rss_peak_kb
              << " kb\n";
    sharded.push_back(r);
  }

  if (json) {
    std::ofstream out(json_path);
    out << to_json(results, sharded, small) << "\n";
    if (!out) {
      std::cerr << "bench_fleet_scale: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
