// msol_bench — the benchmark suite's traced in-process pass (see README.md).
//
//   msol_bench --grid=FILE --out=PREFIX [--kernel-table] [--kernel-min-s=S]
//   msol_bench --kernel-table [--kernel-min-s=S]
//
// With --grid it makes two passes over one scenario grid:
//
//   runner  ParallelRunner(threads = 1).run() with forwarding timing
//           decorators around a CsvSink and a JsonLinesSink (written to
//           PREFIX.runner.csv / PREFIX.runner.jsonl, which run.py compares
//           byte for byte with msol_run's output) and per-cell timestamps
//           from RunnerOptions::progress.
//   replay  every cell re-run from public calls in run_campaign's exact
//           order: util::Rng forks, PlatformGenerator::generate, Workload::*,
//           generate_availability, make_scheduler, simulate or ShardedEngine,
//           validate_or_throw. Every scheduler is wrapped in a forwarding
//           decorator that times decide / on_task_released (the engine still
//           hands the wrapped policy its own view, so PortfolioPolicy keeps
//           its incremental path). Spans around each layer call are kept in
//           memory and written at exit as Chrome trace_event JSON to
//           PREFIX.trace.json; the raw makespans go to PREFIX.replay.tsv,
//           which run.py compares with msol_run's JSONL makespan_raw.
//
// It then times what a pass cannot time call by call: the rank kernel at
// the grid's per-engine slave count, core::EventQueue replaying the pass's
// completion instants, and each sharded cell at 1 shard thread vs the grid's
// shard_threads, at least 2 (whose merged schedules must be identical).
// --kernel-table
// adds the scalar / AVX2 / AVX-512 kernel bodies at m = 256, 1024, 4096.
// Every microbenchmark keeps the best of kMicroReps timed regions of at
// least --kernel-min-s seconds (default 0.2).
//
// Every metric is printed as one `name value unit` line; lines starting
// with '#' are the per-spec breakdown. Exit status 1 on any failure.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/event_queue.hpp"
#include "core/rank_kernel.hpp"
#include "core/sharded_engine.hpp"
#include "core/validator.hpp"
#include "core/workload.hpp"
#include "experiments/campaign.hpp"
#include "platform/availability.hpp"
#include "platform/generator.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace msol;
using Clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;  // keeps microbench results observable
constexpr int kMicroReps = 3;  // timed regions per microbenchmark cell

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of this process, all threads included.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void print_metric(const std::string& name, double value, const char* unit) {
  std::printf("%s %.17g %s\n", name.c_str(), value, unit);
}

// ------------------------------------------------------------ histogram ----

/// Log-bucket latency histogram: exact below 8 ns, then 8 buckets per
/// octave (12.5% wide), so p50/p99 come without storing every call.
class LatencyHistogram {
 public:
  void add(std::int64_t ns) {
    ++buckets_[bucket_of(ns)];
    ++count_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
  }
  /// Midpoint of the bucket holding quantile q, in microseconds.
  double quantile_us(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_))));
    std::int64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b];
      if (seen >= rank) return bucket_mid_ns(b) / 1e3;
    }
    return bucket_mid_ns(kBuckets - 1) / 1e3;
  }

 private:
  static constexpr std::size_t kBuckets = 64 * 8;
  static std::size_t bucket_of(std::int64_t ns) {
    if (ns < 8) return static_cast<std::size_t>(std::max<std::int64_t>(ns, 0));
    const int octave = 63 - __builtin_clzll(static_cast<unsigned long long>(ns));
    const auto sub = static_cast<std::size_t>((ns >> (octave - 3)) & 7);
    return static_cast<std::size_t>(octave) * 8 + sub;
  }
  static double bucket_mid_ns(std::size_t b) {
    if (b < 8) return static_cast<double>(b);
    const int octave = static_cast<int>(b / 8);
    return (8.0 + static_cast<double>(b % 8) + 0.5) * std::ldexp(1.0, octave - 3);
  }
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
};

// ---------------------------------------------------- scheduler decorator --

struct DecideStats {
  std::int64_t decide_ns = 0;
  std::int64_t released_ns = 0;
  long long calls = 0;
  long long assigns = 0;
  LatencyHistogram latency;

  void merge(const DecideStats& other) {
    decide_ns += other.decide_ns;
    released_ns += other.released_ns;
    calls += other.calls;
    assigns += other.assigns;
    latency.merge(other.latency);
  }
  double decorated_s() const { return (decide_ns + released_ns) * 1e-9; }
};

/// Forwards every call to the wrapped policy, timing decide() and
/// on_task_released() and recording which Decision kind came back.
class TimedScheduler final : public core::OnlineScheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<core::OnlineScheduler> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  core::Decision decide(const core::EngineView& engine) override {
    const auto start = Clock::now();
    core::Decision decision = inner_->decide(engine);
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count();
    stats_.decide_ns += ns;
    ++stats_.calls;
    if (std::holds_alternative<core::Assign>(decision)) ++stats_.assigns;
    stats_.latency.add(ns);
    return decision;
  }

  void on_task_released(const core::EngineView& engine,
                        core::TaskId task) override {
    const auto start = Clock::now();
    inner_->on_task_released(engine, task);
    stats_.released_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count();
  }

  void reset() override { inner_->reset(); }

  const core::OnlineScheduler& inner() const { return *inner_; }
  const DecideStats& stats() const { return stats_; }

 private:
  std::unique_ptr<core::OnlineScheduler> inner_;
  DecideStats stats_;
};

// ---------------------------------------------------------------- tracer --

/// In-memory span recorder for one thread. A span's self time is its
/// duration minus what its child spans, and any time handed to
/// add_child_time(), cover; self times are summed per span name.
class Tracer {
 public:
  /// Opens a span for the lifetime of the scope; a null tracer records
  /// nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::size_t cell)
        : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->open(name, cell);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Moves `seconds` of the innermost open span's time to layer `layer`
  /// (time spent in calls the span made that are aggregated rather than
  /// recorded as spans, such as decorated decide() calls).
  void add_child_time(const char* layer, double seconds) {
    spans_[static_cast<std::size_t>(stack_.back())].child_s += seconds;
    self_s_[layer] += seconds;
  }
  /// Appends `key: value` to the innermost open span's args.
  void annotate(const std::string& key, double value) {
    std::string& args = spans_[static_cast<std::size_t>(stack_.back())].args;
    args += ",\"" + key + "\":" + util::fmt_exact(value);
  }

  const std::map<std::string, double>& self_seconds() const { return self_s_; }

  /// Chrome trace_event JSON (opens in Perfetto / chrome://tracing). Each
  /// event's args carry its span id, its parent's, and its cell index.
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << util::fmt_exact(s.start_s * 1e6)
          << ",\"dur\":" << util::fmt_exact(s.dur_s * 1e6)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"cell\":" << s.cell
          << ",\"self_us\":" << util::fmt_exact((s.dur_s - s.child_s) * 1e6)
          << s.args << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  struct Span {
    const char* name;
    std::size_t cell;
    int parent;
    double start_s;
    double dur_s = 0.0;
    double child_s = 0.0;
    std::string args;
  };

  void open(const char* name, std::size_t cell) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, cell, parent, since(origin_), 0.0, 0.0, {}});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
  }
  void close() {
    Span& span = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    span.dur_s = since(origin_) - span.start_s;
    self_s_[span.name] += span.dur_s - span.child_s;
    if (span.parent >= 0) {
      spans_[static_cast<std::size_t>(span.parent)].child_s += span.dur_s;
    }
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> self_s_;
};

/// Runs fn() inside a span and returns its result.
template <class Fn>
auto in_span(Tracer* tracer, const char* name, std::size_t cell, Fn&& fn) {
  Tracer::Scope scope(tracer, name, cell);
  return fn();
}

// -------------------------------------------- run_campaign's input draws --
//
// Mirrors of experiments/campaign.cpp's internal helpers (make_arrivals,
// shape_workload, make_engine_options), built from the same public calls
// in the same order. If they drift from the library, the replay's makespans
// stop matching msol_run's and run.py reports the records as failed.

core::Workload make_arrivals(const experiments::CampaignConfig& config,
                             const platform::Platform& plat, util::Rng& rng) {
  using experiments::ArrivalProcess;
  const double rate = config.load * experiments::max_throughput(plat);
  switch (config.arrival) {
    case ArrivalProcess::kAllAtZero:
      return core::Workload::all_at_zero(config.num_tasks);
    case ArrivalProcess::kPoisson:
      return core::Workload::poisson(config.num_tasks, rate, rng);
    case ArrivalProcess::kBursty: {
      const int burst = 25;
      return core::Workload::bursty(config.num_tasks, burst,
                                    static_cast<double>(burst) / rate, rng);
    }
    case ArrivalProcess::kInhomogeneous:
      return core::Workload::inhomogeneous_poisson(
          config.num_tasks, rate, config.ipp_amplitude,
          config.ipp_period_tasks / rate, rng);
  }
  throw std::logic_error("make_arrivals: unknown arrival process");
}

core::Workload shape_workload(const experiments::CampaignConfig& config,
                              core::Workload workload, util::Rng& rng) {
  switch (config.size_mix) {
    case experiments::TaskSizeMix::kUnit:
      break;
    case experiments::TaskSizeMix::kPareto:
      workload = workload.with_pareto_sizes(1.5, 20.0, rng);
      break;
    case experiments::TaskSizeMix::kLognormal:
      workload = workload.with_lognormal_noise(0.4, 0.4, rng);
      break;
  }
  if (config.size_jitter > 0.0) {
    workload = workload.with_size_jitter(config.size_jitter, rng);
  }
  return workload;
}

core::EngineOptions make_engine_options(
    const experiments::CampaignConfig& config, const platform::Platform& plat,
    util::Rng& rng) {
  core::EngineOptions options;
  options.port_capacity = config.port_capacity;
  if (config.avail != platform::AvailabilityModel::kAlways) {
    const double rate = config.load * experiments::max_throughput(plat);
    options.availability = platform::generate_availability(
        config.avail, config.num_slaves, config.mtbf_tasks / rate,
        config.outage_frac, 4.0 * config.num_tasks / rate, rng);
  }
  return options;
}

/// One platform repetition's inputs.
struct RepInputs {
  platform::Platform plat;
  core::Workload workload;
  core::EngineOptions options;
};

/// Draws the inputs of the repetition whose stream `rep_rng` is, each step
/// in its own span when `tracer` is set.
RepInputs draw_rep(const experiments::CampaignConfig& config,
                   const platform::PlatformGenerator& generator,
                   util::Rng& rep_rng, Tracer* tracer, std::size_t cell) {
  platform::Platform plat = in_span(tracer, "platform.generate", cell, [&] {
    return generator.generate(config.platform_class, config.num_slaves,
                              rep_rng);
  });
  core::Workload workload = in_span(tracer, "core.workload", cell, [&] {
    return shape_workload(config, make_arrivals(config, plat, rep_rng),
                          rep_rng);
  });
  core::EngineOptions options = in_span(tracer, "platform.avail_gen", cell,
                                        [&] {
    return make_engine_options(config, plat, rep_rng);
  });
  return RepInputs{std::move(plat), std::move(workload), std::move(options)};
}

core::ShardedEngineOptions sharded_options(
    const experiments::CampaignConfig& config,
    const core::EngineOptions& options, int shard_threads) {
  core::ShardedEngineOptions sharded;
  sharded.shards = config.engine_shards;
  sharded.routing = core::parse_shard_routing(config.shard_routing);
  sharded.shard_threads = shard_threads;
  sharded.engine = options;
  return sharded;
}

std::vector<std::string> spec_names(const experiments::CampaignConfig& config) {
  return config.algorithms.empty() ? algorithms::paper_algorithm_names()
                                   : config.algorithms;
}

// ----------------------------------------------------------- runner pass --

/// Forwards to a sink, adding the time each call takes to `seconds`.
class TimedSink final : public runner::ResultSink {
 public:
  TimedSink(runner::ResultSink& inner, double& seconds)
      : inner_(inner), seconds_(seconds) {}
  void consume(const runner::ResultRecord& record) override {
    const auto start = Clock::now();
    inner_.consume(record);
    seconds_ += since(start);
  }
  void cell_complete(std::size_t cell_index, std::size_t records) override {
    const auto start = Clock::now();
    inner_.cell_complete(cell_index, records);
    seconds_ += since(start);
  }
  void close() override {
    const auto start = Clock::now();
    inner_.close();
    seconds_ += since(start);
  }

 private:
  runner::ResultSink& inner_;
  double& seconds_;
};

struct RunnerPass {
  double wall_s = 0.0;
  double grid_load_s = 0.0;
  double sink_s = 0.0;
  double output_bytes = 0.0;
  std::vector<double> cell_ms;
};

RunnerPass runner_pass(const std::string& grid_path, const std::string& out) {
  RunnerPass pass;
  std::vector<double> loads;
  for (int i = 0; i < 15; ++i) {
    const auto start = Clock::now();
    const runner::ScenarioGrid grid = runner::load_grid(grid_path);
    loads.push_back(since(start));
    g_sink = static_cast<double>(grid.seed);
  }
  pass.grid_load_s = median_of(loads);

  const auto start = Clock::now();
  const runner::ScenarioGrid grid = runner::load_grid(grid_path);
  std::ofstream csv(out + ".runner.csv", std::ios::binary);
  std::ofstream jsonl(out + ".runner.jsonl", std::ios::binary);
  runner::CsvSink csv_sink(csv);
  runner::JsonLinesSink jsonl_sink(jsonl);
  TimedSink timed_csv(csv_sink, pass.sink_s);
  TimedSink timed_jsonl(jsonl_sink, pass.sink_s);
  runner::RunnerOptions options;
  options.threads = 1;
  double last_s = 0.0;
  options.progress = [&](std::size_t, std::size_t) {
    const double now_s = since(start);
    pass.cell_ms.push_back((now_s - last_s) * 1e3);
    last_s = now_s;
  };
  runner::ParallelRunner(options).run(grid, {&timed_csv, &timed_jsonl});
  pass.wall_s = since(start);
  pass.output_bytes = static_cast<double>(
      static_cast<std::streamoff>(csv.tellp()) +
      static_cast<std::streamoff>(jsonl.tellp()));
  if (!csv || !jsonl) throw std::runtime_error("cannot write runner output");
  return pass;
}

// ----------------------------------------------------------- replay pass --

struct SpecTotals {
  double decide_s = 0.0;
  long long calls = 0;
  double validate_s = 0.0;
};

/// A sharded (cell, repetition, spec) to re-run in the thread-scaling phase.
struct ShardedRun {
  std::size_t cell_pos;
  int rep;
  std::string name;
};

struct ReplayPass {
  double wall_s = 0.0;
  DecideStats plain;    ///< non-meta specs, every engine and shard
  DecideStats meta;     ///< meta specs
  DecideStats sharded;  ///< sharded cells' per-shard decorators
  long long meta_decisions = 0;
  long long meta_switches = 0;
  long long resyncs = 0;
  long long rebuilds = 0;
  long long redispatches = 0;
  long long avail_spans = 0;
  double sharded_setup_s = 0.0;
  double sharded_run_s = 0.0;
  double sharded_run_cpu_s = 0.0;
  double task_imbalance = 0.0;
  int max_engine_slaves = 0;
  std::map<std::string, double> self_s;
  std::map<std::string, SpecTotals> per_spec;
  std::vector<ShardedRun> sharded_runs;
  /// (send_start, comp_end) per committed task, one vector per engine run,
  /// in send order: the completion instants the event-queue bench replays.
  std::vector<std::vector<std::pair<core::Time, core::Time>>> queue_runs;
};

/// Strides the schedules whose completion instants are kept so the
/// event-queue replay holds at most ~400k of them.
class QueueSampler {
 public:
  explicit QueueSampler(double expected_records)
      : stride_(std::max<long long>(
            1, static_cast<long long>(std::ceil(expected_records / 4e5)))) {}
  void offer(const core::Schedule& schedule, ReplayPass& pass) {
    if (seen_++ % stride_ != 0) return;
    std::vector<std::pair<core::Time, core::Time>> run;
    run.reserve(schedule.records().size());
    for (const core::TaskRecord& r : schedule.records()) {
      run.emplace_back(r.send_start, r.comp_end);
    }
    std::sort(run.begin(), run.end());
    pass.queue_runs.push_back(std::move(run));
  }

 private:
  long long stride_;
  long long seen_ = 0;
};

void collect_meta(const core::OnlineScheduler& inner, ReplayPass& pass) {
  const auto* meta = dynamic_cast<const algorithms::meta::MetaPolicy*>(&inner);
  if (meta == nullptr) return;
  pass.meta_switches += meta->switches();
  const auto* portfolio =
      dynamic_cast<const algorithms::meta::PortfolioPolicy*>(&inner);
  if (portfolio == nullptr) return;
  pass.meta_decisions += portfolio->decisions();
  if (portfolio->projection() != nullptr) {
    pass.resyncs += portfolio->projection()->resyncs();
    pass.rebuilds += portfolio->projection()->rebuilds();
  }
}

bool is_meta(const core::OnlineScheduler& inner) {
  return dynamic_cast<const algorithms::meta::MetaPolicy*>(&inner) != nullptr;
}

void replay_unsharded(const experiments::CampaignConfig& config,
                      const RepInputs& in, const std::string& name,
                      std::size_t cell, Tracer& tracer, ReplayPass& pass,
                      QueueSampler& sampler, core::Schedule& schedule) {
  std::unique_ptr<core::OnlineScheduler> made =
      in_span(&tracer, "algorithms.make", cell, [&] {
        return algorithms::make_scheduler(name, config.lookahead);
      });
  TimedScheduler timed(std::move(made));
  const bool meta = is_meta(timed.inner());
  core::DisruptionStats disruption;
  {
    Tracer::Scope span(&tracer, "core.simulate", cell);
    schedule = core::simulate(in.plat, in.workload, timed, in.options,
                              &disruption);
    tracer.add_child_time(meta ? "meta.decide" : "algorithms.decide",
                          timed.stats().decide_ns * 1e-9);
    tracer.add_child_time("algorithms.released",
                          timed.stats().released_ns * 1e-9);
    tracer.annotate("decide_calls", static_cast<double>(timed.stats().calls));
  }
  const auto validate_start = Clock::now();
  {
    Tracer::Scope span(&tracer, "core.validator", cell);
    core::validate_or_throw(in.plat, in.workload, schedule, in.options);
  }
  SpecTotals& spec = pass.per_spec[name];
  spec.validate_s += since(validate_start);
  spec.decide_s += timed.stats().decide_ns * 1e-9;
  spec.calls += timed.stats().calls;
  (meta ? pass.meta : pass.plain).merge(timed.stats());
  collect_meta(timed.inner(), pass);
  pass.redispatches += disruption.redispatches;
  sampler.offer(schedule, pass);
}

/// Decorated per-shard schedulers of one ShardedEngine, in shard order.
struct ShardedSchedulers {
  std::vector<const TimedScheduler*> timed;
  DecideStats total() const {
    DecideStats sum;
    for (const TimedScheduler* t : timed) sum.merge(t->stats());
    return sum;
  }
};

core::SchedulerFactory timed_factory(const std::string& name, int lookahead,
                                     ShardedSchedulers& out, Tracer* tracer,
                                     std::size_t cell) {
  return [&out, name, lookahead, tracer, cell] {
    auto timed = std::make_unique<TimedScheduler>(
        in_span(tracer, "algorithms.make", cell, [&] {
          return algorithms::make_scheduler(name, lookahead);
        }));
    out.timed.push_back(timed.get());
    return std::unique_ptr<core::OnlineScheduler>(std::move(timed));
  };
}

void replay_sharded(const experiments::CampaignConfig& config,
                    const RepInputs& in, const std::string& name,
                    std::size_t cell, Tracer& tracer, ReplayPass& pass,
                    QueueSampler& sampler, core::Schedule& schedule) {
  ShardedSchedulers schedulers;
  const auto setup_start = Clock::now();
  std::unique_ptr<core::ShardedEngine> sharded =
      in_span(&tracer, "core.sharded.setup", cell, [&] {
        auto engine = std::make_unique<core::ShardedEngine>(
            in.plat,
            timed_factory(name, config.lookahead, schedulers, &tracer, cell),
            sharded_options(config, in.options, config.shard_threads));
        engine->load(in.workload);
        return engine;
      });
  pass.sharded_setup_s += since(setup_start);

  const double cpu_start = process_cpu_s();
  const auto run_start = Clock::now();
  {
    Tracer::Scope span(&tracer, "core.sharded.run", cell);
    sharded->run_to_completion();
  }
  pass.sharded_run_s += since(run_start);
  pass.sharded_run_cpu_s += process_cpu_s() - cpu_start;

  const auto validate_start = Clock::now();
  {
    Tracer::Scope span(&tracer, "core.validator", cell);
    for (int k = 0; k < sharded->num_shards(); ++k) {
      core::validate_or_throw(sharded->partition().shard_platform(k),
                              sharded->shard_workload(k),
                              sharded->shard_engine(k).schedule(),
                              sharded->shard_options(k));
    }
  }

  const DecideStats stats = schedulers.total();
  SpecTotals& spec = pass.per_spec[name];
  spec.validate_s += since(validate_start);
  spec.decide_s += stats.decide_ns * 1e-9;
  spec.calls += stats.calls;
  const bool meta = is_meta(schedulers.timed.front()->inner());
  (meta ? pass.meta : pass.plain).merge(stats);
  pass.sharded.merge(stats);
  int most = 0;
  int least = -1;
  for (int k = 0; k < sharded->num_shards(); ++k) {
    collect_meta(schedulers.timed[static_cast<std::size_t>(k)]->inner(), pass);
    sampler.offer(sharded->shard_engine(k).schedule(), pass);
    const int tasks = sharded->shard_workload(k).size();
    most = std::max(most, tasks);
    least = least < 0 ? tasks : std::min(least, tasks);
  }
  if (least > 0) {
    pass.task_imbalance = std::max(pass.task_imbalance,
                                   static_cast<double>(most) / least);
  }
  pass.redispatches += sharded->disruption().redispatches;
  schedule = sharded->schedule();
}

ReplayPass replay_pass(const runner::ScenarioGrid& grid,
                       const std::string& out) {
  ReplayPass pass;
  const std::vector<runner::ScenarioSpec> cells = runner::expand(grid);
  double expected_records = 0.0;
  for (const runner::ScenarioSpec& cell : cells) {
    const experiments::CampaignConfig& c = cell.config;
    expected_records += static_cast<double>(c.num_platforms) * c.num_tasks *
                        static_cast<double>(spec_names(c).size());
    const int shards = std::max(1, c.engine_shards);
    pass.max_engine_slaves = std::max(pass.max_engine_slaves,
                                      (c.num_slaves + shards - 1) / shards);
  }
  QueueSampler sampler(expected_records);
  std::ofstream makespans(out + ".replay.tsv", std::ios::binary);

  Tracer tracer;
  const auto start = Clock::now();
  {
    Tracer::Scope root(&tracer, "replay", 0);
    for (std::size_t pos = 0; pos < cells.size(); ++pos) {
      const runner::ScenarioSpec& cell = cells[pos];
      const experiments::CampaignConfig& config = cell.config;
      Tracer::Scope cell_span(&tracer, "cell", cell.index);
      const std::vector<std::string> names = spec_names(config);
      util::Rng rng(config.seed);
      const platform::PlatformGenerator generator(config.ranges);
      for (int rep = 0; rep < config.num_platforms; ++rep) {
        Tracer::Scope rep_span(&tracer, "platform_rep", cell.index);
        util::Rng rep_rng = rng.fork();
        const RepInputs in =
            draw_rep(config, generator, rep_rng, &tracer, cell.index);
        for (const platform::AvailabilityProfile& p : in.options.availability) {
          pass.avail_spans += static_cast<long long>(p.spans().size());
        }
        for (const std::string& name : names) {
          Tracer::Scope spec_span(&tracer, "spec", cell.index);
          core::Schedule schedule;
          if (config.engine_shards <= 1) {
            replay_unsharded(config, in, name, cell.index, tracer, pass,
                             sampler, schedule);
          } else {
            replay_sharded(config, in, name, cell.index, tracer, pass, sampler,
                           schedule);
            pass.sharded_runs.push_back(ShardedRun{pos, rep, name});
          }
          makespans << cell.index << '\t' << name << '\t' << rep << '\t'
                    << util::fmt_exact(schedule.makespan()) << '\n';
        }
      }
    }
  }
  pass.wall_s = since(start);
  pass.self_s = tracer.self_seconds();
  tracer.write(out + ".trace.json");
  if (!makespans) throw std::runtime_error("cannot write replay makespans");
  return pass;
}

// ------------------------------------------------- sharded thread scaling --

/// The shard threads the scaling phase compares with 1: the grid's
/// shard_threads, and at least 2, so a grid that runs its shards on one
/// thread still measures the pool.
int scaled_shard_threads(const experiments::CampaignConfig& config) {
  return std::max(2, config.shard_threads);
}

struct ShardedScaling {
  double run_1_s = 0.0;  ///< run_to_completion at 1 shard thread
  double run_n_s = 0.0;  ///< ... at scaled_shard_threads()
  double engine_self_1_s = 0.0;  ///< run_1_s minus decorated policy time
  std::map<std::string, std::pair<double, double>> per_avail;  ///< (1, n)
};

bool same_schedule(const core::Schedule& a, const core::Schedule& b) {
  if (a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    const core::TaskRecord& x = a.at(i);
    const core::TaskRecord& y = b.at(i);
    if (x.task != y.task || x.slave != y.slave || x.release != y.release ||
        x.send_start != y.send_start || x.send_end != y.send_end ||
        x.comp_start != y.comp_start || x.comp_end != y.comp_end) {
      return false;
    }
  }
  return true;
}

/// Re-runs each sharded (cell, repetition, spec) of the replay at 1 shard
/// thread and at scaled_shard_threads(), back to back, outside any span.
/// Throws if the two merged schedules differ.
ShardedScaling sharded_scaling(const std::vector<runner::ScenarioSpec>& cells,
                               const std::vector<ShardedRun>& runs) {
  ShardedScaling scaling;
  for (const ShardedRun& run : runs) {
    const experiments::CampaignConfig& config = cells[run.cell_pos].config;
    util::Rng rng(config.seed);
    util::Rng rep_rng = rng.fork();
    for (int r = 0; r < run.rep; ++r) rep_rng = rng.fork();
    const platform::PlatformGenerator generator(config.ranges);
    const RepInputs in = draw_rep(config, generator, rep_rng, nullptr, 0);

    core::Schedule schedules[2];
    double seconds[2] = {0.0, 0.0};
    const int threads[2] = {1, scaled_shard_threads(config)};
    for (int t = 0; t < 2; ++t) {
      ShardedSchedulers schedulers;
      core::ShardedEngine sharded(
          in.plat,
          timed_factory(run.name, config.lookahead, schedulers, nullptr, 0),
          sharded_options(config, in.options, threads[t]));
      sharded.load(in.workload);
      const auto start = Clock::now();
      sharded.run_to_completion();
      seconds[t] = since(start);
      schedules[t] = sharded.schedule();
      if (t == 0) {
        scaling.engine_self_1_s +=
            std::max(0.0, seconds[t] - schedulers.total().decorated_s());
      }
    }
    if (!same_schedule(schedules[0], schedules[1])) {
      throw std::runtime_error("sharded cell " +
                               std::to_string(cells[run.cell_pos].index) +
                               ": merged schedule differs between 1 and " +
                               std::to_string(threads[1]) +
                               " shard threads");
    }
    scaling.run_1_s += seconds[0];
    scaling.run_n_s += seconds[1];
    auto& avail = scaling.per_avail[platform::to_string(config.avail)];
    avail.first += seconds[0];
    avail.second += seconds[1];
  }
  return scaling;
}

// -------------------------------------------------------- microbenchmarks --

/// Million completion probes per second through one pinned kernel body over
/// a static m-slave view, over one timed region of at least `min_s` seconds.
/// Deterministic inputs, as in bench_fleet_scale.
double kernel_mprobes(core::RankKernelWidth width, int m, double min_s) {
  util::Rng rng(1234);
  std::vector<core::Time> comm(static_cast<std::size_t>(m));
  std::vector<core::Time> comp(comm.size());
  std::vector<core::Time> ready(comm.size());
  std::vector<core::Time> out(comm.size());
  for (std::size_t j = 0; j < comm.size(); ++j) {
    comm[j] = rng.uniform(0.1, 10.0);
    comp[j] = rng.uniform(1.0, 100.0);
    ready[j] = rng.uniform(0.0, 50.0);
  }
  core::SlaveStateView view;
  view.comm = comm.data();
  view.comp = comp.data();
  view.ready = ready.data();
  view.m = m;
  long long calls = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    for (int r = 0; r < 64; ++r) {
      core::completion_batch_width(width, view, 25.0, 30.0, 1.0, 1.0,
                                   out.data());
      g_sink = out[comm.size() - 1];
      ++calls;
    }
    elapsed = since(start);
  } while (elapsed < min_s);
  return static_cast<double>(calls) * m / elapsed / 1e6;
}

int dispatched_lanes() {
  if (core::rank_kernel_avx512_available()) return 8;
  return core::rank_kernel_simd_available() ? 4 : 1;
}

/// Nanoseconds per push or pop of core::EventQueue replaying each engine
/// run's completion instants: an instant is pushed when its task's send
/// starts, after popping every instant at or before that send (the engine's
/// pattern), best of kMicroReps timed regions of at least `min_s` seconds.
double event_queue_ns_per_op(
    const std::vector<std::vector<std::pair<core::Time, core::Time>>>& runs,
    double min_s) {
  double best = 0.0;
  core::EventQueue queue;
  for (int r = 0; r < kMicroReps; ++r) {
    long long ops = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
      for (const auto& run : runs) {
        queue.clear();
        for (const auto& [send, end] : run) {
          while (!queue.empty() && queue.top().time <= send) {
            queue.pop();
            ++ops;
          }
          queue.push(end, core::EventKind::kCompletion);
          ++ops;
        }
        while (!queue.empty()) {
          g_sink = queue.top().time;
          queue.pop();
          ++ops;
        }
      }
      elapsed = since(start);
    } while (elapsed < min_s && ops > 0);
    if (ops > 0) {
      const double ns = elapsed * 1e9 / static_cast<double>(ops);
      best = best == 0.0 ? ns : std::min(best, ns);
    }
  }
  return best;
}

/// The satellite table: every kernel body at m = 256, 1024, 4096, rounds
/// interleaved across (m, body), best of kMicroReps per cell.
void kernel_table(double min_s) {
  const int sizes[] = {256, 1024, 4096};
  const std::pair<core::RankKernelWidth, const char*> bodies[] = {
      {core::RankKernelWidth::kScalar, "scalar"},
      {core::RankKernelWidth::kAvx2, "avx2"},
      {core::RankKernelWidth::kAvx512, "avx512"}};
  std::map<std::string, double> best;
  for (int r = 0; r < kMicroReps; ++r) {
    for (int m : sizes) {
      for (const auto& [width, body] : bodies) {
        const std::string key = "core.rank_kernel.m" + std::to_string(m) +
                                "." + body + "_mprobes_per_s";
        best[key] = std::max(best[key], kernel_mprobes(width, m, min_s));
      }
    }
  }
  for (const auto& [key, value] : best) print_metric(key, value, "Mprobes/s");
}

// ------------------------------------------------------------------ main --

void print_pass_metrics(const RunnerPass& runner, const ReplayPass& replay,
                        const ShardedScaling& scaling, double kernel_auto,
                        double kernel_scalar, double queue_ns) {
  const auto self = [&](const char* layer) {
    const auto it = replay.self_s.find(layer);
    return it == replay.self_s.end() ? 0.0 : it->second;
  };

  print_metric("algorithms.decide_s", replay.plain.decide_ns * 1e-9, "s");
  print_metric("algorithms.decide_us_p50", replay.plain.latency.quantile_us(0.5),
               "us");
  print_metric("algorithms.decide_us_p99",
               replay.plain.latency.quantile_us(0.99), "us");
  print_metric("algorithms.decide_calls",
               static_cast<double>(replay.plain.calls), "count");
  const long long all_calls = replay.plain.calls + replay.meta.calls;
  print_metric("algorithms.assign_ratio",
               all_calls > 0 ? static_cast<double>(replay.plain.assigns +
                                                   replay.meta.assigns) /
                                   all_calls
                             : 0.0,
               "ratio");
  print_metric("algorithms.released_s",
               (replay.plain.released_ns + replay.meta.released_ns) * 1e-9, "s");
  print_metric("algorithms.make_s", self("algorithms.make"), "s");

  print_metric("meta.decide_s", replay.meta.decide_ns * 1e-9, "s");
  print_metric("meta.decide_us_p50", replay.meta.latency.quantile_us(0.5), "us");
  print_metric("meta.decide_us_p99", replay.meta.latency.quantile_us(0.99),
               "us");
  print_metric("meta.decisions", static_cast<double>(replay.meta_decisions),
               "count");
  print_metric("meta.switches", static_cast<double>(replay.meta_switches),
               "count");
  print_metric("meta.projection_resyncs", static_cast<double>(replay.resyncs),
               "count");
  print_metric("meta.projection_rebuilds", static_cast<double>(replay.rebuilds),
               "count");

  print_metric("core.engine.self_s",
               self("core.simulate") + scaling.engine_self_1_s, "s");
  print_metric("core.engine.redispatches",
               static_cast<double>(replay.redispatches), "count");
  print_metric("core.validator.validate_s", self("core.validator"), "s");
  print_metric("core.workload.generate_s", self("core.workload"), "s");

  const int lanes = dispatched_lanes();
  print_metric("core.rank_kernel.mprobes_per_s", kernel_auto, "Mprobes/s");
  print_metric("core.rank_kernel.scalar_mprobes_per_s", kernel_scalar,
               "Mprobes/s");
  print_metric("core.rank_kernel.lanes", lanes, "count");
  // 32 B per probe: comm, comp and ready read, one completion written.
  print_metric("core.rank_kernel.gb_per_s_computed", kernel_auto * 32.0 / 1e3,
               "GB/s");
  print_metric("core.event_queue.ns_per_op", queue_ns, "ns");

  print_metric("core.sharded.setup_s", replay.sharded_setup_s, "s");
  print_metric("core.sharded.run_s", replay.sharded_run_s, "s");
  print_metric("core.sharded.run_cpu_s", replay.sharded_run_cpu_s, "s");
  print_metric("core.sharded.decide_s", replay.sharded.decide_ns * 1e-9, "s");
  print_metric("core.sharded.task_imbalance", replay.task_imbalance, "ratio");
  print_metric("core.sharded.threads_speedup",
               scaling.run_n_s > 0.0 ? scaling.run_1_s / scaling.run_n_s : 0.0,
               "ratio");
  std::map<std::string, std::pair<double, double>> per_avail = {
      {"always", {0.0, 0.0}}, {"churn", {0.0, 0.0}}};
  for (const auto& [avail, runs] : scaling.per_avail) per_avail[avail] = runs;
  for (const auto& [avail, runs] : per_avail) {
    print_metric("core.sharded.threads_speedup." + avail,
                 runs.second > 0.0 ? runs.first / runs.second : 0.0, "ratio");
  }
  for (const auto& [avail, runs] : scaling.per_avail) {
    std::printf("# sharded %s: run_to_completion %.6f s at 1 shard thread, "
                "%.6f s at 2 or the grid's shard_threads\n",
                avail.c_str(), runs.first, runs.second);
  }

  print_metric("platform.generate_s", self("platform.generate"), "s");
  print_metric("platform.avail_gen_s", self("platform.avail_gen"), "s");
  print_metric("platform.avail_spans", static_cast<double>(replay.avail_spans),
               "count");

  std::vector<double> cell_ms = runner.cell_ms;
  print_metric("runner.grid_load_s", runner.grid_load_s, "s");
  print_metric("runner.cell_ms_p50", median_of(cell_ms), "ms");
  print_metric("runner.cell_ms_max",
               cell_ms.empty() ? 0.0
                               : *std::max_element(cell_ms.begin(),
                                                   cell_ms.end()),
               "ms");
  print_metric("runner.sink_s", runner.sink_s, "s");
  print_metric("runner.output_bytes", runner.output_bytes, "bytes");
  print_metric("runner.pass_s", runner.wall_s, "s");

  // Coverage counts the layers on the replay thread's timeline; the
  // containers (replay, cell, platform_rep, spec) are what is left over.
  double layers = 0.0;
  for (const auto& [name, seconds] : replay.self_s) {
    if (name != "replay" && name != "cell" && name != "platform_rep" &&
        name != "spec") {
      layers += seconds;
    }
  }
  print_metric("trace.replay_s", replay.wall_s, "s");
  print_metric("trace.overhead", replay.wall_s / runner.wall_s - 1.0, "ratio");
  print_metric("trace.coverage", layers / replay.wall_s, "ratio");

  for (const auto& [name, layer_s] : replay.self_s) {
    std::printf("# layer %-22s self %.6f s\n", name.c_str(), layer_s);
  }
  for (const auto& [name, spec] : replay.per_spec) {
    std::printf("# spec %s: decide %.6f s in %lld calls, validate %.6f s\n",
                name.c_str(), spec.decide_s, spec.calls, spec.validate_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    const double kernel_min_s = cli.get_double("kernel-min-s", 0.2);
    if (!(kernel_min_s > 0.0)) {
      throw std::invalid_argument("--kernel-min-s must be > 0");
    }
    std::printf("# host: %s, compiler %s, flags %s\n",
                core::rank_kernel_avx512_available()
                    ? "avx512"
                    : core::rank_kernel_simd_available() ? "avx2" : "scalar",
                __VERSION__, MSOL_BENCH_FLAGS);

    if (cli.has("grid")) {
      const std::string grid_path = cli.get("grid", "");
      const std::string out = cli.get("out", "");
      if (out.empty()) throw std::invalid_argument("--grid needs --out=PREFIX");
      const RunnerPass runner = runner_pass(grid_path, out);
      const runner::ScenarioGrid grid = runner::load_grid(grid_path);
      const ReplayPass replay = replay_pass(grid, out);
      const ShardedScaling scaling =
          sharded_scaling(runner::expand(grid), replay.sharded_runs);

      double kernel_auto = 0.0;
      double kernel_scalar = 0.0;
      for (int r = 0; r < kMicroReps; ++r) {
        kernel_auto = std::max(
            kernel_auto, kernel_mprobes(core::RankKernelWidth::kAuto,
                                        replay.max_engine_slaves, kernel_min_s));
        kernel_scalar = std::max(
            kernel_scalar,
            kernel_mprobes(core::RankKernelWidth::kScalar,
                           replay.max_engine_slaves, kernel_min_s));
      }
      const double queue_ns =
          event_queue_ns_per_op(replay.queue_runs, kernel_min_s);
      print_pass_metrics(runner, replay, scaling, kernel_auto, kernel_scalar,
                         queue_ns);
    }
    if (cli.has("kernel-table")) kernel_table(kernel_min_s);
    return 0;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "msol_bench: %s\n", error.what());
    return 1;
  }
}
