// Sharded engine determinism: the PlatformPartition's stable striping, the
// K=1 byte-identity with OnePortEngine, reproducibility of merged output
// for K > 1 under every routing, and — at the runner level — byte-identity
// of sharded-cell CSV/JSONL across worker thread counts and across a
// kill+resume, exactly the guarantees the unsharded runner already makes.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "platform/generator.hpp"
#include "platform/partition.hpp"
#include "runner/checkpoint.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

platform::Platform make_platform(int m, std::uint64_t seed) {
  util::Rng rng(seed);
  return platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
}

// --------------------------------------------------------------- partition --

TEST(PlatformPartition, StripesSlavesModuloKPreservingSpecs) {
  const platform::Platform plat = make_platform(10, 1);
  const platform::PlatformPartition part(plat, 3);
  ASSERT_EQ(part.num_shards(), 3);
  // Shard sizes: 10 slaves striped mod 3 -> 4, 3, 3.
  EXPECT_EQ(part.shard_platform(0).size(), 4);
  EXPECT_EQ(part.shard_platform(1).size(), 3);
  EXPECT_EQ(part.shard_platform(2).size(), 3);
  for (SlaveId j = 0; j < plat.size(); ++j) {
    const int k = part.shard_of(j);
    const SlaveId local = part.local_id(j);
    EXPECT_EQ(k, static_cast<int>(j) % 3);
    EXPECT_EQ(local, j / 3);
    EXPECT_EQ(part.global_id(k, local), j);  // round-trip
    // The shard platform carries the global slave's exact c/p values.
    EXPECT_EQ(part.shard_platform(k).comm(local), plat.comm(j));
    EXPECT_EQ(part.shard_platform(k).comp(local), plat.comp(j));
  }
}

TEST(PlatformPartition, SingleShardIsTheIdentity) {
  const platform::Platform plat = make_platform(5, 2);
  const platform::PlatformPartition part(plat, 1);
  ASSERT_EQ(part.shard_platform(0).size(), plat.size());
  for (SlaveId j = 0; j < plat.size(); ++j) {
    EXPECT_EQ(part.shard_of(j), 0);
    EXPECT_EQ(part.local_id(j), j);
    EXPECT_EQ(part.shard_platform(0).comm(j), plat.comm(j));
    EXPECT_EQ(part.shard_platform(0).comp(j), plat.comp(j));
  }
}

TEST(PlatformPartition, RejectsImpossibleShardCounts) {
  const platform::Platform plat = make_platform(4, 3);
  EXPECT_THROW(platform::PlatformPartition(plat, 0), std::invalid_argument);
  EXPECT_THROW(platform::PlatformPartition(plat, -1), std::invalid_argument);
  EXPECT_THROW(platform::PlatformPartition(plat, 5), std::invalid_argument);
}

TEST(PlatformPartition, SlicesAvailabilityByShardSlaveOrder) {
  const platform::Platform plat = make_platform(5, 4);
  const platform::PlatformPartition part(plat, 2);
  EXPECT_TRUE(part.slice_availability({}, 0).empty());  // disabled stays so

  std::vector<platform::AvailabilityProfile> global;
  for (SlaveId j = 0; j < 5; ++j) {
    global.emplace_back(std::vector<platform::AvailabilitySpan>{
        {static_cast<Time>(j) + 1.0, false, 1.0}});
  }
  for (int k = 0; k < 2; ++k) {
    const auto sliced = part.slice_availability(global, k);
    const auto& slaves = part.shard_slaves(k);
    ASSERT_EQ(sliced.size(), slaves.size());
    for (std::size_t i = 0; i < slaves.size(); ++i) {
      ASSERT_EQ(sliced[i].spans().size(), 1u);
      EXPECT_EQ(sliced[i].spans()[0].begin,
                static_cast<Time>(slaves[i]) + 1.0);
    }
  }
  EXPECT_THROW(part.slice_availability(
                   std::vector<platform::AvailabilityProfile>(3), 0),
               std::invalid_argument);
}

// ------------------------------------------------------------ K=1 identity --

struct Scenario {
  platform::Platform platform;
  Workload workload;
  EngineOptions options;
};

Scenario make_scenario(std::uint64_t seed, bool with_availability) {
  util::Rng rng(seed);
  const int m = static_cast<int>(rng.uniform_int(2, 8));
  platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
  Workload work = Workload::poisson(50, rng.uniform(0.5, 3.0), rng);

  EngineOptions options;
  options.enable_trace = true;
  options.slowdowns.push_back(SlowdownWindow{
      static_cast<SlaveId>(rng.uniform_int(0, m - 1)), 1.0, 6.0, 2.0});
  if (with_availability) {
    options.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, m, 8.0, 0.2, 60.0, rng);
  }
  return Scenario{std::move(plat), std::move(work), std::move(options)};
}

/// A fixed m=8 fleet (so K=8 sharding is exercised for real) with releases
/// quantized to a 0.5 grid — duplicate release instants are what make the
/// least-loaded epoch loop route several tasks off one load observation.
Scenario make_fleet_scenario(std::uint64_t seed, bool with_availability) {
  util::Rng rng(seed);
  const int m = 8;
  platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
  std::vector<TaskSpec> tasks = Workload::poisson(60, 2.0, rng).tasks();
  for (TaskSpec& t : tasks) {
    t.release = std::floor(t.release * 2.0) / 2.0;
  }
  Workload work{std::move(tasks)};

  EngineOptions options;
  options.enable_trace = true;
  options.slowdowns.push_back(SlowdownWindow{
      static_cast<SlaveId>(rng.uniform_int(0, m - 1)), 1.0, 6.0, 2.0});
  if (with_availability) {
    options.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, m, 8.0, 0.2, 60.0, rng);
  }
  return Scenario{std::move(plat), std::move(work), std::move(options)};
}

SchedulerFactory factory_for(const std::string& name) {
  return [name] { return algorithms::make_scheduler(name); };
}

void expect_matches_unsharded(const ShardedEngine& sharded,
                              const OnePortEngine& plain,
                              const std::string& label) {
  const Schedule& a = sharded.schedule();
  const Schedule& e = plain.schedule();
  ASSERT_EQ(a.size(), e.size()) << label;
  for (int i = 0; i < a.size(); ++i) {
    const TaskRecord& ra = a.at(i);
    const TaskRecord& re = e.at(i);
    ASSERT_EQ(ra.task, re.task) << label << " record " << i;
    ASSERT_EQ(ra.slave, re.slave) << label << " record " << i;
    ASSERT_EQ(ra.release, re.release) << label << " record " << i;
    ASSERT_EQ(ra.send_start, re.send_start) << label << " record " << i;
    ASSERT_EQ(ra.send_end, re.send_end) << label << " record " << i;
    ASSERT_EQ(ra.comp_start, re.comp_start) << label << " record " << i;
    ASSERT_EQ(ra.comp_end, re.comp_end) << label << " record " << i;
  }
  ASSERT_EQ(a.makespan(), e.makespan()) << label;

  const auto& ta = sharded.trace().events();
  const auto& te = plain.trace().events();
  ASSERT_EQ(ta.size(), te.size()) << label;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i].kind, te[i].kind) << label << " event " << i;
    ASSERT_EQ(ta[i].time, te[i].time) << label << " event " << i;
    ASSERT_EQ(ta[i].task, te[i].task) << label << " event " << i;
    ASSERT_EQ(ta[i].slave, te[i].slave) << label << " event " << i;
    ASSERT_EQ(ta[i].aux, te[i].aux) << label << " event " << i;
  }
  EXPECT_EQ(sharded.disruption().redispatches, plain.disruption().redispatches)
      << label;
  EXPECT_EQ(sharded.disruption().lost_work, plain.disruption().lost_work)
      << label;
}

TEST(ShardedEngine, SingleShardIsByteIdenticalToOnePortEngine) {
  for (std::uint64_t seed : {10ULL, 20ULL, 30ULL}) {
    for (const bool avail : {false, true}) {
      for (const char* policy : {"LS", "SRPT", "RR"}) {
        const Scenario s = make_scenario(seed, avail);
        const std::string label = std::string(policy) + " seed " +
                                  std::to_string(seed) +
                                  (avail ? " churn" : " static");

        const auto plain_policy = algorithms::make_scheduler(policy);
        OnePortEngine plain(s.platform, *plain_policy, s.options);
        plain.load(s.workload);
        plain.run_to_completion();

        for (const ShardRouting routing :
             {ShardRouting::kHash, ShardRouting::kRoundRobin,
              ShardRouting::kLeastLoaded}) {
          ShardedEngineOptions options;
          options.shards = 1;
          options.routing = routing;
          options.engine = s.options;
          ShardedEngine sharded(s.platform, factory_for(policy), options);
          sharded.load(s.workload);
          sharded.run_to_completion();
          expect_matches_unsharded(
              sharded, plain, label + " " + to_string(routing));
        }
      }
    }
  }
}

// --------------------------------------------------- K>1 merged determinism --

/// Runs the sharded engine and returns a canonical text rendering of its
/// merged views — two runs are "byte-identical" iff these strings match.
std::string render_merged(const Scenario& s, const char* policy, int shards,
                          ShardRouting routing, int shard_threads = 1) {
  ShardedEngineOptions options;
  options.shards = shards;
  options.routing = routing;
  options.shard_threads = shard_threads;
  options.engine = s.options;
  ShardedEngine engine(s.platform, factory_for(policy), options);
  engine.load(s.workload);
  engine.run_to_completion();

  // Every shard's schedule must independently satisfy the one-port model.
  for (int k = 0; k < engine.num_shards(); ++k) {
    validate_or_throw(engine.partition().shard_platform(k),
                      engine.shard_workload(k), engine.shard_engine(k).schedule(),
                      engine.shard_options(k));
  }

  std::ostringstream out;
  out.precision(17);
  for (int i = 0; i < engine.schedule().size(); ++i) {
    const TaskRecord& r = engine.schedule().at(i);
    out << r.task << ' ' << r.slave << ' ' << r.release << ' ' << r.send_start
        << ' ' << r.send_end << ' ' << r.comp_start << ' ' << r.comp_end
        << '\n';
  }
  for (const TraceEvent& e : engine.trace().events()) {
    out << static_cast<int>(e.kind) << ' ' << e.time << ' ' << e.task << ' '
        << e.slave << ' ' << e.aux << '\n';
  }
  out << engine.disruption().redispatches << ' '
      << engine.disruption().lost_work << '\n';
  return out.str();
}

TEST(ShardedEngine, MergedOutputIsReproducibleForEveryRouting) {
  for (const int shards : {2, 8}) {
    for (const ShardRouting routing :
         {ShardRouting::kHash, ShardRouting::kRoundRobin,
          ShardRouting::kLeastLoaded}) {
      const Scenario s = make_scenario(777, /*with_availability=*/true);
      ASSERT_GE(s.platform.size(), 2);
      const int k = std::min(shards, s.platform.size());
      const std::string first = render_merged(s, "LS", k, routing);
      const std::string second = render_merged(s, "LS", k, routing);
      EXPECT_EQ(first, second)
          << "K=" << k << " routing " << to_string(routing);
      EXPECT_FALSE(first.empty());
    }
  }
}

TEST(ShardedEngine, ParallelAdvancementIsByteIdenticalToSequential) {
  // The tentpole guarantee: shard_threads is purely a wall-clock knob.
  // K x threads matrix over both a stateless routing and the
  // state-dependent one, on a churn-availability fleet.
  for (const int shards : {1, 2, 8}) {
    for (const ShardRouting routing :
         {ShardRouting::kHash, ShardRouting::kLeastLoaded}) {
      const Scenario s = make_fleet_scenario(4242, /*with_availability=*/true);
      const std::string sequential =
          render_merged(s, "LS", shards, routing, /*shard_threads=*/1);
      ASSERT_FALSE(sequential.empty());
      for (const int threads : {2, 4}) {
        EXPECT_EQ(render_merged(s, "LS", shards, routing, threads), sequential)
            << "K=" << shards << " routing " << to_string(routing)
            << " threads " << threads;
      }
      // 0 = hardware concurrency must also be byte-identical.
      EXPECT_EQ(render_merged(s, "LS", shards, routing, /*shard_threads=*/0),
                sequential)
          << "K=" << shards << " routing " << to_string(routing) << " auto";
    }
  }
}

TEST(ShardedEngine, ShardOptionsAreTheShardEnginesOwn) {
  // Each shard's options are held once, by its engine: shard_options(k) is
  // that engine's copy, carrying exactly the shard's slice of the drawn
  // churn profiles.
  const Scenario s = make_fleet_scenario(4242, /*with_availability=*/true);
  for (const int shards : {2, 8}) {
    ShardedEngineOptions options;
    options.shards = shards;
    options.routing = ShardRouting::kLeastLoaded;
    options.engine = s.options;
    ShardedEngine sharded(s.platform, factory_for("LS"), options);
    sharded.load(s.workload);
    sharded.run_to_completion();
    ASSERT_EQ(sharded.num_shards(), shards);
    for (int k = 0; k < sharded.num_shards(); ++k) {
      EXPECT_EQ(&sharded.shard_options(k), &sharded.shard_engine(k).options())
          << "K=" << shards << " shard " << k;
      EXPECT_EQ(static_cast<int>(sharded.shard_options(k).availability.size()),
                sharded.partition().shard_platform(k).size())
          << "K=" << shards << " shard " << k;
    }
  }
}

TEST(ShardedEngine, EveryTaskIsScheduledExactlyOnceAcrossShards) {
  const Scenario s = make_scenario(888, /*with_availability=*/false);
  const int k = std::min(3, s.platform.size());
  ShardedEngineOptions options;
  options.shards = k;
  options.engine = s.options;
  ShardedEngine engine(s.platform, factory_for("LS"), options);
  engine.load(s.workload);
  engine.run_to_completion();

  std::vector<int> seen(s.workload.size(), 0);
  for (int i = 0; i < engine.schedule().size(); ++i) {
    const TaskRecord& r = engine.schedule().at(i);
    ASSERT_GE(r.task, 0);
    ASSERT_LT(r.task, s.workload.size());
    ++seen[static_cast<std::size_t>(r.task)];
    // Merged order is globally sorted by send_start.
    if (i > 0) {
      EXPECT_LE(engine.schedule().at(i - 1).send_start, r.send_start);
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(ShardedEngine, RoundRobinRoutesByInjectionIndexModuloK) {
  const Scenario s = make_scenario(999, /*with_availability=*/false);
  const int k = std::min(2, s.platform.size());
  ShardedEngineOptions options;
  options.shards = k;
  options.routing = ShardRouting::kRoundRobin;
  options.engine = s.options;
  ShardedEngine engine(s.platform, factory_for("LS"), options);
  engine.load(s.workload);
  engine.run_to_completion();
  for (int shard = 0; shard < k; ++shard) {
    const Workload local = engine.shard_workload(shard);
    for (int t = 0; t < local.size(); ++t) {
      EXPECT_EQ(static_cast<int>(engine.global_task(shard, t)) % k, shard);
    }
  }
}

TEST(ShardedEngine, GuardsMisuse) {
  const Scenario s = make_scenario(111, /*with_availability=*/false);
  {
    ShardedEngineOptions options;
    options.shards = s.platform.size() + 1;
    options.engine = s.options;
    EXPECT_THROW(ShardedEngine(s.platform, factory_for("LS"), options),
                 std::invalid_argument);
  }
  {
    ShardedEngineOptions options;
    options.shards = 1;
    options.shard_threads = -1;
    options.engine = s.options;
    EXPECT_THROW(ShardedEngine(s.platform, factory_for("LS"), options),
                 std::invalid_argument);
  }
  {
    ShardedEngineOptions options;
    options.shards = 1;
    options.engine = s.options;
    ShardedEngine engine(s.platform, factory_for("LS"), options);
    engine.load(s.workload);
    EXPECT_THROW(engine.load(s.workload), std::logic_error);
    engine.run_to_completion();
    EXPECT_THROW(engine.run_to_completion(), std::logic_error);
  }
}

TEST(ShardRoutingNames, RoundTripAndReject) {
  for (const ShardRouting r :
       {ShardRouting::kHash, ShardRouting::kRoundRobin,
        ShardRouting::kLeastLoaded}) {
    EXPECT_EQ(parse_shard_routing(to_string(r)), r);
  }
  EXPECT_THROW(parse_shard_routing("random"), std::invalid_argument);
}

}  // namespace
}  // namespace msol::core

// ------------------------------------------------------------- runner level --

namespace msol::runner {
namespace {

std::string read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The top-level members of one JSON object, in order, as (key, raw value
/// text). Enough for what JsonLinesSink emits: keys carry no escapes.
std::vector<std::pair<std::string, std::string>> json_members(
    const std::string& json) {
  std::vector<std::pair<std::string, std::string>> members;
  std::size_t i = 1;  // past '{'
  while (i < json.size() && json[i] == '"') {
    const std::size_t key_end = json.find('"', i + 1);
    const std::string key = json.substr(i + 1, key_end - i - 1);
    i = key_end + 2;  // past '":'
    const std::size_t value_begin = i;
    int depth = 0;
    bool in_string = false;
    for (; i < json.size(); ++i) {
      const char c = json[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if ((c == '}' || c == ']') && depth > 0) {
        --depth;
      } else if ((c == ',' || c == '}') && depth == 0) {
        break;
      }
    }
    members.emplace_back(key, json.substr(value_begin, i - value_begin));
    ++i;  // past ',' or the closing '}'
  }
  return members;
}

/// Small grid whose every cell simulates its fleet as 2 one-port clusters.
ScenarioGrid sharded_grid() {
  ScenarioGrid grid;
  grid.name = "sharded";
  grid.seed = 23;
  grid.num_platforms = 2;
  grid.num_tasks = 40;
  grid.lookahead = 40;
  grid.algorithms = {"SRPT", "LS"};
  grid.classes = {platform::PlatformClass::kFullyHeterogeneous};
  grid.slave_counts = {4};
  grid.arrivals = {experiments::ArrivalProcess::kAllAtZero,
                   experiments::ArrivalProcess::kPoisson};
  grid.loads = {0.9};
  grid.jitters = {0.0, 0.1};
  grid.port_capacities = {1};
  grid.avails = {platform::AvailabilityModel::kAlways,
                 platform::AvailabilityModel::kChurn};
  grid.engine_shards = 2;
  grid.shard_routing = "least-loaded";  // the state-dependent routing
  grid.shard_threads = 2;               // pooled shard advancement
  return grid;
}

class ShardedRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("msol_") + info->test_suite_name() + "_" +
            info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path path(const std::string& name) const {
    return dir_ / name;
  }

  std::pair<std::string, std::string> checkpointed_run(
      const ScenarioGrid& grid, const std::string& stem, int threads,
      ResultSink* extra = nullptr, bool resume = false) {
    CheckpointOptions options;
    options.csv_path = path(stem + ".csv").string();
    options.jsonl_path = path(stem + ".jsonl").string();
    options.manifest_path = path(stem + ".manifest").string();
    options.runner.threads = threads;
    options.resume = resume;
    if (extra != nullptr) options.extra_sinks.push_back(extra);
    run_checkpointed(grid, options);
    return {read_all(path(stem + ".csv")), read_all(path(stem + ".jsonl"))};
  }

  std::filesystem::path dir_;
};

/// Throws after `cells_allowed` durable commits — a process kill right
/// after the data sinks flushed but with cells still outstanding.
class KillAfterCells : public ResultSink {
 public:
  explicit KillAfterCells(std::size_t cells_allowed)
      : cells_allowed_(cells_allowed) {}
  void consume(const ResultRecord&) override {}
  void cell_complete(std::size_t, std::size_t) override {
    if (++seen_ > cells_allowed_) throw std::runtime_error("simulated kill");
  }

 private:
  std::size_t cells_allowed_;
  std::size_t seen_ = 0;
};

TEST_F(ShardedRunnerTest, OutputIsByteIdenticalAcrossThreadCounts) {
  const ScenarioGrid grid = sharded_grid();
  const auto [csv1, jsonl1] = checkpointed_run(grid, "t1", 1);
  const auto [csv4, jsonl4] = checkpointed_run(grid, "t4", 4);
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);
  // The sharded cells really went through the sharded path: every data row
  // carries the trailing engine_shards,shard_threads columns.
  std::istringstream lines(csv1);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const std::string tail = ",engine_shards,shard_threads";
  ASSERT_GE(line.size(), tail.size());
  EXPECT_EQ(line.rfind(tail), line.size() - tail.size());
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind(",2,2"), line.size() - 4) << line;
    ++rows;
  }
  EXPECT_GT(rows, 0u);
}

TEST_F(ShardedRunnerTest, JsonlObjectAndCsvRowCarryTheSameColumns) {
  // The whole-row form of the header-tail check above: with its nine metric
  // objects flattened to <metric>_<stat> and its three raw arrays dropped,
  // each JSONL object lists the CSV header's columns, in order, with the
  // same values as the matching CSV row.
  const auto [csv, jsonl] = checkpointed_run(sharded_grid(), "cols", 1);
  std::istringstream csv_lines(csv);
  std::istringstream json_lines(jsonl);
  std::string header;
  ASSERT_TRUE(std::getline(csv_lines, header));
  const std::vector<std::string> names = util::split(header, ',');
  std::string json;
  std::string row;
  std::size_t rows = 0;
  while (std::getline(json_lines, json)) {
    ASSERT_TRUE(std::getline(csv_lines, row));
    const std::vector<std::string> values = util::split(row, ',');
    ASSERT_EQ(values.size(), names.size()) << row;
    std::vector<std::string> json_names;
    std::vector<std::string> json_values;
    std::vector<std::string> identity;
    std::size_t objects = 0;
    std::size_t arrays = 0;
    for (const auto& [key, value] : json_members(json)) {
      if (value.front() == '{') {
        ++objects;
        for (const auto& [stat, number] : json_members(value)) {
          json_names.push_back(key + "_" + stat);
          json_values.push_back(number);
        }
      } else if (value.front() == '[') {
        ++arrays;
      } else {
        identity.push_back(key);
        json_names.push_back(key);
        json_values.push_back(value.front() == '"'
                                  ? value.substr(1, value.size() - 2)
                                  : value);
      }
    }
    EXPECT_EQ(objects, 9u);
    EXPECT_EQ(arrays, 3u);
    EXPECT_EQ(identity.size(), 18u);
    EXPECT_EQ(json_names, names);
    EXPECT_EQ(json_values, values);
    ++rows;
  }
  EXPECT_FALSE(std::getline(csv_lines, row)) << "CSV has more rows";
  EXPECT_GT(rows, 0u);
}

TEST_F(ShardedRunnerTest, ShardThreadsOnlyChangesItsEchoColumn) {
  // The same grid at shard_threads 1 and 4 must produce identical results;
  // only the trailing echo column may differ.
  ScenarioGrid grid = sharded_grid();
  grid.shard_threads = 1;
  const auto [csv1, jsonl1] = checkpointed_run(grid, "st1", 2);
  grid.shard_threads = 4;
  const auto [csv4, jsonl4] = checkpointed_run(grid, "st4", 2);

  const auto strip_last_csv_field = [](const std::string& text) {
    std::istringstream lines(text);
    std::string line, out;
    while (std::getline(lines, line)) {
      out += line.substr(0, line.rfind(','));
      out += '\n';
    }
    return out;
  };
  const auto strip_shard_threads_json = [](const std::string& text) {
    std::istringstream lines(text);
    std::string line, out;
    while (std::getline(lines, line)) {
      const std::size_t at = line.rfind(",\"shard_threads\":");
      EXPECT_NE(at, std::string::npos) << line;
      out += line.substr(0, at);
      out += '\n';
    }
    return out;
  };
  EXPECT_NE(csv1, csv4);  // the echo column does differ...
  EXPECT_EQ(strip_last_csv_field(csv1), strip_last_csv_field(csv4));
  EXPECT_EQ(strip_shard_threads_json(jsonl1), strip_shard_threads_json(jsonl4));
}

TEST_F(ShardedRunnerTest, KillAndResumeReproducesUninterruptedRun) {
  const ScenarioGrid grid = sharded_grid();
  const auto [ref_csv, ref_jsonl] = checkpointed_run(grid, "ref", 2);

  KillAfterCells killer(2);
  EXPECT_THROW(checkpointed_run(grid, "out", 2, &killer),
               std::runtime_error);
  // Resume completes the remaining cells; the bytes must match an
  // uninterrupted run exactly.
  const auto [csv, jsonl] =
      checkpointed_run(grid, "out", 2, nullptr, /*resume=*/true);
  EXPECT_EQ(csv, ref_csv);
  EXPECT_EQ(jsonl, ref_jsonl);
}

TEST_F(ShardedRunnerTest, ShardedGridRoundTripsThroughTextFormat) {
  const ScenarioGrid grid = sharded_grid();
  const std::string text = serialize_grid(grid);
  EXPECT_NE(text.find("engine_shards = 2"), std::string::npos);
  EXPECT_NE(text.find("shard_routing = least-loaded"), std::string::npos);
  EXPECT_NE(text.find("shard_threads = 2"), std::string::npos);
  const ScenarioGrid parsed = parse_grid(text);
  EXPECT_EQ(parsed.engine_shards, 2);
  EXPECT_EQ(parsed.shard_routing, "least-loaded");
  EXPECT_EQ(parsed.shard_threads, 2);
  // Defaults serialize to nothing: legacy canonical text is unchanged.
  ScenarioGrid defaults = grid;
  defaults.engine_shards = 1;
  defaults.shard_routing = "hash";
  defaults.shard_threads = 1;
  const std::string legacy = serialize_grid(defaults);
  EXPECT_EQ(legacy.find("engine_shards"), std::string::npos);
  EXPECT_EQ(legacy.find("shard_routing"), std::string::npos);
  EXPECT_EQ(legacy.find("shard_threads"), std::string::npos);
}

}  // namespace
}  // namespace msol::runner
