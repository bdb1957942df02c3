#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/policy_spec.hpp"
#include "runner/checkpoint.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"
#include "util/rng.hpp"

namespace msol::runner {
namespace {

using experiments::ArrivalProcess;
using platform::PlatformClass;

/// 8-cell grid small enough that the full suite stays fast but wide enough
/// to exercise every axis of the expansion.
ScenarioGrid small_grid() {
  ScenarioGrid grid;
  grid.name = "test";
  grid.seed = 7;
  grid.num_platforms = 2;
  grid.num_tasks = 40;
  grid.lookahead = 40;
  grid.algorithms = {"SRPT", "LS"};
  grid.classes = {PlatformClass::kFullyHomogeneous,
                  PlatformClass::kFullyHeterogeneous};
  grid.slave_counts = {3};
  grid.arrivals = {ArrivalProcess::kAllAtZero, ArrivalProcess::kPoisson};
  grid.loads = {0.9};
  grid.jitters = {0.0, 0.1};
  grid.port_capacities = {1};
  return grid;
}

// ------------------------------------------------------------ expansion ----

TEST(ScenarioGrid, CellCountIsProductOfAxes) {
  const ScenarioGrid grid = small_grid();
  EXPECT_EQ(cell_count(grid), 8u);
  EXPECT_EQ(expand(grid).size(), 8u);
}

TEST(ScenarioGrid, ExpansionOrderAndIndicesAreStable) {
  const std::vector<ScenarioSpec> cells = expand(small_grid());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
  // Innermost axis (jitter here, port being singleton) varies fastest.
  EXPECT_EQ(cells[0].config.size_jitter, 0.0);
  EXPECT_EQ(cells[1].config.size_jitter, 0.1);
  EXPECT_EQ(cells[0].config.platform_class, PlatformClass::kFullyHomogeneous);
  EXPECT_EQ(cells.back().config.platform_class,
            PlatformClass::kFullyHeterogeneous);
}

TEST(ScenarioGrid, CellSeedsAreDistinctAndReproducible) {
  const std::vector<ScenarioSpec> a = expand(small_grid());
  const std::vector<ScenarioSpec> b = expand(small_grid());
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config.seed, b[i].config.seed);
    seeds.insert(a[i].config.seed);
  }
  EXPECT_EQ(seeds.size(), a.size());
}

TEST(ScenarioGrid, EmptyAxisThrows) {
  ScenarioGrid grid = small_grid();
  grid.loads.clear();
  EXPECT_THROW(expand(grid), std::invalid_argument);
}

TEST(ScenarioExpand, RejectsMoreEngineShardsThanSlaves) {
  // Every engine shard needs a slave; expand() refuses before any cell runs,
  // whichever slaves value is the smallest.
  ScenarioGrid grid = small_grid();
  grid.slave_counts = {8, 3};
  grid.engine_shards = 4;
  try {
    expand(grid);
    ADD_FAILURE() << "accepted engine_shards = 4 with slaves = 3";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind("grid: ", 0), 0u) << what;
    EXPECT_NE(what.find("slaves = 3"), std::string::npos) << what;
  }
  // One shard per slave is the edge, and stays valid.
  grid.engine_shards = 3;
  EXPECT_EQ(expand(grid).size(), 2 * cell_count(small_grid()));
}

// -------------------------------------------------------------- parsing ----

TEST(GridFormat, ParsesAllKeys) {
  const ScenarioGrid grid = parse_grid(
      "# comment\n"
      "name = fig1\n"
      "seed = 99\n"
      "platforms = 3\n"
      "tasks = 120\n"
      "lookahead = 60\n"
      "algorithms = SRPT, LS, RR\n"
      "class = fully-homogeneous, comp-homogeneous\n"
      "slaves = 4, 8\n"
      "arrival = poisson, bursty  # trailing comment\n"
      "load = 0.5, 0.9\n"
      "jitter = 0, 0.1\n"
      "port = 1, 0\n");
  EXPECT_EQ(grid.name, "fig1");
  EXPECT_EQ(grid.seed, 99u);
  EXPECT_EQ(grid.num_platforms, 3);
  EXPECT_EQ(grid.num_tasks, 120);
  EXPECT_EQ(grid.lookahead, 60);
  EXPECT_EQ(grid.algorithms, (std::vector<std::string>{"SRPT", "LS", "RR"}));
  EXPECT_EQ(grid.classes.size(), 2u);
  EXPECT_EQ(grid.slave_counts, (std::vector<int>{4, 8}));
  EXPECT_EQ(grid.arrivals.size(), 2u);
  EXPECT_EQ(grid.loads, (std::vector<double>{0.5, 0.9}));
  EXPECT_EQ(grid.port_capacities, (std::vector<int>{1, 0}));
  EXPECT_EQ(cell_count(grid), 64u);  // 2^6: every axis has two values
}

TEST(GridFormat, ParsesSizeMixAxisAndIppKnobs) {
  const ScenarioGrid grid = parse_grid(
      "name = bursty\n"
      "arrival = poisson, inhomogeneous\n"
      "sizes = unit, pareto, lognormal\n"
      "ipp_amplitude = 0.7\n"
      "ipp_period_tasks = 25\n");
  ASSERT_EQ(grid.arrivals.size(), 2u);
  EXPECT_EQ(grid.arrivals[1], ArrivalProcess::kInhomogeneous);
  ASSERT_EQ(grid.size_mixes.size(), 3u);
  EXPECT_EQ(grid.size_mixes[0], experiments::TaskSizeMix::kUnit);
  EXPECT_EQ(grid.size_mixes[1], experiments::TaskSizeMix::kPareto);
  EXPECT_EQ(grid.size_mixes[2], experiments::TaskSizeMix::kLognormal);
  EXPECT_DOUBLE_EQ(grid.ipp_amplitude, 0.7);
  EXPECT_DOUBLE_EQ(grid.ipp_period_tasks, 25.0);
  EXPECT_EQ(cell_count(grid), 6u);  // 2 arrivals x 3 size mixes

  const std::vector<ScenarioSpec> cells = expand(grid);
  // sizes is the innermost axis; the knobs reach every cell config.
  EXPECT_EQ(cells[0].config.size_mix, experiments::TaskSizeMix::kUnit);
  EXPECT_EQ(cells[1].config.size_mix, experiments::TaskSizeMix::kPareto);
  EXPECT_DOUBLE_EQ(cells[0].config.ipp_amplitude, 0.7);
  EXPECT_DOUBLE_EQ(cells[0].config.ipp_period_tasks, 25.0);
  EXPECT_NE(cells[2].id.find("/sz-lognormal"), std::string::npos);
}

TEST(GridFormat, SizeMixAxisDoesNotShiftExistingCellSeeds) {
  // The sizes axis was appended innermost so that grids which do not sweep
  // it keep their historical cell indices and counter-derived seeds.
  const ScenarioGrid grid = small_grid();
  ASSERT_EQ(grid.size_mixes.size(), 1u);
  const std::vector<ScenarioSpec> cells = expand(grid);
  const util::Rng seeder(grid.seed);
  for (const ScenarioSpec& cell : cells) {
    EXPECT_EQ(cell.config.seed, seeder.child_seed(cell.index));
  }
}

TEST(GridFormat, RejectsMalformedInput) {
  EXPECT_THROW(parse_grid("not a key value line\n"), std::invalid_argument);
  EXPECT_THROW(parse_grid("unknown_key = 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_grid("load = fast\n"), std::invalid_argument);
  EXPECT_THROW(parse_grid("class = metal\n"), std::invalid_argument);
  EXPECT_THROW(parse_grid("arrival = never\n"), std::invalid_argument);
  EXPECT_THROW(parse_grid("sizes = metal\n"), std::invalid_argument);
  EXPECT_THROW(parse_grid("seed = 1\nseed = 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_grid("load =\n"), std::invalid_argument);
}

TEST(GridFormat, AlgoAliasAcceptsPolicySpecsAndValidatesThem) {
  const ScenarioGrid grid =
      parse_grid("algo = LS, SRPT+throttle:2, rank:completion+eps:0.1+tie:rng\n");
  EXPECT_EQ(grid.algorithms,
            (std::vector<std::string>{"LS", "SRPT+throttle:2",
                                      "rank:completion+eps:0.1+tie:rng"}));
  // `algo` and `algorithms` are one key: both present is a duplicate.
  EXPECT_THROW(parse_grid("algo = LS\nalgorithms = SRPT\n"),
               std::invalid_argument);
  // Entries are validated at parse time, not mid-sweep.
  EXPECT_THROW(parse_grid("algo = LS, HEFT\n"), std::invalid_argument);
  EXPECT_THROW(parse_grid("algorithms = LS-K2junk\n"), std::invalid_argument);
  EXPECT_THROW(parse_grid("algo = LS+gate:batch:0\n"), std::invalid_argument);
}

TEST(GridFormat, ParseExpandSerializeRoundTrip) {
  const ScenarioGrid original = small_grid();
  const std::string text = serialize_grid(original);
  const ScenarioGrid reparsed = parse_grid(text);

  EXPECT_EQ(serialize_grid(reparsed), text);

  const std::vector<ScenarioSpec> a = expand(original);
  const std::vector<ScenarioSpec> b = expand(reparsed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].config.seed, b[i].config.seed);
    EXPECT_EQ(a[i].config.load, b[i].config.load);
    EXPECT_EQ(a[i].config.size_jitter, b[i].config.size_jitter);
    EXPECT_EQ(a[i].config.platform_class, b[i].config.platform_class);
    EXPECT_EQ(a[i].config.arrival, b[i].config.arrival);
  }
}

TEST(GridFormat, SeedRoundTripsFullUint64Range) {
  ScenarioGrid grid = small_grid();
  grid.seed = 10000000000000000000ULL;  // > 2^63: splitmix64 outputs land here
  const ScenarioGrid reparsed = parse_grid(serialize_grid(grid));
  EXPECT_EQ(reparsed.seed, grid.seed);
}

TEST(GridFormat, SerializeRejectsUnrepresentableNames) {
  ScenarioGrid grid = small_grid();
  grid.name = "fig #final";  // '#' starts a comment in the format
  EXPECT_THROW(serialize_grid(grid), std::invalid_argument);
  grid.name = "";
  EXPECT_THROW(serialize_grid(grid), std::invalid_argument);
}

// ---------------------------------------------------------- determinism ----

std::string run_to_csv(const ScenarioGrid& grid, int threads,
                       std::size_t window = 0) {
  std::ostringstream out;
  CsvSink csv(out);
  RunnerOptions options;
  options.threads = threads;
  options.window = window;
  ParallelRunner runner(options);
  runner.run(grid, {&csv});
  return out.str();
}

TEST(ParallelRunner, CsvBitIdenticalAcrossThreadCounts) {
  const ScenarioGrid grid = small_grid();
  const std::string one = run_to_csv(grid, 1);
  const std::string four = run_to_csv(grid, 4);
  const std::string eight = run_to_csv(grid, 8);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  EXPECT_FALSE(one.empty());
}

TEST(ParallelRunner, WindowedEmissionIsByteIdenticalAndCompletes) {
  // The streaming window bounds run-ahead (RSS), never output: every
  // (threads, window) combination — including window 1, the maximally
  // serializing case, and window >= grid size, the no-op case — must
  // produce the exact unwindowed bytes and must not deadlock.
  const ScenarioGrid grid = small_grid();
  const std::string unwindowed = run_to_csv(grid, 4);
  for (const int threads : {1, 2, 4, 8}) {
    for (const std::size_t window : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{64}}) {
      EXPECT_EQ(unwindowed, run_to_csv(grid, threads, window))
          << "threads=" << threads << " window=" << window;
    }
  }
}

TEST(ParallelRunner, OneRecordPerCellAndAlgorithmInOrder) {
  const ScenarioGrid grid = small_grid();
  MemorySink memory;
  RunnerOptions options;
  options.threads = 4;
  ParallelRunner runner(options);
  const RunReport report = runner.run(grid, {&memory});

  EXPECT_EQ(report.cells, 8u);
  EXPECT_EQ(report.records, 16u);  // 8 cells x 2 algorithms
  ASSERT_EQ(memory.records().size(), 16u);
  for (std::size_t i = 0; i < memory.records().size(); ++i) {
    const ResultRecord& record = memory.records()[i];
    EXPECT_EQ(record.cell.index, i / 2);
    EXPECT_EQ(record.result.name, i % 2 == 0 ? "SRPT" : "LS");
    EXPECT_EQ(record.result.makespan.count, 2u);  // num_platforms
    ASSERT_EQ(record.result.makespan_raw.size(), 2u);
    EXPECT_GT(record.result.makespan_raw[0], 0.0);
  }
}

TEST(ParallelRunner, ProgressReachesTotalAndErrorsPropagate) {
  ScenarioGrid grid = small_grid();
  std::size_t last_done = 0;
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](std::size_t done, std::size_t total) {
    last_done = done;
    EXPECT_EQ(total, 8u);
  };
  MemorySink memory;
  ParallelRunner(options).run(grid, {&memory});
  EXPECT_EQ(last_done, 8u);

  grid.algorithms = {"NO-SUCH-ALGORITHM"};
  EXPECT_THROW(ParallelRunner(options).run(grid, {&memory}),
               std::invalid_argument);
}

// ----------------------------------------------------------------- sinks ----

TEST(Sinks, CsvHasHeaderAndOneRowPerRecord) {
  std::ostringstream out;
  CsvSink csv(out);
  ScenarioGrid grid = small_grid();
  grid.classes = {PlatformClass::kFullyHomogeneous};
  grid.jitters = {0.0};
  ParallelRunner runner;
  runner.run(grid, {&csv});  // 2 cells x 2 algorithms

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    if (count == 0) {
      EXPECT_EQ(line.rfind("cell_index,cell_id,cell_seed", 0), 0u);
    } else if (count % 2 == 1) {
      EXPECT_NE(line.find(",SRPT,"), std::string::npos);
    } else {
      EXPECT_NE(line.find(",LS,"), std::string::npos);
    }
    ++count;
  }
  EXPECT_EQ(count, 5u);  // header + 4 records
}

TEST(Sinks, JsonLinesLookLikeObjects) {
  std::ostringstream out;
  JsonLinesSink jsonl(out);
  ScenarioGrid grid = small_grid();
  grid.classes = {PlatformClass::kFullyHeterogeneous};
  grid.arrivals = {ArrivalProcess::kPoisson};
  grid.jitters = {0.1};
  ParallelRunner runner;
  runner.run(grid, {&jsonl});  // 1 cell x 2 algorithms

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"algorithm\":"), std::string::npos);
    EXPECT_NE(line.find("\"makespan_raw\":["), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

/// A record with every field that reaches a sink set to something hostile:
/// separators, quotes, newlines, raw control characters, non-finite metrics.
ResultRecord hostile_record() {
  ResultRecord record;
  record.cell.index = 3;
  record.cell.id = "id,with \"quotes\"\nthen\rbreaks\x01\x1f";
  record.cell.config.seed = 42;
  record.result.name = "alg,\"\t\x02";
  record.result.makespan.mean = std::nan("");
  record.result.makespan.stddev = std::numeric_limits<double>::infinity();
  record.result.makespan.min = -std::numeric_limits<double>::infinity();
  record.result.makespan_raw = {1.0, std::nan(""),
                                std::numeric_limits<double>::infinity()};
  return record;
}

/// Minimal JSON string unescape, enough to round-trip what json_escape
/// emits (the short escapes plus \u00XX).
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u':
        out += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
        i += 4;
        break;
      default: out += s[i];  // \" and \\ and anything else verbatim
    }
  }
  return out;
}

TEST(Sinks, JsonEscapesControlCharactersAndRoundTrips) {
  const ResultRecord record = hostile_record();
  const std::string json = JsonLinesSink::to_json(record);

  // No raw control character may survive into the emitted line.
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control character in JSONL output";
  }
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u0002"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);

  // The escaped cell_id round-trips to the original bytes.
  const std::string key = "\"cell_id\":\"";
  const std::size_t begin = json.find(key) + key.size();
  std::size_t end = begin;
  while (json[end] != '"' || json[end - 1] == '\\') ++end;
  EXPECT_EQ(json_unescape(json.substr(begin, end - begin)), record.cell.id);
}

TEST(Sinks, JsonEmitsNullForNonFiniteMetrics) {
  const std::string json = JsonLinesSink::to_json(hostile_record());
  EXPECT_NE(json.find("\"mean\":null"), std::string::npos);
  EXPECT_NE(json.find("\"stddev\":null"), std::string::npos);
  EXPECT_NE(json.find(",null,null]"), std::string::npos);  // raw series
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Sinks, CsvQuotesSeparatorsQuotesAndLineBreaks) {
  const std::string row = CsvSink::to_csv_row(hostile_record());
  // The hostile cell_id must arrive as one quoted field with doubled
  // quotes, i.e. splitting on unquoted commas still yields the id intact.
  EXPECT_NE(row.find("\"id,with \"\"quotes\"\"\nthen\rbreaks"),
            std::string::npos);
  EXPECT_NE(row.find("\"alg,\"\"\t"), std::string::npos);
}

TEST(Sinks, ErrorPathStillClosesSinks) {
  struct ObservingSink : ResultSink {
    bool closed = false;
    void consume(const ResultRecord&) override {}
    void close() override { closed = true; }
  };
  ScenarioGrid grid = small_grid();
  grid.algorithms = {"NO-SUCH-ALGORITHM"};
  ObservingSink sink;
  EXPECT_THROW(ParallelRunner().run(grid, {&sink}), std::invalid_argument);
  EXPECT_TRUE(sink.closed);  // partial output is flushed, not stranded
}

TEST(ParallelRunner, SkipSetBypassesCellsButKeepsEmissionOrder) {
  const ScenarioGrid grid = small_grid();
  RunnerOptions options;
  options.threads = 4;
  options.skip = {0, 3, 7};
  MemorySink memory;
  const RunReport report = ParallelRunner(options).run(grid, {&memory});

  EXPECT_EQ(report.cells, 8u);
  EXPECT_EQ(report.skipped, 3u);
  EXPECT_EQ(report.records, 10u);  // 5 remaining cells x 2 algorithms
  std::vector<std::size_t> emitted;
  for (const ResultRecord& record : memory.records()) {
    if (emitted.empty() || emitted.back() != record.cell.index) {
      emitted.push_back(record.cell.index);
    }
  }
  EXPECT_EQ(emitted, (std::vector<std::size_t>{1, 2, 4, 5, 6}));
}

// --------------------------------------------------------- availability ----

/// 4-cell grid under aggressive churn: outages hit mid-campaign, so any
/// thread- or resume-dependent state in the availability path would show
/// up as byte differences below.
ScenarioGrid churn_grid() {
  ScenarioGrid grid;
  grid.name = "churn";
  grid.seed = 23;
  grid.num_platforms = 2;
  grid.num_tasks = 50;
  grid.lookahead = 50;
  grid.algorithms = {"LS", "SRPT"};
  grid.classes = {PlatformClass::kFullyHeterogeneous};
  grid.slave_counts = {3};
  grid.arrivals = {ArrivalProcess::kPoisson};
  grid.loads = {0.9};
  grid.jitters = {0.0};
  grid.port_capacities = {1};
  grid.avails = {platform::AvailabilityModel::kAlways,
                 platform::AvailabilityModel::kChurn,
                 platform::AvailabilityModel::kRareOutage,
                 platform::AvailabilityModel::kDrift};
  grid.mtbf_tasks = {12.0};
  grid.outage_fracs = {0.3};
  return grid;
}

TEST(GridFormat, ParsesAvailabilityAxes) {
  const ScenarioGrid grid = parse_grid(
      "name = avail\n"
      "avail = always, rare-outage, churn, drift\n"
      "mtbf_tasks = 25, 100\n"
      "outage_frac = 0.2\n");
  ASSERT_EQ(grid.avails.size(), 4u);
  EXPECT_EQ(grid.avails[2], platform::AvailabilityModel::kChurn);
  EXPECT_EQ(grid.mtbf_tasks, (std::vector<double>{25.0, 100.0}));
  EXPECT_EQ(grid.outage_fracs, (std::vector<double>{0.2}));
  EXPECT_EQ(cell_count(grid), 8u);  // 4 avail x 2 mtbf

  const std::vector<ScenarioSpec> cells = expand(grid);
  // The availability axes are innermost: mtbf varies fastest, then avail.
  EXPECT_EQ(cells[0].config.avail, platform::AvailabilityModel::kAlways);
  EXPECT_DOUBLE_EQ(cells[0].config.mtbf_tasks, 25.0);
  EXPECT_DOUBLE_EQ(cells[1].config.mtbf_tasks, 100.0);
  EXPECT_EQ(cells[2].config.avail, platform::AvailabilityModel::kRareOutage);
  EXPECT_NE(cells[4].id.find("/av-churn"), std::string::npos);
  EXPECT_THROW(parse_grid("avail = sometimes\n"), std::invalid_argument);
}

TEST(GridFormat, RejectsOutOfRangeValues) {
  // Values the run would refuse mid-sweep (generate_availability, the
  // workload generators, the engine), would silently misread, or that do
  // not fit in int fail at parse time with the offending line.
  for (const char* line :
       {"load = 0", "load = -1", "load = 0.5, nan", "load = inf",
        "mtbf_tasks = 0", "mtbf_tasks = -5", "mtbf_tasks = nan",
        "mtbf_tasks = 25, inf", "outage_frac = 0.95", "outage_frac = -0.1",
        "outage_frac = nan", "platforms = 0", "platforms = 4294967297",
        "tasks = 0", "tasks = -5", "slaves = 0", "slaves = 5, 3000000000",
        "lookahead = -1", "lookahead = 1000001", "lookahead = 2147483647",
        "algorithms = rank:plan:sljf:2000000", "port = -1", "jitter = -0.5",
        "jitter = nan", "jitter = 2", "jitter = 1", "ipp_amplitude = 5",
        "ipp_amplitude = -0.1", "ipp_period_tasks = -1",
        "ipp_period_tasks = 0", "ipp_period_tasks = inf", "comm_lo = nan",
        "comm_lo = -1", "comm_hi = 0", "comp_lo = 1e999", "comp_hi = inf",
        "comm_lo = 5", "comp_lo = 9", "seed = -1", "seed = +1",
        "seed = 18446744073709551616", "load = 0.5x", "tasks = 1e3",
        "slaves = 2.9", "slaves = 1000001", "tasks = 1000001"}) {
    try {
      parse_grid(std::string(line) + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind("grid: ", 0), 0u) << what;
      EXPECT_NE(what.find(std::string("in: ") + line), std::string::npos)
          << what;
    }
  }
  // The range edges themselves stay valid.
  const ScenarioGrid edges = parse_grid(
      "load = 1e-9\nmtbf_tasks = 1e-9\noutage_frac = 0, 0.9\n"
      "platforms = 1\ntasks = 1\nslaves = 1\nlookahead = 0\nport = 0\n"
      "jitter = 0\nipp_amplitude = 1\nipp_period_tasks = 1e-9\n");
  EXPECT_EQ(edges.outage_fracs, (std::vector<double>{0.0, 0.9}));
  EXPECT_EQ(edges.num_tasks, 1);
  EXPECT_EQ(edges.lookahead, 0);
  EXPECT_EQ(edges.port_capacities, (std::vector<int>{0}));
  EXPECT_EQ(edges.jitters, (std::vector<double>{0.0}));
  EXPECT_EQ(edges.ipp_amplitude, 1.0);
  EXPECT_EQ(parse_grid("ipp_amplitude = 0\n").ipp_amplitude, 0.0);
  EXPECT_EQ(parse_grid("lookahead = 1000000\n").lookahead,
            algorithms::kMaxLookahead);
  const ScenarioGrid largest =
      parse_grid("slaves = 1000000\ntasks = 1000000\n");
  EXPECT_EQ(largest.slave_counts, (std::vector<int>{1000000}));
  EXPECT_EQ(largest.num_tasks, 1000000);
}

TEST(GridFormat, GeneratorRangesMustBeOrderedOnceTheGridIsRead) {
  // uniform(lo, hi) is undefined for lo > hi, and either end may be set on
  // a later line than the other (or be left at its default).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"comm_lo = 5\ncomm_hi = 1\n", "comm_hi = 1"},
      {"comp_hi = 0.05\n", "comp_hi = 0.05"},
      {"comm_hi = 0.5\nname = x\ncomm_lo = 0.6\n", "comm_hi = 0.5"}};
  for (const auto& [text, line] : cases) {
    try {
      parse_grid(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind("grid: ", 0), 0u) << what;
      EXPECT_NE(what.find("in: " + line), std::string::npos) << what;
    }
  }
  const ScenarioGrid equal = parse_grid("comm_lo = 0.5\ncomm_hi = 0.5\n");
  EXPECT_EQ(equal.ranges.comm_lo, equal.ranges.comm_hi);
}

TEST(GridFormat, AvailabilityAxesDoNotShiftExistingCellSeeds) {
  // Appended innermost with singleton defaults: a grid that predates the
  // axes keeps its exact indices and counter-derived seeds.
  const ScenarioGrid grid = small_grid();
  ASSERT_EQ(grid.avails.size(), 1u);
  ASSERT_EQ(grid.mtbf_tasks.size(), 1u);
  ASSERT_EQ(grid.outage_fracs.size(), 1u);
  EXPECT_EQ(cell_count(grid), 8u);
  const std::vector<ScenarioSpec> cells = expand(grid);
  const util::Rng seeder(grid.seed);
  for (const ScenarioSpec& cell : cells) {
    EXPECT_EQ(cell.config.seed, seeder.child_seed(cell.index));
  }
}

TEST(ParallelRunner, ChurnGridBitIdenticalAcrossThreadCounts) {
  const ScenarioGrid grid = churn_grid();
  const std::string one = run_to_csv(grid, 1);
  const std::string four = run_to_csv(grid, 4);
  EXPECT_EQ(one, four);
  // The disrupted cells must actually report disruptions: at least one
  // churn/rare-outage row carries a non-zero redispatches_mean.
  MemorySink memory;
  ParallelRunner runner;
  runner.run(grid, {&memory});
  double redispatches = 0.0;
  for (const ResultRecord& record : memory.records()) {
    redispatches += record.result.redispatches.mean;
    if (record.cell.config.avail == platform::AvailabilityModel::kAlways) {
      EXPECT_EQ(record.result.redispatches.mean, 0.0);
      EXPECT_EQ(record.result.lost_work.mean, 0.0);
    }
  }
  EXPECT_GT(redispatches, 0.0);
}

TEST(Checkpoint, ChurnRunResumesByteIdenticalAfterMidRunKill) {
  // The ISSUE's regression bar: kill a churny grid mid-run, resume, and
  // the output bytes must equal an uninterrupted run's.
  const ScenarioGrid grid = churn_grid();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "msol_churn_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto read_all = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };

  CheckpointOptions ref;
  ref.csv_path = (dir / "ref.csv").string();
  ref.manifest_path = (dir / "ref.manifest").string();
  ref.runner.threads = 2;
  run_checkpointed(grid, ref);

  struct KillAfterCells : ResultSink {
    explicit KillAfterCells(std::size_t allowed) : allowed_(allowed) {}
    void consume(const ResultRecord&) override {}
    void cell_complete(std::size_t, std::size_t) override {
      if (++seen_ > allowed_) throw std::runtime_error("simulated kill");
    }
    std::size_t allowed_;
    std::size_t seen_ = 0;
  } killer(1);

  CheckpointOptions options;
  options.csv_path = (dir / "out.csv").string();
  options.manifest_path = (dir / "out.manifest").string();
  options.runner.threads = 2;
  options.extra_sinks.push_back(&killer);
  EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);

  options.extra_sinks.clear();
  options.resume = true;
  const RunReport report = run_checkpointed(grid, options);
  EXPECT_GT(report.skipped, 0u) << "the kill should have left committed cells";
  EXPECT_EQ(read_all(dir / "out.csv"), read_all(dir / "ref.csv"));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------ meta ----

/// 4-cell grid running both meta kinds across bursty arrivals and churny
/// availability — the regimes where a hedge actually switches members and a
/// portfolio's projections disagree. Any thread- or resume-dependence in
/// the meta layer (member RNG derivation, detector state, projection reuse)
/// would break the byte-identity checks below.
ScenarioGrid meta_grid() {
  ScenarioGrid grid;
  grid.name = "meta";
  grid.seed = 31;
  grid.num_platforms = 2;
  grid.num_tasks = 40;
  grid.lookahead = 40;
  grid.algorithms = {"LS", "portfolio:LS;rank:queue+horizon:4",
                     "hedge:LS;rank:queue+window:8+hyst:2"};
  grid.classes = {PlatformClass::kFullyHeterogeneous};
  grid.slave_counts = {3};
  grid.arrivals = {ArrivalProcess::kPoisson, ArrivalProcess::kBursty};
  grid.loads = {0.9};
  grid.jitters = {0.0};
  grid.port_capacities = {1};
  grid.avails = {platform::AvailabilityModel::kAlways,
                 platform::AvailabilityModel::kChurn};
  grid.mtbf_tasks = {12.0};
  grid.outage_fracs = {0.3};
  return grid;
}

TEST(GridFormat, MetaSpecsSurviveGridParsingAndSerialization) {
  const ScenarioGrid grid = parse_grid(
      "name = meta\n"
      "algo = LS, portfolio:LS;rank:queue+horizon:4, "
      "hedge:LS;SRPT+window:8+hyst:2\n");
  ASSERT_EQ(grid.algorithms.size(), 3u);
  EXPECT_EQ(grid.algorithms[1], "portfolio:LS;rank:queue+horizon:4");
  const ScenarioGrid reparsed = parse_grid(serialize_grid(grid));
  EXPECT_EQ(reparsed.algorithms, grid.algorithms);
  // Meta specs are validated at parse time like base specs.
  EXPECT_THROW(parse_grid("algo = portfolio:LS+horizon:2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_grid("algo = hedge:LS;SRPT+horizon:2\n"),
               std::invalid_argument);
}

TEST(ParallelRunner, MetaGridBitIdenticalAcrossThreadCounts) {
  const ScenarioGrid grid = meta_grid();
  const std::string one = run_to_csv(grid, 1);
  const std::string four = run_to_csv(grid, 4);
  EXPECT_EQ(one, four);
  EXPECT_FALSE(one.empty());
  // The hedge must actually switch somewhere in the stressed cells — a
  // permanently calm detector would make this grid a no-op regression.
  MemorySink memory;
  ParallelRunner runner;
  runner.run(grid, {&memory});
  double switches = 0.0;
  for (const ResultRecord& record : memory.records()) {
    switches += record.result.switches.mean;
    if (record.result.name == "LS") {
      EXPECT_EQ(record.result.switches.mean, 0.0);  // base specs never switch
    }
  }
  EXPECT_GT(switches, 0.0);
}

TEST(Checkpoint, MetaGridResumesByteIdenticalAfterMidRunKill) {
  const ScenarioGrid grid = meta_grid();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "msol_meta_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto read_all = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };

  CheckpointOptions ref;
  ref.csv_path = (dir / "ref.csv").string();
  ref.manifest_path = (dir / "ref.manifest").string();
  ref.runner.threads = 2;
  run_checkpointed(grid, ref);

  struct KillAfterCells : ResultSink {
    explicit KillAfterCells(std::size_t allowed) : allowed_(allowed) {}
    void consume(const ResultRecord&) override {}
    void cell_complete(std::size_t, std::size_t) override {
      if (++seen_ > allowed_) throw std::runtime_error("simulated kill");
    }
    std::size_t allowed_;
    std::size_t seen_ = 0;
  } killer(1);

  CheckpointOptions options;
  options.csv_path = (dir / "out.csv").string();
  options.manifest_path = (dir / "out.manifest").string();
  options.runner.threads = 2;
  options.extra_sinks.push_back(&killer);
  EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);

  options.extra_sinks.clear();
  options.resume = true;
  const RunReport report = run_checkpointed(grid, options);
  EXPECT_GT(report.skipped, 0u) << "the kill should have left committed cells";
  EXPECT_EQ(read_all(dir / "out.csv"), read_all(dir / "ref.csv"));
  std::filesystem::remove_all(dir);
}

TEST(Sinks, EmptyGridStillWritesCsvHeader) {
  std::ostringstream out;
  CsvSink csv(out);
  ParallelRunner runner;
  const RunReport report = runner.run_cells({}, {&csv});
  EXPECT_EQ(report.cells, 0u);
  EXPECT_EQ(out.str(), CsvSink::header() + "\n");
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// The exact CSV and JSONL bytes of a small grid, pinned: every number a
/// sink writes goes through util::fmt_exact, so a formatter or sink change
/// that moves a single byte of output fails here. The churn cell makes
/// lost_work and redispatches non-zero, the SRPT row gives the norm_*
/// columns their reference, and the SLJF row covers the planner's raw
/// makespans and flows.
TEST(Sinks, OutputBytesArePinned) {
  ScenarioGrid grid;
  grid.name = "pinned";
  grid.seed = 2006;
  grid.num_platforms = 2;
  grid.num_tasks = 40;
  grid.lookahead = 40;
  grid.algorithms = {"SRPT", "LS", "SLJF"};
  grid.classes = {PlatformClass::kFullyHeterogeneous};
  grid.slave_counts = {3};
  grid.arrivals = {ArrivalProcess::kPoisson};
  grid.loads = {0.9};
  grid.jitters = {0.1};
  grid.port_capacities = {1};
  grid.avails = {platform::AvailabilityModel::kAlways,
                 platform::AvailabilityModel::kChurn};
  grid.mtbf_tasks = {12.0};
  grid.outage_fracs = {0.3};

  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  CsvSink csv(csv_out);
  JsonLinesSink jsonl(jsonl_out);
  MemorySink memory;
  RunnerOptions options;
  options.threads = 1;
  ParallelRunner(options).run(grid, {&csv, &jsonl, &memory});

  double lost_work = 0.0;
  double redispatches = 0.0;
  double norm_makespan = 0.0;
  for (const ResultRecord& record : memory.records()) {
    lost_work += record.result.lost_work.mean;
    redispatches += record.result.redispatches.mean;
    norm_makespan += record.result.norm_makespan.mean;
  }
  EXPECT_GT(lost_work, 0.0);
  EXPECT_GT(redispatches, 0.0);
  EXPECT_GT(norm_makespan, 0.0);
  EXPECT_EQ(fnv1a64(csv_out.str()), 16662078576084365990ULL);
  EXPECT_EQ(fnv1a64(jsonl_out.str()), 13812869709978002129ULL);
}

/// Every committed grid's manifest config hash, pinned: a manifest written
/// by an earlier build names one of these, and --resume refuses a manifest
/// whose hash differs, so a change to the grid parser or serializer that
/// moves any of them would strand every run in progress.
TEST(Checkpoint, CommittedGridConfigHashesArePinned) {
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"bench/suite/workloads/fleet_sharded.grid", 6436290469026585056ULL},
      {"bench/suite/workloads/fleet_single.grid", 1475229506311261275ULL},
      {"bench/suite/workloads/meta_portfolio.grid", 9627404231300801785ULL},
      {"bench/suite/workloads/paper_sweep.grid", 5769858475479096446ULL},
      {"examples/bursty_regimes.grid", 4291294504304598677ULL},
      {"examples/churn.grid", 9522382221049159593ULL},
      {"examples/fig1_sweep.grid", 12957045097037394558ULL},
      {"examples/meta_policies.grid", 16029376005744212565ULL},
      {"examples/paper/arrival.grid", 6650147348152257280ULL},
      {"examples/paper/extended.grid", 574254966437538913ULL},
      {"examples/paper/fig1.grid", 2743830081732073389ULL},
      {"examples/paper/lookahead.grid", 5712867357904672553ULL},
      {"examples/paper/port.grid", 6583281236776099832ULL},
      {"examples/paper/scaleup.grid", 7041528547129511953ULL},
      {"examples/paper/throttle.grid", 12762775621738477160ULL},
      {"examples/policy_zoo.grid", 12415834871338266562ULL},
      {"examples/robustness.grid", 16983357679257121938ULL},
  };
  const std::filesystem::path root(MSOL_SOURCE_DIR);
  std::set<std::string> listed;
  for (const auto& [file, hash] : pinned) {
    listed.insert(file);
    EXPECT_EQ(grid_config_hash(load_grid((root / file).string())), hash)
        << file;
  }
  // A grid committed later must join the table.
  for (const char* dir :
       {"examples", "examples/paper", "bench/suite/workloads"}) {
    for (const auto& entry : std::filesystem::directory_iterator(root / dir)) {
      if (entry.path().extension() != ".grid") continue;
      const std::string file =
          std::filesystem::relative(entry.path(), root).generic_string();
      EXPECT_EQ(listed.count(file), 1u) << file << " has no pinned hash";
    }
  }
}

}  // namespace
}  // namespace msol::runner
