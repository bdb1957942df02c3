#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/checkpoint.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"

namespace msol::runner {
namespace {

using experiments::ArrivalProcess;
using platform::PlatformClass;

/// 8-cell grid, small enough to run in milliseconds but wide enough that a
/// sharded or interrupted run exercises out-of-order completion.
ScenarioGrid small_grid() {
  ScenarioGrid grid;
  grid.name = "ckpt";
  grid.seed = 11;
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

std::string read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_all(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Fresh scratch directory per test.
class CheckpointTest : public ::testing::Test {
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

  /// Uninterrupted single-process reference run; returns (csv, jsonl)
  /// bytes and leaves the files in place.
  std::pair<std::string, std::string> reference_run(const ScenarioGrid& grid,
                                                    int threads) {
    CheckpointOptions options;
    options.csv_path = path("ref.csv").string();
    options.jsonl_path = path("ref.jsonl").string();
    options.manifest_path = path("ref.manifest").string();
    options.runner.threads = threads;
    run_checkpointed(grid, options);
    return {read_all(path("ref.csv")), read_all(path("ref.jsonl"))};
  }

  std::filesystem::path dir_;
};

/// Simulates a crash at the durable-commit point: the data sinks have
/// flushed the cell's rows, the manifest line has not landed yet (extra
/// sinks run after the file sinks and before the ManifestSink).
class KillAtCommit : public ResultSink {
 public:
  explicit KillAtCommit(std::size_t cells_allowed)
      : cells_allowed_(cells_allowed) {}
  void consume(const ResultRecord&) override {}
  void cell_complete(std::size_t, std::size_t) override {
    if (++seen_ > cells_allowed_) throw std::runtime_error("simulated kill");
  }

 private:
  std::size_t cells_allowed_;
  std::size_t seen_ = 0;
};

/// Simulates a crash mid-cell: the file sinks have already consumed this
/// record, so the output holds a partial, uncommitted cell.
class KillAtRecord : public ResultSink {
 public:
  explicit KillAtRecord(std::size_t records_allowed)
      : records_allowed_(records_allowed) {}
  void consume(const ResultRecord&) override {
    if (++seen_ > records_allowed_) throw std::runtime_error("simulated kill");
  }

 private:
  std::size_t records_allowed_;
  std::size_t seen_ = 0;
};

// ---------------------------------------------------------------- shards ----

TEST(ShardCells, PartitionsByIndexModuloPreservingOrderAndSeeds) {
  const std::vector<ScenarioSpec> all = expand(small_grid());
  std::set<std::size_t> seen;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::vector<ScenarioSpec> mine = shard_cells(all, 3, k);
    std::size_t previous = 0;
    for (const ScenarioSpec& cell : mine) {
      EXPECT_EQ(cell.index % 3, k);
      EXPECT_TRUE(seen.insert(cell.index).second);  // disjoint
      EXPECT_TRUE(previous <= cell.index);          // expansion order kept
      previous = cell.index;
      // Identity untouched: same id/seed as the unsharded expansion.
      EXPECT_EQ(cell.id, all[cell.index].id);
      EXPECT_EQ(cell.config.seed, all[cell.index].config.seed);
    }
  }
  EXPECT_EQ(seen.size(), all.size());  // exhaustive
}

TEST(ShardCells, SingleShardIsIdentityAndBadArgsThrow) {
  const std::vector<ScenarioSpec> all = expand(small_grid());
  EXPECT_EQ(shard_cells(all, 1, 0).size(), all.size());
  EXPECT_THROW(shard_cells(all, 0, 0), std::invalid_argument);
  EXPECT_THROW(shard_cells(all, 3, 3), std::invalid_argument);
}

// -------------------------------------------------------------- manifest ----

TEST_F(CheckpointTest, FreshRunWritesHeaderAndOneLinePerCell) {
  const ScenarioGrid grid = small_grid();
  reference_run(grid, 4);

  const ManifestData manifest = load_manifest(path("ref.manifest").string());
  ManifestInfo info;
  info.grid_name = grid.name;
  info.grid_seed = grid.seed;
  info.total_cells = 8;
  info.config_hash = grid_config_hash(grid);
  EXPECT_EQ(manifest.header, manifest_header(info));
  EXPECT_EQ(manifest.completed.size(), 8u);
  for (const auto& [cell, records] : manifest.completed) {
    EXPECT_LT(cell, 8u);
    EXPECT_EQ(records, 2u);  // two algorithms
  }
}

TEST_F(CheckpointTest, LoadManifestDropsTornAndMalformedTail) {
  write_all(path("m"),
            "# header line\n"
            "cell 0 2\n"
            "cell 3 2\n"
            "not a cell line\n"
            "cell 4 2\n"   // after corruption: ignored
            "cell 5");     // torn (no newline)
  const ManifestData manifest = load_manifest(path("m").string());
  EXPECT_EQ(manifest.header, "# header line");
  EXPECT_EQ(manifest.completed.size(), 2u);
  EXPECT_EQ(manifest.completed.count(0), 1u);
  EXPECT_EQ(manifest.completed.count(3), 1u);
}

TEST_F(CheckpointTest, LoadManifestEndsCommittedSetAtAMisreadNumber) {
  // "cell -1 7" used to commit cell 18446744073709551615.
  for (const char* bad : {"cell -1 7", "cell 1 -2", "cell 1.5 2", "cell 1 2x",
                          "cell 18446744073709551616 2", "cell +1 2",
                          "cell  1 2", "cell 1 2 "}) {
    write_all(path("m"), std::string("# header line\ncell 0 2\n") + bad +
                             "\ncell 4 2\n");
    const ManifestData manifest = load_manifest(path("m").string());
    EXPECT_EQ(manifest.completed.size(), 1u) << bad;
    EXPECT_EQ(manifest.completed.count(0), 1u) << bad;
  }
}

TEST_F(CheckpointTest, ResumeTruncatesTornManifestTailBeforeAppending) {
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, 1);

  CheckpointOptions options;
  options.csv_path = path("out.csv").string();
  options.jsonl_path = path("out.jsonl").string();
  options.manifest_path = path("out.manifest").string();

  KillAtCommit killer(2);
  options.extra_sinks.push_back(&killer);
  EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);

  // Simulate the kill landing mid-append: a torn half line at the tail.
  {
    std::ofstream tail(options.manifest_path,
                       std::ios::binary | std::ios::app);
    tail << "cell 2";  // no newline, no record count
  }

  options.extra_sinks.clear();
  options.resume = true;
  run_checkpointed(grid, options);
  EXPECT_EQ(read_all(path("out.csv")), ref_csv);
  EXPECT_EQ(read_all(path("out.jsonl")), ref_jsonl);

  // Had the torn tail survived, the first appended line would have fused
  // with it ("cell 2cell 2 2") and stalled every later resume there; the
  // repaired manifest must instead parse through to all 8 cells.
  const ManifestData manifest = load_manifest(options.manifest_path);
  EXPECT_EQ(manifest.completed.size(), 8u);
}

TEST_F(CheckpointTest, ResumeTreatsHeaderlessManifestAsFresh) {
  // A kill between manifest creation and the header flush leaves an empty
  // (or torn-header) file that provably committed nothing; resume restarts
  // fresh instead of dead-ending, and the result is still byte-identical.
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, 2);

  CheckpointOptions options;
  options.csv_path = path("out.csv").string();
  options.jsonl_path = path("out.jsonl").string();
  options.manifest_path = path("out.manifest").string();
  options.resume = true;
  write_all(options.manifest_path, "# msol-mani");  // torn header, no '\n'
  const RunReport report = run_checkpointed(grid, options);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(read_all(path("out.csv")), ref_csv);
  EXPECT_EQ(read_all(path("out.jsonl")), ref_jsonl);
  EXPECT_EQ(load_manifest(options.manifest_path).completed.size(), 8u);
}

TEST_F(CheckpointTest, RepairAndMergeHandleQuotedEmbeddedNewlines) {
  // csv_escape keeps raw newlines inside quoted fields, so one logical row
  // can span physical lines; repair/merge must not split it mid-field.
  const std::string header = CsvSink::header();
  const std::string row0 = "0,\"id\nwith \"\"break\"\"\",7,x\n";
  const std::string row1 = "1,plain,8,y\n";
  write_all(path("q.csv"), header + "\n" + row0 + row1);

  const std::map<std::size_t, std::size_t> committed{{0, 1}};
  const RepairResult repaired =
      repair_output(path("q.csv").string(), OutputKind::kCsv, committed);
  EXPECT_EQ(repaired.kept_rows, 1u);  // row0 is ONE row despite the '\n'
  EXPECT_EQ(repaired.dropped_rows, 1u);
  EXPECT_EQ(read_all(path("q.csv")), header + "\n" + row0);

  write_all(path("q.csv"), header + "\n" + row0 + row1);
  std::ostringstream merged;
  const MergeStats stats =
      merge_outputs(OutputKind::kCsv, {path("q.csv").string()}, merged);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(merged.str(), header + "\n" + row0 + row1);
}

TEST_F(CheckpointTest, LoadManifestRejectsMissingOrHeaderlessFiles) {
  EXPECT_THROW(load_manifest(path("absent").string()), std::runtime_error);
  write_all(path("torn"), "# header without newline");
  EXPECT_THROW(load_manifest(path("torn").string()), std::runtime_error);
}

// ---------------------------------------------------------------- repair ----

TEST_F(CheckpointTest, RepairTruncatesUncommittedAndTornRows) {
  const ScenarioGrid grid = small_grid();
  const auto [csv, jsonl] = reference_run(grid, 1);

  // Pretend only cells 0..2 committed; cells 3+ and a torn fragment must go.
  std::map<std::size_t, std::size_t> committed{{0, 2}, {1, 2}, {2, 2}};

  write_all(path("out.csv"), csv + "torn row without newli");
  const RepairResult r =
      repair_output(path("out.csv").string(), OutputKind::kCsv, committed);
  EXPECT_TRUE(r.header_present);
  EXPECT_EQ(r.kept_rows, 6u);     // 3 cells x 2 algorithms
  EXPECT_EQ(r.dropped_rows, 11u);  // 10 uncommitted + 1 torn
  const std::string repaired = read_all(path("out.csv"));
  EXPECT_EQ(repaired, csv.substr(0, repaired.size()));
  EXPECT_EQ(repaired.back(), '\n');

  write_all(path("out.jsonl"), jsonl);
  const RepairResult j =
      repair_output(path("out.jsonl").string(), OutputKind::kJsonl, committed);
  EXPECT_EQ(j.kept_rows, 6u);
  EXPECT_EQ(read_all(path("out.jsonl")), jsonl.substr(0, j.kept_bytes));
}

TEST_F(CheckpointTest, RepairHandlesMissingEmptyAndForeignFiles) {
  const std::map<std::size_t, std::size_t> committed{{0, 2}};
  const RepairResult missing =
      repair_output(path("absent").string(), OutputKind::kCsv, committed);
  EXPECT_EQ(missing.kept_bytes, 0u);
  EXPECT_FALSE(missing.header_present);

  write_all(path("foreign.csv"), "some,other,header\n0,data\n");
  const RepairResult foreign =
      repair_output(path("foreign.csv").string(), OutputKind::kCsv, committed);
  EXPECT_FALSE(foreign.header_present);
  EXPECT_EQ(foreign.kept_bytes, 0u);
  EXPECT_EQ(read_all(path("foreign.csv")), "");
}

// ---------------------------------------------------- resume determinism ----

class ResumeDeterminism : public CheckpointTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(ResumeDeterminism, KillAtCommitThenResumeIsByteIdentical) {
  const int threads = GetParam();
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, threads);

  CheckpointOptions options;
  options.csv_path = path("out.csv").string();
  options.jsonl_path = path("out.jsonl").string();
  options.manifest_path = path("out.manifest").string();
  options.runner.threads = threads;

  KillAtCommit killer(3);
  options.extra_sinks.push_back(&killer);
  EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);

  // Partial output is flushed (error-path close) and the manifest commits
  // exactly the cells whose rows are durable.
  const ManifestData manifest = load_manifest(options.manifest_path);
  EXPECT_GE(manifest.completed.size(), 3u);
  EXPECT_LT(manifest.completed.size(), 8u);

  options.extra_sinks.clear();
  options.resume = true;
  const RunReport report = run_checkpointed(grid, options);
  EXPECT_EQ(report.skipped, manifest.completed.size());
  EXPECT_EQ(read_all(path("out.csv")), ref_csv);
  EXPECT_EQ(read_all(path("out.jsonl")), ref_jsonl);
}

TEST_P(ResumeDeterminism, KillMidCellLeavesPartialRowsThatRepairDiscards) {
  const int threads = GetParam();
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, threads);

  CheckpointOptions options;
  options.csv_path = path("out.csv").string();
  options.jsonl_path = path("out.jsonl").string();
  options.manifest_path = path("out.manifest").string();
  options.runner.threads = threads;

  // 5 records = 2 complete cells + half of the third.
  KillAtRecord killer(5);
  options.extra_sinks.push_back(&killer);
  EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);

  options.extra_sinks.clear();
  options.resume = true;
  run_checkpointed(grid, options);
  EXPECT_EQ(read_all(path("out.csv")), ref_csv);
  EXPECT_EQ(read_all(path("out.jsonl")), ref_jsonl);
}

TEST_P(ResumeDeterminism, ResumingACompletedRunIsANoOp) {
  const int threads = GetParam();
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, threads);

  CheckpointOptions options;
  options.csv_path = path("ref.csv").string();
  options.jsonl_path = path("ref.jsonl").string();
  options.manifest_path = path("ref.manifest").string();
  options.runner.threads = threads;
  options.resume = true;
  const RunReport report = run_checkpointed(grid, options);
  EXPECT_EQ(report.skipped, 8u);
  EXPECT_EQ(report.records, 0u);
  EXPECT_EQ(read_all(path("ref.csv")), ref_csv);
  EXPECT_EQ(read_all(path("ref.jsonl")), ref_jsonl);
}

TEST_P(ResumeDeterminism, ShardedRunsMergeByteIdentical) {
  const int threads = GetParam();
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, threads);

  const std::size_t kShards = 3;
  std::vector<std::string> csv_paths;
  std::vector<std::string> jsonl_paths;
  for (std::size_t k = 0; k < kShards; ++k) {
    CheckpointOptions options;
    options.csv_path = path("s" + std::to_string(k) + ".csv").string();
    options.jsonl_path = path("s" + std::to_string(k) + ".jsonl").string();
    options.manifest_path =
        path("s" + std::to_string(k) + ".manifest").string();
    options.shards = kShards;
    options.shard_index = k;
    options.runner.threads = threads;
    run_checkpointed(grid, options);
    csv_paths.push_back(options.csv_path);
    jsonl_paths.push_back(options.jsonl_path);
  }

  std::ostringstream csv_out;
  const MergeStats stats =
      merge_outputs(OutputKind::kCsv, csv_paths, csv_out);
  EXPECT_EQ(stats.cells, 8u);
  EXPECT_EQ(stats.rows, 16u);
  EXPECT_EQ(csv_out.str(), ref_csv);

  std::ostringstream jsonl_out;
  merge_outputs(OutputKind::kJsonl, jsonl_paths, jsonl_out);
  EXPECT_EQ(jsonl_out.str(), ref_jsonl);
}

TEST_P(ResumeDeterminism, KilledShardResumesThenMergesByteIdentical) {
  const int threads = GetParam();
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, threads);

  const std::size_t kShards = 2;
  std::vector<std::string> csv_paths;
  for (std::size_t k = 0; k < kShards; ++k) {
    CheckpointOptions options;
    options.csv_path = path("s" + std::to_string(k) + ".csv").string();
    options.manifest_path =
        path("s" + std::to_string(k) + ".manifest").string();
    options.shards = kShards;
    options.shard_index = k;
    options.runner.threads = threads;
    if (k == 1) {  // interrupt shard 1 after its first committed cell
      KillAtCommit killer(1);
      options.extra_sinks.push_back(&killer);
      EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);
      options.extra_sinks.clear();
      options.resume = true;
    }
    run_checkpointed(grid, options);
    csv_paths.push_back(options.csv_path);
  }

  std::ostringstream merged;
  merge_outputs(OutputKind::kCsv, csv_paths, merged);
  EXPECT_EQ(merged.str(), ref_csv);
}

INSTANTIATE_TEST_SUITE_P(Threads, ResumeDeterminism, ::testing::Values(1, 4));

// ---------------------------------------------------------- resume guards ----

TEST_F(CheckpointTest, ResumeRejectsManifestFromDifferentRun) {
  const ScenarioGrid grid = small_grid();
  reference_run(grid, 1);

  CheckpointOptions options;
  options.csv_path = path("ref.csv").string();
  options.manifest_path = path("ref.manifest").string();
  options.resume = true;

  ScenarioGrid reseeded = grid;
  reseeded.seed = 12;
  EXPECT_THROW(run_checkpointed(reseeded, options), std::runtime_error);

  // Same name/seed/cell count but edited axis *values*: the config hash in
  // the header catches in-place grid edits that would silently mix configs.
  ScenarioGrid edited = grid;
  edited.loads = {0.8};  // still one value -> same cell count
  EXPECT_THROW(run_checkpointed(edited, options), std::runtime_error);

  // Same grid but a different shard assignment is a different run too.
  options.shards = 2;
  options.shard_index = 0;
  EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);

  // Resuming with no manifest at all fails loudly instead of restarting.
  options.shards = 1;
  options.manifest_path = path("absent.manifest").string();
  EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);
}

TEST_F(CheckpointTest, ResumeRejectsOutputMissingCommittedRows) {
  const ScenarioGrid grid = small_grid();
  reference_run(grid, 1);

  CheckpointOptions options;
  options.csv_path = path("ref.csv").string();
  options.jsonl_path = path("ref.jsonl").string();
  options.manifest_path = path("ref.manifest").string();
  options.resume = true;

  // The CSV vanished while the manifest survived: skipping the committed
  // cells would silently produce a file missing their rows forever.
  std::filesystem::remove(path("ref.csv"));
  EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);

  // Restoring a truncated copy (committed rows partially gone) is equally
  // inconsistent.
  write_all(path("ref.csv"), CsvSink::header() + "\n");
  EXPECT_THROW(run_checkpointed(grid, options), std::runtime_error);
}

// ----------------------------------------------------------- merge guards ----

TEST_F(CheckpointTest, MergeRejectsOverlapTornAndForeignInputs) {
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, 1);
  std::ostringstream out;

  // The same shard twice = every cell overlaps.
  EXPECT_THROW(merge_outputs(OutputKind::kCsv,
                             {path("ref.csv").string(),
                              path("ref.csv").string()},
                             out),
               std::runtime_error);

  write_all(path("torn.jsonl"), ref_jsonl + "{\"cell_index\":9,");
  EXPECT_THROW(merge_outputs(OutputKind::kJsonl,
                             {path("torn.jsonl").string()}, out),
               std::runtime_error);

  write_all(path("foreign.csv"), "not,the,header\n");
  EXPECT_THROW(merge_outputs(OutputKind::kCsv,
                             {path("foreign.csv").string()}, out),
               std::runtime_error);

  EXPECT_THROW(merge_outputs(OutputKind::kCsv, {}, out),
               std::invalid_argument);
}

TEST_F(CheckpointTest, MergeToFileRefusesOutputAmongInputsAndBuffersWrites) {
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, 1);

  // Re-running `merge --csv ref.csv *.csv` must not truncate-then-read the
  // previous merge result; the input must survive untouched.
  EXPECT_THROW(merge_outputs_to_file(OutputKind::kCsv,
                                     {path("ref.csv").string()},
                                     path("ref.csv").string()),
               std::runtime_error);
  EXPECT_EQ(read_all(path("ref.csv")), ref_csv);

  const MergeStats stats = merge_outputs_to_file(
      OutputKind::kJsonl, {path("ref.jsonl").string()},
      path("merged.jsonl").string());
  EXPECT_EQ(stats.rows, 16u);
  EXPECT_EQ(read_all(path("merged.jsonl")), ref_jsonl);
}

TEST_F(CheckpointTest, MergeOfOneCompleteFileIsIdentity) {
  const ScenarioGrid grid = small_grid();
  const auto [ref_csv, ref_jsonl] = reference_run(grid, 2);
  std::ostringstream csv_out;
  merge_outputs(OutputKind::kCsv, {path("ref.csv").string()}, csv_out);
  EXPECT_EQ(csv_out.str(), ref_csv);
  std::ostringstream jsonl_out;
  merge_outputs(OutputKind::kJsonl, {path("ref.jsonl").string()}, jsonl_out);
  EXPECT_EQ(jsonl_out.str(), ref_jsonl);
}

}  // namespace
}  // namespace msol::runner
