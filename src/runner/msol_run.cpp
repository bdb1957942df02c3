// msol_run — scenario-grid driver.
//
//   msol_run <grid-file> [--threads N] [--csv out.csv] [--jsonl out.jsonl]
//            [--shards K --shard-index I] [--resume] [--manifest FILE]
//            [--dry-run] [--print-grid] [--quiet]
//   msol_run merge (--csv OUT | --jsonl OUT) SHARD-OUTPUT...
//   msol_run fit SWEEP.csv [--search] [...]
//   msol_run --list-algorithms
//
// Loads a declarative scenario grid (see src/runner/scenario.hpp for the
// format), executes every cell on a worker pool, and writes one record per
// (cell, algorithm) to the requested sinks. Output is bit-identical for any
// --threads value; per-cell seeds come from the grid seed by counter-based
// mixing, so any cell can be reproduced standalone from its cell_seed.
//
// File-backed runs are checkpointed: a manifest next to the output records
// each completed cell, `--resume` skips the committed cells and appends,
// `--shards K --shard-index I` runs the deterministic 1/K slice with cell
// indices and seeds untouched, and `msol_run merge` interleaves per-shard
// outputs back into canonical order. Killed+resumed and sharded+merged
// runs are byte-identical to an uninterrupted single-process run (see
// src/runner/checkpoint.hpp).
//
// `--shards` splits the grid's cells across runs; it is not engine
// sharding. How each cell simulates its fleet (`engine_shards`,
// `shard_routing`, `shard_threads`) is set only by the grid file's keys of
// those names, so `--print-grid` and the manifest's config hash record it.

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "experiments/spec_fit.hpp"
#include "runner/checkpoint.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"
#include "theory/search.hpp"
#include "util/cli.hpp"
#include "util/parse.hpp"

namespace {

constexpr const char* kUsage =
    "usage: msol_run <grid-file> [--threads N] [--csv FILE] [--jsonl FILE]\n"
    "                [--shards K --shard-index I] [--resume]\n"
    "                [--manifest FILE] [--dry-run] [--print-grid] [--quiet]\n"
    "       msol_run merge (--csv OUT | --jsonl OUT) SHARD-OUTPUT...\n"
    "       msol_run fit SWEEP.csv [--search] [--classes LIST] [--slaves N]\n"
    "                [--tasks N] [--iterations N] [--restarts N] [--seed S]\n"
    "       msol_run --list-algorithms\n"
    "\n"
    "  --threads N       worker threads (default 1; 0 = all hardware threads)\n"
    "  --window N        cap completed-but-unemitted cells in memory (0 =\n"
    "                    unbounded); output stays byte-identical\n"
    "  --csv FILE        write one CSV row per (cell, algorithm); '-' = stdout\n"
    "  --jsonl FILE      write one JSON object per line; '-' = stdout\n"
    "  --shards K        split the grid across K independent runs\n"
    "  --shard-index I   which 1/K slice this run executes (0-based)\n"
    "                    (engine sharding is set by the grid's\n"
    "                    engine_shards, shard_routing, shard_threads keys)\n"
    "  --resume          skip cells committed in the manifest, append output\n"
    "  --manifest FILE   completion manifest path (default: first file\n"
    "                    output + '.manifest')\n"
    "  --dry-run         list the expanded cells and exit without running\n"
    "  --print-grid      echo the parsed grid in canonical form\n"
    "  --quiet           suppress the progress line\n"
    "\n"
    "  merge             interleave per-shard outputs back into canonical\n"
    "                    single-run order (byte-identical to unsharded)\n"
    "  fit               regress rank:linear weights per (arrival, avail)\n"
    "                    regime from a sweep CSV and print the recommended\n"
    "                    specs; --search additionally runs the adversarial\n"
    "                    spec-space search over the fitted and single-\n"
    "                    feature specs per --classes (default: all four),\n"
    "                    reporting the most robust composition per class\n"
    "  --list-algorithms print registry names with their canonical policy\n"
    "                    specs (any spec in that grammar is a valid\n"
    "                    algorithms= / algo= grid entry)\n";

const std::set<std::string> kValueKeys = {
    "threads", "csv",     "jsonl",      "shards",   "shard-index", "manifest",
    "classes", "slaves",  "tasks",      "iterations", "restarts",  "seed",
    "window"};
const std::set<std::string> kKnownKeys = {
    "threads", "csv",        "jsonl",      "shards", "shard-index",
    "manifest", "resume",    "dry-run",    "print-grid", "quiet",
    "help",    "list-algorithms",
    "search",  "classes",    "slaves",     "tasks",  "iterations",
    "restarts", "seed",      "window"};

int run_merge(const msol::util::Cli& cli) {
  using namespace msol;
  const bool has_csv = cli.has("csv");
  const bool has_jsonl = cli.has("jsonl");
  if (has_csv == has_jsonl) {
    std::cerr << "msol_run merge: exactly one of --csv/--jsonl names the "
                 "merged output\n"
              << kUsage;
    return 2;
  }
  const std::vector<std::string> inputs(cli.positional().begin() + 1,
                                        cli.positional().end());
  if (inputs.empty()) {
    std::cerr << "msol_run merge: no shard output files given\n" << kUsage;
    return 2;
  }
  const runner::OutputKind kind =
      has_csv ? runner::OutputKind::kCsv : runner::OutputKind::kJsonl;
  const std::string out_path = cli.get(has_csv ? "csv" : "jsonl", "-");

  runner::MergeStats stats;
  if (out_path == "-") {
    stats = runner::merge_outputs(kind, inputs, std::cout);
  } else {
    stats = runner::merge_outputs_to_file(kind, inputs, out_path);
  }
  if (!cli.has("quiet")) {
    std::cerr << "merged " << stats.rows << " rows (" << stats.cells
              << " cells) from " << inputs.size() << " shard files\n";
  }
  return 0;
}

/// What `fit --search` searches: the platform classes and the instance
/// size, iteration budget and seed of each adversarial search.
struct SearchOptions {
  std::vector<msol::platform::PlatformClass> classes;
  msol::theory::SearchConfig config;
};

SearchOptions parse_search_options(const msol::util::Cli& cli) {
  using namespace msol;
  SearchOptions search;
  const std::string classes_arg = cli.get("classes", "");
  if (classes_arg.empty()) {
    search.classes = {platform::PlatformClass::kFullyHomogeneous,
                      platform::PlatformClass::kCommHomogeneous,
                      platform::PlatformClass::kCompHomogeneous,
                      platform::PlatformClass::kFullyHeterogeneous};
  } else {
    for (const std::string& item : util::split(classes_arg, ',')) {
      const std::string token = util::trim(item);
      if (!token.empty()) {
        search.classes.push_back(runner::parse_platform_class(token));
      }
    }
    if (search.classes.empty()) {
      throw std::runtime_error("--classes names no platform class");
    }
  }
  search.config.num_slaves = cli.get_int("slaves", 2);
  search.config.num_tasks = cli.get_int("tasks", 4);
  search.config.iterations = cli.get_int("iterations", 400);
  search.config.restarts = cli.get_int("restarts", 3);
  search.config.seed = cli.get_uint64("seed", 2006);
  theory::check_search_config(search.config);
  return search;
}

int run_fit(const msol::util::Cli& cli) {
  using namespace msol;
  if (cli.positional().size() != 2) {
    std::cerr << "msol_run fit: exactly one sweep CSV expected\n" << kUsage;
    return 2;
  }
  // A bad --search option fails here, before the fit prints anything.
  std::optional<SearchOptions> search;
  if (cli.has("search")) search = parse_search_options(cli);
  const std::vector<experiments::FitSample> samples =
      experiments::load_fit_samples_file(cli.positional()[1]);
  std::cout << samples.size() << " usable samples (rank:linear-expressible "
            << "specs with finite norm_makespan)\n";
  const std::vector<experiments::FitResult> fits =
      experiments::fit_linear_weights(samples);
  if (fits.empty()) {
    std::cout << "no regime had two distinct weight points; nothing to fit\n";
    return samples.empty() ? 1 : 0;
  }
  std::vector<std::string> fitted_specs;
  for (const experiments::FitResult& fit : fits) {
    std::cout << "regime " << fit.regime << " (" << fit.samples
              << " samples)\n  beta      ";
    for (double b : fit.beta) std::cout << " " << b;
    std::cout << "\n  weights   ";
    for (double w : fit.recommended) std::cout << " " << w;
    std::cout << "\n  spec       " << fit.spec << "\n";
    fitted_specs.push_back(fit.spec);
  }

  if (!search) return 0;

  // Candidate pool: the fitted blends plus the five simplex vertices they
  // interpolate between.
  std::vector<std::string> candidates = fitted_specs;
  for (const char* vertex :
       {"rank:completion", "rank:comm", "rank:comp", "rank:queue",
        "rank:ready"}) {
    candidates.emplace_back(vertex);
  }
  const std::vector<experiments::RobustSpecResult> report =
      experiments::robust_spec_search(candidates, search->classes,
                                      search->config);
  std::map<std::string, const experiments::RobustSpecResult*> best;
  for (const experiments::RobustSpecResult& entry : report) {
    std::cout << platform::to_string(entry.platform_class) << "  "
              << entry.worst_ratio << "  " << entry.spec << "\n";
    auto& slot = best[platform::to_string(entry.platform_class)];
    if (slot == nullptr || entry.worst_ratio < slot->worst_ratio) {
      slot = &entry;
    }
  }
  for (const auto& [cls, entry] : best) {
    std::cout << "most robust on " << cls << ": " << entry->spec
              << " (worst-case ratio " << entry->worst_ratio << ")\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msol;

  try {
    const util::Cli cli(argc, argv, kValueKeys);
    if (cli.has("help")) {
      std::cout << kUsage;
      return 0;
    }
    for (const std::string& key : cli.keys()) {
      if (kKnownKeys.count(key) == 0) {
        std::cerr << "msol_run: unknown option --" << key << "\n" << kUsage;
        return 2;
      }
    }
    if (!cli.positional().empty() && cli.positional()[0] == "merge") {
      return run_merge(cli);
    }
    if (!cli.positional().empty() && cli.positional()[0] == "fit") {
      return run_fit(cli);
    }
    if (cli.has("list-algorithms")) {
      for (const std::string& name : algorithms::listed_algorithm_names()) {
        std::cout << name << "  " << algorithms::canonical_spec(name) << "\n";
      }
      std::cout << "LS-K<k>  (any k >= 1; spec grammar: see README "
                   "\"Composing policies\")\n";
      std::cout << "rank:linear:<w0>:<w1>:<w2>:<w3>:<w4>  (learned blend of "
                   "completion/comm/comp/queue/ready; fit with `msol_run "
                   "fit`)\n";
      std::cout << "portfolio:<spec>;<spec>[;...]+horizon:<h>  (per-decision "
                   "forward simulation, best member commits)\n";
      std::cout << "hedge:<specA>;<specB>+window:<n>+hyst:<k>  (regime "
                   "detector switches calm->A, bursty/churn->B)\n";
      return 0;
    }
    if (cli.positional().size() != 1) {
      std::cerr << kUsage;
      return 2;
    }

    const runner::ScenarioGrid grid = runner::load_grid(cli.positional()[0]);
    const bool quiet = cli.has("quiet");
    const std::size_t shards = cli.get_uint64("shards", 1);
    const std::size_t shard_index = cli.get_uint64("shard-index", 0);
    if (shards == 0 || shard_index >= shards) {
      throw std::runtime_error("--shard-index must be < --shards (>= 1)");
    }

    if (cli.has("print-grid")) std::cout << runner::serialize_grid(grid);
    if (cli.has("dry-run")) {
      const std::vector<runner::ScenarioSpec> cells =
          runner::shard_cells(runner::expand(grid), shards, shard_index);
      for (const runner::ScenarioSpec& cell : cells) {
        std::cout << cell.index << "  seed=" << cell.config.seed << "  "
                  << cell.id << "\n";
      }
      std::cout << cells.size() << " cells";
      if (shards > 1) {
        std::cout << " (shard " << shard_index << "/" << shards << ")";
      }
      std::cout << "\n";
      return 0;
    }

    const std::string csv = cli.get("csv", "");
    const std::string jsonl = cli.get("jsonl", "");
    const std::string csv_file = (cli.has("csv") && csv != "-") ? csv : "";
    const std::string jsonl_file =
        (cli.has("jsonl") && jsonl != "-") ? jsonl : "";
    if (csv == "-" && jsonl == "-") {
      throw std::runtime_error("only one of --csv/--jsonl can stream to stdout");
    }

    // Manifest path: explicit flag, else derived from the first file
    // output. Runs with only stdout (or no) sinks have nothing durable to
    // checkpoint and fall through to a plain run.
    std::string manifest = cli.get("manifest", "");
    if (manifest.empty()) {
      if (!csv_file.empty()) {
        manifest = csv_file + ".manifest";
      } else if (!jsonl_file.empty()) {
        manifest = jsonl_file + ".manifest";
      }
    }
    if (cli.has("resume") && manifest.empty()) {
      throw std::runtime_error(
          "--resume needs file output (--csv/--jsonl FILE) or --manifest");
    }

    runner::RunnerOptions runner_options;
    runner_options.threads = cli.get_int("threads", 1, 0);
    runner_options.window =
        static_cast<std::size_t>(cli.get_int("window", 0, 0));
    if (!quiet) {
      runner_options.progress = [&](std::size_t done, std::size_t total) {
        std::cerr << "\r" << grid.name << ": " << done << "/" << total
                  << " cells" << (done == total ? "\n" : "") << std::flush;
      };
    }

    runner::RunReport report;
    // Stdout sinks are not checkpointable (nothing to repair/append), so
    // they ride along as extra sinks on the checkpointed path.
    std::unique_ptr<runner::ResultSink> stdout_sink;
    if (csv == "-") stdout_sink = std::make_unique<runner::CsvSink>(std::cout);
    if (jsonl == "-") {
      stdout_sink = std::make_unique<runner::JsonLinesSink>(std::cout);
    }

    if (!manifest.empty()) {
      runner::CheckpointOptions options;
      options.csv_path = csv_file;
      options.jsonl_path = jsonl_file;
      options.manifest_path = manifest;
      options.resume = cli.has("resume");
      options.shards = shards;
      options.shard_index = shard_index;
      options.runner = runner_options;
      if (stdout_sink) options.extra_sinks.push_back(stdout_sink.get());
      report = runner::run_checkpointed(grid, options);
    } else {
      std::vector<runner::ResultSink*> sinks;
      if (stdout_sink) sinks.push_back(stdout_sink.get());
      runner::ParallelRunner runner_(runner_options);
      report = runner_.run_cells(
          runner::shard_cells(runner::expand(grid), shards, shard_index),
          sinks);
    }

    if (!quiet) {
      std::cerr << report.cells << " cells";
      if (report.skipped > 0) {
        std::cerr << " (" << report.skipped << " resumed)";
      }
      std::cerr << ", " << report.records << " records in "
                << report.wall_seconds << "s ("
                << (report.wall_seconds > 0.0
                        ? report.cells / report.wall_seconds
                        : 0.0)
                << " cells/s)\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "msol_run: " << error.what() << "\n";
    return 1;
  }
}
