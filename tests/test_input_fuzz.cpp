// Deterministic mutation fuzzing of every text input: the grid format,
// policy and meta specs, workload, platform and schedule files, the
// spec_fit sweep CSV and the checkpoint manifest. A fixed-seed util::Rng
// applies bit flips, splices and truncations to a seed corpus built from
// the example grids, the golden traces, the registry's spec strings and
// serialized generated inputs. Every mutant must parse, or be rejected
// with std::invalid_argument or std::runtime_error whose message names the
// input kind; a grid or spec that parses must survive its serializer. Any
// other exception, a crash, or a sanitizer report fails the suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/meta/meta_spec.hpp"
#include "algorithms/policy_spec.hpp"
#include "algorithms/registry.hpp"
#include "core/schedule_io.hpp"
#include "core/workload.hpp"
#include "core/workload_io.hpp"
#include "experiments/spec_fit.hpp"
#include "platform/generator.hpp"
#include "platform/io.hpp"
#include "runner/checkpoint.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"
#include "util/rng.hpp"

namespace msol {
namespace {

constexpr std::uint64_t kSeed = 20061;
constexpr int kMutants = 4000;  ///< per target, after its unmutated corpus

/// Tokens the readers must take apart: non-finite and out-of-range
/// numbers, signs, separators of every format, and a NUL byte.
const std::vector<std::string>& hostile_tokens() {
  static const std::vector<std::string> kTokens = {
      "nan", "inf", "-1", "-0", "0", "2.9", "1e3", "1e300", "1e-320", "1e999",
      "4294967297", "9223372036854775808", "18446744073709551616", "0x1p3",
      "+", ":", ";", ",", "=", "#", " ", "\t", "\r", "\n", "cell ",
      "portfolio:", "hedge:", "rank:linear:", "LS-K", "horizon:", "seed = ",
      std::string(1, '\0')};
  return kTokens;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The files in `dir` with extension `ext`, in name order.
std::vector<std::string> read_dir(const std::string& dir,
                                  const std::string& ext) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) texts.push_back(read_file(path));
  return texts;
}

std::vector<std::string> example_grids() {
  std::vector<std::string> grids = read_dir(MSOL_EXAMPLES_DIR, ".grid");
  for (std::string& grid : read_dir(MSOL_EXAMPLES_DIR "/paper", ".grid")) {
    grids.push_back(std::move(grid));
  }
  return grids;
}

/// Applies one to four flips, splices and truncations.
std::string mutate(std::string text, const std::vector<std::string>& corpus,
                   util::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::size_t steps = 1 + pick(4);
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t at = pick(text.size() + 1);
    const std::size_t op = pick(5);
    if (op <= 1) {  // flip one bit of one byte
      if (!text.empty()) {
        text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
      }
    } else if (op <= 3) {  // splice a hostile token or a slice of a donor
      std::string piece;
      if (rng.chance(0.5)) {
        piece = hostile_tokens()[pick(hostile_tokens().size())];
      } else {
        const std::string& donor = corpus[pick(corpus.size())];
        piece = donor.substr(pick(donor.size() + 1), 1 + pick(24));
      }
      text.replace(at, std::min(pick(8), text.size() - at), piece);
    } else {  // truncate
      text.resize(at);
    }
  }
  return text;
}

/// Runs `same` (serialize, reparse, compare); a throw or a mismatch
/// becomes a std::logic_error, which the harness reports as a failure
/// instead of taking it for a rejection.
void round_trip(const std::function<bool()>& same) {
  bool ok = false;
  try {
    ok = same();
  } catch (const std::exception& error) {
    throw std::logic_error(std::string("round trip threw: ") + error.what());
  }
  if (!ok) throw std::logic_error("round trip changed the value");
}

std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte == '\n') {
      out += "\\n";
    } else if (byte == '\\') {
      out += "\\\\";
    } else if (byte < 0x20 || byte >= 0x7f) {
      static const char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[byte >> 4];
      out += kHex[byte & 15];
    } else {
      out += c;
    }
  }
  return out;
}

std::string lower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

/// Feeds `parse` the unmutated corpus, then `mutants` mutants of it, and
/// stops at the first input that breaks the oracle.
void fuzz(const std::string& kind, const std::vector<std::string>& corpus,
          const std::function<void(const std::string&)>& parse,
          int mutants = kMutants) {
  ASSERT_FALSE(corpus.empty()) << kind;
  util::Rng rng(kSeed);
  const std::size_t total = corpus.size() + static_cast<std::size_t>(mutants);
  for (std::size_t i = 0; i < total; ++i) {
    const std::string input =
        i < corpus.size()
            ? corpus[i]
            : mutate(corpus[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(corpus.size()) - 1))],
                     corpus, rng);
    std::string error;
    try {
      parse(input);
      continue;
    } catch (const std::invalid_argument& e) {
      error = e.what();
    } catch (const std::runtime_error& e) {
      error = e.what();
    } catch (const std::exception& e) {
      FAIL() << kind << " input " << i << ": " << e.what() << "\n  input: \""
             << escaped(input) << "\"";
    }
    if (lower(error).find(kind) == std::string::npos) {
      FAIL() << kind << " input " << i << ": message does not name the "
             << "input kind: " << error << "\n  input: \"" << escaped(input)
             << "\"";
    }
  }
}

// ------------------------------------------------------------------ grid ----

TEST(InputFuzz, Grid) {
  fuzz("grid", example_grids(), [](const std::string& text) {
    const runner::ScenarioGrid grid = runner::parse_grid(text);
    round_trip([&grid] {
      const std::string canonical = runner::serialize_grid(grid);
      return runner::serialize_grid(runner::parse_grid(canonical)) ==
             canonical;
    });
  });
}

// ----------------------------------------------------------------- specs ----

/// The registry's names and their canonical specs, plus every algorithm
/// the example grids name, split into (policy specs, meta specs).
std::pair<std::vector<std::string>, std::vector<std::string>> spec_corpus() {
  std::vector<std::string> policies, metas;
  for (const std::string& name : algorithms::listed_algorithm_names()) {
    policies.push_back(name);
    policies.push_back(algorithms::canonical_spec(name));
  }
  for (const std::string& text : example_grids()) {
    for (const std::string& spec : runner::parse_grid(text).algorithms) {
      (algorithms::meta::is_meta_spec(spec) ? metas : policies)
          .push_back(spec);
    }
  }
  return {policies, metas};
}

TEST(InputFuzz, PolicySpec) {
  fuzz("policy spec", spec_corpus().first, [](const std::string& text) {
    const algorithms::PolicySpec spec = algorithms::parse_policy_spec(text);
    round_trip([&spec] {
      return algorithms::parse_policy_spec(algorithms::to_string(spec)) ==
             spec;
    });
  });
}

TEST(InputFuzz, MetaSpec) {
  const std::vector<std::string> metas = spec_corpus().second;
  ASSERT_FALSE(metas.empty());  // examples/meta_policies.grid has some
  fuzz("meta spec", metas, [](const std::string& text) {
    const algorithms::meta::MetaSpec spec =
        algorithms::meta::parse_meta_spec(text);
    round_trip([&spec] {
      return algorithms::meta::parse_meta_spec(
                 algorithms::meta::to_string(spec)) == spec;
    });
  });
}

// ------------------------------------------------------------ data files ----

TEST(InputFuzz, Workload) {
  util::Rng rng(kSeed);
  const core::Workload poisson = core::Workload::poisson(12, 1.5, rng);
  const std::vector<std::string> corpus = {
      core::serialize(poisson),
      core::serialize(poisson.with_size_jitter(0.3, rng)),
      core::serialize(core::Workload::bursty(12, 4, 2.0, rng)),
      "# releases only\n0\n0.5 # inline\n\n2\n"};
  fuzz("workload", corpus,
       [](const std::string& text) { core::parse_workload(text); });
}

TEST(InputFuzz, Platform) {
  util::Rng rng(kSeed);
  const platform::PlatformGenerator generator;
  std::vector<std::string> corpus;
  for (platform::PlatformClass cls :
       {platform::PlatformClass::kFullyHomogeneous,
        platform::PlatformClass::kFullyHeterogeneous}) {
    corpus.push_back(platform::serialize(generator.generate(cls, 5, rng)));
  }
  fuzz("platform", corpus,
       [](const std::string& text) { platform::parse(text); });
}

/// A golden trace's schedule: its first rows after the comment lines.
std::string golden_schedule(const std::string& golden) {
  std::istringstream in(golden);
  std::string out, line;
  for (int rows = 0; rows < 24 && std::getline(in, line);) {
    if (line.rfind('#', 0) == 0) continue;
    out += line + '\n';
    ++rows;
  }
  return out;
}

TEST(InputFuzz, ScheduleCsv) {
  std::vector<std::string> corpus;
  for (const std::string& golden : read_dir(MSOL_GOLDEN_DIR, ".golden")) {
    corpus.push_back(golden_schedule(golden));
  }
  fuzz("schedule csv", corpus,
       [](const std::string& text) { core::from_csv(text); });
}

TEST(InputFuzz, SpecFitSweepCsv) {
  runner::ScenarioGrid grid;
  grid.name = "fuzz";
  grid.num_platforms = 1;
  grid.num_tasks = 20;
  grid.algorithms = {"LS", "SRPT", "rank:linear:0.5:0.25:0.25:0:0"};
  grid.arrivals = {experiments::ArrivalProcess::kPoisson,
                   experiments::ArrivalProcess::kBursty};
  grid.slave_counts = {3};
  std::ostringstream csv;
  runner::CsvSink sink(csv);
  runner::ParallelRunner().run(grid, {&sink});
  fuzz("spec_fit", {csv.str()}, [](const std::string& text) {
    std::istringstream in(text);
    experiments::load_fit_samples(in);
  });
}

TEST(InputFuzz, CheckpointManifest) {
  const runner::ScenarioGrid grid = runner::parse_grid(example_grids()[0]);
  runner::ManifestInfo info;
  info.grid_name = grid.name;
  info.grid_seed = grid.seed;
  info.total_cells = runner::cell_count(grid);
  info.config_hash = runner::grid_config_hash(grid);
  const std::string header = runner::manifest_header(info) + '\n';
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "msol_input_fuzz.manifest";
  fuzz(
      "manifest", {header, header + "cell 0 2\ncell 3 2\ncell 1 2\n"},
      [&path](const std::string& text) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
        runner::load_manifest(path.string());
      },
      kMutants / 3);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace msol
