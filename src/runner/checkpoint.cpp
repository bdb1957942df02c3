#include "runner/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/parse.hpp"

namespace msol::runner {

namespace {

/// Reads a whole file as raw bytes; `must_exist` distinguishes "repair a
/// file a previous run may not have created" from "merge a named input".
bool read_file(const std::string& path, std::string& out, bool must_exist) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (must_exist) {
      throw std::runtime_error("cannot read '" + path + "'");
    }
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// The cell index a CSV or JSONL data row starts with; empty for anything
/// else (header, torn line, garbage).
std::optional<std::uint64_t> parse_row_cell(OutputKind kind,
                                            const std::string& line) {
  std::size_t pos = 0;
  if (kind == OutputKind::kJsonl) {
    static const std::string kPrefix = "{\"cell_index\":";
    if (line.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
    pos = kPrefix.size();
  }
  // Both formats follow the index with ',' (CSV field separator, JSON
  // object separator), which also rejects a torn digits-only prefix.
  const std::size_t comma = line.find(',', pos);
  if (comma == std::string::npos) return std::nullopt;
  return util::parse_uint64(line.substr(pos, comma - pos));
}

/// One complete ('\n'-terminated) line, byte offsets into the file buffer.
struct Line {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< one past the '\n'
};

/// Splits `text` into complete lines; a torn final line (no trailing
/// newline) is *not* included and reported via `torn_tail`. With
/// `csv_quoted`, a newline inside an RFC-4180 quoted field does not end
/// the row (csv_escape keeps embedded newlines raw inside quotes, so one
/// logical CSV row may span several physical lines; the doubled "" escape
/// toggles the quote state twice and is therefore handled for free).
std::vector<Line> complete_lines(const std::string& text, bool& torn_tail,
                                 bool csv_quoted = false) {
  std::vector<Line> lines;
  std::size_t begin = 0;
  bool in_quotes = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (csv_quoted && text[i] == '"') {
      in_quotes = !in_quotes;
    } else if (text[i] == '\n' && !in_quotes) {
      lines.push_back({begin, i + 1});
      begin = i + 1;
    }
  }
  torn_tail = begin < text.size();
  return lines;
}

std::string line_text(const std::string& text, const Line& line) {
  // Without the trailing newline.
  return text.substr(line.begin, line.end - line.begin - 1);
}

}  // namespace

// -------------------------------------------------------------- manifest ----

std::uint64_t grid_config_hash(const ScenarioGrid& grid) {
  const std::string canonical = serialize_grid(grid);
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64
  for (const char c : canonical) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string manifest_header(const ManifestInfo& info) {
  // grid= comes last and takes the rest of the line, so names containing
  // spaces and '=' stay unambiguous.
  return "# msol-manifest v1 seed=" + std::to_string(info.grid_seed) +
         " cells=" + std::to_string(info.total_cells) +
         " shards=" + std::to_string(info.shards) +
         " shard-index=" + std::to_string(info.shard_index) +
         " config=" + std::to_string(info.config_hash) +
         " grid=" + info.grid_name;
}

namespace {

/// Parses manifest text that is known to contain at least one complete
/// line (the header); shared by load_manifest and the resume path, which
/// treats a headerless file as a provably-empty manifest instead.
ManifestData parse_manifest_text(const std::string& text) {
  bool torn_tail = false;
  const std::vector<Line> lines = complete_lines(text, torn_tail);

  ManifestData data;
  data.header = line_text(text, lines[0]);
  data.valid_bytes = lines[0].end;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    // Strict "cell <index> <records>" parse; the first malformed line ends
    // the committed set (it and anything after it is treated like a torn
    // tail: those cells rerun).
    const std::vector<std::string> fields =
        util::split(line_text(text, lines[i]), ' ');
    if (fields.size() != 3 || fields[0] != "cell") break;
    const std::optional<std::uint64_t> cell = util::parse_uint64(fields[1]);
    const std::optional<std::uint64_t> records = util::parse_uint64(fields[2]);
    if (!cell || !records) break;
    data.completed[*cell] = *records;
    data.valid_bytes = lines[i].end;
  }
  return data;
}

}  // namespace

ManifestData load_manifest(const std::string& path) {
  std::string text;
  read_file(path, text, /*must_exist=*/true);
  bool torn_tail = false;
  if (complete_lines(text, torn_tail).empty()) {
    throw std::runtime_error("manifest '" + path +
                             "' has no complete header line");
  }
  return parse_manifest_text(text);
}

// ---------------------------------------------------------------- repair ----

RepairResult repair_output(
    const std::string& path, OutputKind kind,
    const std::map<std::size_t, std::size_t>& committed) {
  RepairResult result;
  std::string text;
  if (!read_file(path, text, /*must_exist=*/false)) return result;

  bool torn_tail = false;
  const std::vector<Line> lines =
      complete_lines(text, torn_tail, kind == OutputKind::kCsv);
  std::size_t next = 0;

  if (kind == OutputKind::kCsv) {
    if (!lines.empty() && line_text(text, lines[0]) == CsvSink::header()) {
      result.header_present = true;
      result.kept_bytes = lines[0].end;
      next = 1;
    }
  }
  while (next < lines.size()) {
    const std::optional<std::uint64_t> cell =
        parse_row_cell(kind, line_text(text, lines[next]));
    if (!cell || committed.count(*cell) == 0) break;
    result.kept_bytes = lines[next].end;
    ++result.kept_rows;
    ++result.rows_per_cell[*cell];
    ++next;
  }
  result.dropped_rows = (lines.size() - next) + (torn_tail ? 1 : 0);

  if (result.kept_bytes < text.size()) {
    std::filesystem::resize_file(path, result.kept_bytes);
  }
  return result;
}

// ----------------------------------------------------------------- merge ----

MergeStats merge_outputs(OutputKind kind,
                         const std::vector<std::string>& inputs,
                         std::ostream& out) {
  if (inputs.empty()) {
    throw std::invalid_argument("merge: no input files");
  }

  struct Input {
    std::string path;
    std::string text;
    std::vector<Line> rows;  ///< data rows only (header excluded for CSV)
    std::size_t next = 0;
  };
  std::vector<Input> parsed(inputs.size());

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Input& input = parsed[i];
    input.path = inputs[i];
    read_file(input.path, input.text, /*must_exist=*/true);
    bool torn_tail = false;
    input.rows =
        complete_lines(input.text, torn_tail, kind == OutputKind::kCsv);
    if (torn_tail) {
      throw std::runtime_error("merge: '" + input.path +
                               "' ends in a torn line (incomplete shard "
                               "output? resume it before merging)");
    }
    if (kind == OutputKind::kCsv) {
      if (input.rows.empty() ||
          line_text(input.text, input.rows[0]) != CsvSink::header()) {
        throw std::runtime_error("merge: '" + input.path +
                                 "' does not start with the canonical CSV "
                                 "header");
      }
      input.rows.erase(input.rows.begin());
    }
    for (const Line& row : input.rows) {
      if (!parse_row_cell(kind, line_text(input.text, row))) {
        throw std::runtime_error("merge: unparsable row in '" + input.path +
                                 "': " + line_text(input.text, row));
      }
    }
  }

  if (kind == OutputKind::kCsv) out << CsvSink::header() << '\n';

  MergeStats stats;
  bool any_emitted = false;
  std::size_t last_cell = 0;
  const auto current_cell = [&](const Input& input) {  // rows checked above
    return *parse_row_cell(kind, line_text(input.text, input.rows[input.next]));
  };

  for (;;) {
    // Pick the input whose next row has the smallest cell index; a tie
    // means two shards claim the same cell.
    Input* chosen = nullptr;
    std::size_t chosen_cell = 0;
    for (Input& input : parsed) {
      if (input.next >= input.rows.size()) continue;
      const std::size_t cell = current_cell(input);
      if (chosen == nullptr || cell < chosen_cell) {
        chosen = &input;
        chosen_cell = cell;
      } else if (cell == chosen_cell) {
        throw std::runtime_error(
            "merge: cell " + std::to_string(cell) + " appears in both '" +
            chosen->path + "' and '" + input.path + "' (overlapping shards)");
      }
    }
    if (chosen == nullptr) break;
    if (any_emitted && chosen_cell <= last_cell) {
      // Rows for one cell must be contiguous and ascending within a file;
      // seeing this cell again after a larger one means a malformed input.
      throw std::runtime_error("merge: out-of-order cell " +
                               std::to_string(chosen_cell) + " in '" +
                               chosen->path + "'");
    }
    while (chosen->next < chosen->rows.size() &&
           current_cell(*chosen) == chosen_cell) {
      const Line& row = chosen->rows[chosen->next];
      out.write(chosen->text.data() + row.begin,
                static_cast<std::streamsize>(row.end - row.begin));
      ++chosen->next;
      ++stats.rows;
    }
    ++stats.cells;
    last_cell = chosen_cell;
    any_emitted = true;
  }
  out.flush();
  return stats;
}

MergeStats merge_outputs_to_file(OutputKind kind,
                                 const std::vector<std::string>& inputs,
                                 const std::string& out_path) {
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (input == out_path ||
        std::filesystem::equivalent(input, out_path, ec)) {
      throw std::runtime_error("merge: output '" + out_path +
                               "' is also an input (truncating it would "
                               "destroy that shard's rows)");
    }
  }
  std::ostringstream merged;
  const MergeStats stats = merge_outputs(kind, inputs, merged);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write '" + out_path + "'");
  out << merged.str();
  out.flush();
  if (!out) throw std::runtime_error("error writing '" + out_path + "'");
  return stats;
}

// ------------------------------------------------------ checkpointed run ----

RunReport run_checkpointed(const ScenarioGrid& grid,
                           const CheckpointOptions& options) {
  if (options.manifest_path.empty()) {
    throw std::invalid_argument("run_checkpointed: manifest_path is required");
  }

  std::vector<ScenarioSpec> cells = expand(grid);
  ManifestInfo info;
  info.grid_name = grid.name;
  info.grid_seed = grid.seed;
  info.total_cells = cells.size();
  info.shards = options.shards;
  info.shard_index = options.shard_index;
  info.config_hash = grid_config_hash(grid);
  cells = shard_cells(std::move(cells), options.shards, options.shard_index);

  std::map<std::size_t, std::size_t> committed;
  bool manifest_append = false;  // append to a validated manifest vs rewrite
  if (options.resume) {
    std::string text;
    read_file(options.manifest_path, text, /*must_exist=*/true);
    bool torn_tail = false;
    if (complete_lines(text, torn_tail).empty()) {
      // The kill landed between manifest creation and the header flush.
      // The header is durable before any cell line can be, so this
      // manifest provably records zero committed cells: restart fresh
      // (rewriting the torn header) instead of erroring out.
    } else {
      ManifestData manifest = parse_manifest_text(text);
      const std::string expected = manifest_header(info);
      if (manifest.header != expected) {
        throw std::runtime_error(
            "resume: manifest '" + options.manifest_path +
            "' belongs to a different run\n  manifest: " + manifest.header +
            "\n  expected: " + expected);
      }
      committed = std::move(manifest.completed);
      manifest_append = true;
      // Cut any torn/malformed tail before reopening in append mode, so a
      // fresh cell line can never fuse with a half-written one (which would
      // permanently stall the committed set at the tear point).
      if (manifest.valid_bytes < text.size()) {
        std::filesystem::resize_file(options.manifest_path,
                                     manifest.valid_bytes);
      }
    }
  }

  RunnerOptions runner_options = options.runner;
  runner_options.skip.clear();
  for (const auto& [cell, records] : committed) {
    runner_options.skip.insert(cell);
  }

  // Stable stream addresses for the sinks' ostream references.
  std::vector<std::ofstream> files;
  files.reserve(3);
  const auto open_file = [&](const std::string& path,
                             bool append) -> std::ofstream& {
    files.emplace_back(path, append ? std::ios::binary | std::ios::app
                                    : std::ios::binary | std::ios::trunc);
    if (!files.back()) {
      throw std::runtime_error("cannot write '" + path + "'");
    }
    return files.back();
  };

  // Repair + consistency check: after truncating the uncommitted tail, the
  // surviving rows must cover exactly the manifest's committed cells. A
  // shortfall means the output was deleted or externally truncated while
  // the manifest survived — skipping those cells would silently drop their
  // rows from the final output forever.
  const auto repair_checked = [&](const std::string& path, OutputKind kind) {
    const RepairResult repaired = repair_output(path, kind, committed);
    if (repaired.rows_per_cell != committed) {
      throw std::runtime_error(
          "resume: '" + path + "' does not contain the rows manifest '" +
          options.manifest_path +
          "' claims are committed; delete the manifest (and outputs) to "
          "restart this run from scratch");
    }
    return repaired;
  };

  std::vector<std::unique_ptr<ResultSink>> owned;
  if (!options.csv_path.empty()) {
    bool header_written = false;
    if (options.resume) {
      header_written =
          repair_checked(options.csv_path, OutputKind::kCsv).header_present;
    }
    owned.push_back(std::make_unique<CsvSink>(
        open_file(options.csv_path, options.resume), header_written));
  }
  if (!options.jsonl_path.empty()) {
    if (options.resume) {
      repair_checked(options.jsonl_path, OutputKind::kJsonl);
    }
    owned.push_back(std::make_unique<JsonLinesSink>(
        open_file(options.jsonl_path, options.resume)));
  }

  std::vector<ResultSink*> sinks;
  for (const auto& sink : owned) sinks.push_back(sink.get());
  for (ResultSink* sink : options.extra_sinks) sinks.push_back(sink);

  // The manifest goes last: by the time its cell line is flushed, every
  // data sink has flushed that cell's rows (cell_complete runs in sink
  // order), which is the crash-safety invariant resume relies on.
  std::ofstream& manifest_out =
      open_file(options.manifest_path, manifest_append);
  if (!manifest_append) {
    manifest_out << manifest_header(info) << '\n';
    manifest_out.flush();
  }
  owned.push_back(std::make_unique<ManifestSink>(manifest_out));
  sinks.push_back(owned.back().get());

  ParallelRunner runner(runner_options);
  return runner.run_cells(cells, sinks);
}

}  // namespace msol::runner
