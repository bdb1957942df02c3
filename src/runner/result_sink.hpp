#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "runner/scenario.hpp"

namespace msol::runner {

/// One output row: a (cell, algorithm) pair — the cell exactly as expand()
/// produced it (index, id, and the resolved CampaignConfig with its
/// counter-derived seed) and that algorithm's full summaries. The sinks
/// print a fixed subset of the cell's config as identity columns; see
/// result_sink.cpp for the one list that names them.
struct ResultRecord {
  ScenarioSpec cell;
  experiments::AlgorithmResult result;
};

/// Consumer of runner output. The ParallelRunner delivers records strictly
/// in deterministic order — ascending cell index, algorithms in campaign
/// order within a cell — and from one thread at a time, so implementations
/// need no locking and their output is bit-identical for any thread count.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void consume(const ResultRecord& record) = 0;
  /// Durable-commit hook: called once per cell, after every record of the
  /// cell with ScenarioSpec::index `cell_index` has been consumed (and in
  /// the same deterministic order). File-backed sinks flush here so that a
  /// process kill never loses a cell the manifest claims is complete; the
  /// runner invokes sinks in vector order, so placing a ManifestSink last
  /// commits the manifest line only after the data sinks are flushed.
  virtual void cell_complete(std::size_t cell_index, std::size_t records) {
    (void)cell_index;
    (void)records;
  }
  /// Called once after the last record — also on the error path, so a
  /// failed run still leaves flushed (partial) output behind; flush here.
  virtual void close() {}
};

/// Writes one CSV row per record with a fixed header; numeric columns are
/// printed with shortest-round-trip formatting so equal doubles always
/// produce equal text.
class CsvSink : public ResultSink {
 public:
  /// `header_written` = true re-opens an existing output in append mode
  /// (resume): the header is already on disk and must not be duplicated.
  explicit CsvSink(std::ostream& out, bool header_written = false);
  void consume(const ResultRecord& record) override;
  void cell_complete(std::size_t cell_index, std::size_t records) override;
  void close() override;

  static std::string header();
  static std::string to_csv_row(const ResultRecord& record);

 private:
  std::ostream& out_;
  bool wrote_header_ = false;
};

/// Writes one JSON object per line (JSON-lines). Raw per-platform series
/// are included as arrays; summaries as nested objects.
class JsonLinesSink : public ResultSink {
 public:
  explicit JsonLinesSink(std::ostream& out);
  void consume(const ResultRecord& record) override;
  void cell_complete(std::size_t cell_index, std::size_t records) override;
  void close() override;

  static std::string to_json(const ResultRecord& record);

 private:
  std::ostream& out_;
};

/// Crash-safe completion manifest: one `cell <index> <records>` line per
/// completed cell, appended and flushed from cell_complete() so the line
/// becomes durable only after every data sink ordered before this one has
/// flushed the cell's rows. consume() is a no-op — the manifest tracks
/// cells, not records. See checkpoint.hpp for the file format, the header
/// line, and the loader that tolerates a torn tail line after a kill.
class ManifestSink : public ResultSink {
 public:
  explicit ManifestSink(std::ostream& out);
  void consume(const ResultRecord& record) override;
  void cell_complete(std::size_t cell_index, std::size_t records) override;
  void close() override;

  /// The manifest line for one completed cell (no trailing newline).
  static std::string cell_line(std::size_t cell_index, std::size_t records);

 private:
  std::ostream& out_;
};

/// Collects records in memory, in delivery (= deterministic) order.
class MemorySink : public ResultSink {
 public:
  void consume(const ResultRecord& record) override;
  const std::vector<ResultRecord>& records() const { return records_; }

 private:
  std::vector<ResultRecord> records_;
};

}  // namespace msol::runner
