#include "runner/result_sink.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>

#include "util/table.hpp"

namespace msol::runner {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        // Remaining control characters have no short escape; emitting them
        // raw would make the line invalid JSON.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}


/// JSON has no literal for NaN/Infinity; emit null so every line stays
/// parseable even if a degenerate campaign produces a non-finite metric.
std::string json_number(double value) {
  return std::isfinite(value) ? util::fmt_exact(value) : "null";
}

/// A row's identity columns: the cell's index, id and swept config values,
/// the algorithm, and its platform count. Integers print alike in every
/// format; strings and doubles follow each format's own rules.
using Value = std::variant<std::int64_t, std::uint64_t, double, std::string>;
struct Column {
  const char* name;
  Value value;
};

/// The first kLeadingColumns identity columns precede the metrics; the last
/// two were appended after them (in JSONL, after the raw arrays too) so
/// older outputs stay a column prefix of newer ones.
constexpr std::size_t kLeadingColumns = 16;

std::array<Column, kLeadingColumns + 2> identity_columns(
    const ResultRecord& record) {
  const experiments::CampaignConfig& config = record.cell.config;
  const experiments::AlgorithmResult& result = record.result;
  return {{
      {"cell_index", std::uint64_t{record.cell.index}},
      {"cell_id", record.cell.id},
      {"cell_seed", config.seed},
      {"platform_class", platform::to_string(config.platform_class)},
      {"slaves", std::int64_t{config.num_slaves}},
      {"arrival", experiments::to_string(config.arrival)},
      {"load", config.load},
      {"jitter", config.size_jitter},
      {"port", std::int64_t{config.port_capacity}},
      {"sizes", experiments::to_string(config.size_mix)},
      {"avail", platform::to_string(config.avail)},
      {"mtbf_tasks", config.mtbf_tasks},
      {"outage_frac", config.outage_frac},
      {"algorithm", result.name},
      {"spec", result.spec},
      {"platforms", std::uint64_t{result.makespan.count}},
      {"engine_shards", std::int64_t{config.engine_shards}},
      {"shard_threads", std::int64_t{config.shard_threads}},
  }};
}

/// Renders a value with one format's string and double rules.
template <typename TextRule, typename NumberRule>
std::string render(const Value& value, TextRule text, NumberRule number) {
  return std::visit(
      [&](const auto& v) -> std::string {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return text(v);
        } else if constexpr (std::is_same_v<T, double>) {
          return number(v);
        } else {
          return std::to_string(v);
        }
      },
      value);
}

std::string json_string(const std::string& s) {
  return '"' + json_escape(s) + '"';
}

// "switches" (meta-policy member changes; all-zero for plain policies) is
// appended last so the pre-meta column prefix is unchanged.
std::array<std::pair<const char*, const util::Summary*>, 9> metrics(
    const experiments::AlgorithmResult& r) {
  return {{{"makespan", &r.makespan},
           {"sum_flow", &r.sum_flow},
           {"max_flow", &r.max_flow},
           {"norm_makespan", &r.norm_makespan},
           {"norm_sum_flow", &r.norm_sum_flow},
           {"norm_max_flow", &r.norm_max_flow},
           {"redispatches", &r.redispatches},
           {"lost_work", &r.lost_work},
           {"switches", &r.switches}}};
}

/// A summary's statistics in column order, and their names.
constexpr const char* kStatNames[] = {"mean", "stddev", "min",
                                      "max",  "median", "ci95"};

std::array<double, 6> stats(const util::Summary& s) {
  return {s.mean, s.stddev, s.min, s.max, s.median, s.ci95_half_width};
}

/// Durable-commit flush: a silent badbit here (disk full, I/O error) would
/// let a trailing ManifestSink record the cell as durable when its rows
/// never reached the disk, so a failed flush must abort the run instead.
void flush_checked(std::ostream& out) {
  out.flush();
  if (!out) {
    throw std::runtime_error(
        "result sink: write/flush failed (disk full or I/O error)");
  }
}

void append_json_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(values[i]);
  }
  out += ']';
}

}  // namespace

// ------------------------------------------------------------------- CSV ----

CsvSink::CsvSink(std::ostream& out, bool header_written)
    : out_(out), wrote_header_(header_written) {}

std::string CsvSink::header() {
  const ResultRecord blank;
  const auto columns = identity_columns(blank);
  std::string h;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i == kLeadingColumns) {
      for (const auto& [metric, summary] : metrics(blank.result)) {
        for (const char* stat : kStatNames) {
          h += ',' + std::string(metric) + '_' + stat;
        }
      }
    }
    if (i > 0) h += ',';
    h += columns[i].name;
  }
  return h;
}

std::string CsvSink::to_csv_row(const ResultRecord& record) {
  const auto columns = identity_columns(record);
  std::string row;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i == kLeadingColumns) {
      for (const auto& [metric, summary] : metrics(record.result)) {
        for (double value : stats(*summary)) {
          row += ',' + util::fmt_exact(value);
        }
      }
    }
    if (i > 0) row += ',';
    row += render(columns[i].value, util::csv_escape, util::fmt_exact);
  }
  return row;
}

void CsvSink::consume(const ResultRecord& record) {
  if (!wrote_header_) {
    out_ << header() << '\n';
    wrote_header_ = true;
  }
  out_ << to_csv_row(record) << '\n';
}

void CsvSink::cell_complete(std::size_t, std::size_t) {
  flush_checked(out_);
}

void CsvSink::close() {
  if (!wrote_header_) {  // empty grid still yields a valid CSV
    out_ << header() << '\n';
    wrote_header_ = true;
  }
  flush_checked(out_);
}

// ------------------------------------------------------------ JSON lines ----

JsonLinesSink::JsonLinesSink(std::ostream& out) : out_(out) {}

std::string JsonLinesSink::to_json(const ResultRecord& record) {
  const auto columns = identity_columns(record);
  const experiments::AlgorithmResult& result = record.result;
  std::string json = "{";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i == kLeadingColumns) {
      for (const auto& [metric, summary] : metrics(result)) {
        json += ",\"" + std::string(metric) + "\":{";
        const std::array<double, 6> values = stats(*summary);
        for (std::size_t k = 0; k < values.size(); ++k) {
          if (k > 0) json += ',';
          json += json_string(kStatNames[k]) + ':' + json_number(values[k]);
        }
        json += '}';
      }
      json += ",\"makespan_raw\":";
      append_json_array(json, result.makespan_raw);
      json += ",\"sum_flow_raw\":";
      append_json_array(json, result.sum_flow_raw);
      json += ",\"max_flow_raw\":";
      append_json_array(json, result.max_flow_raw);
    }
    if (i > 0) json += ',';
    json += json_string(columns[i].name) + ':' +
            render(columns[i].value, json_string, json_number);
  }
  json += '}';
  return json;
}

void JsonLinesSink::consume(const ResultRecord& record) {
  out_ << to_json(record) << '\n';
}

void JsonLinesSink::cell_complete(std::size_t, std::size_t) {
  flush_checked(out_);
}

void JsonLinesSink::close() { flush_checked(out_); }

// -------------------------------------------------------------- manifest ----

ManifestSink::ManifestSink(std::ostream& out) : out_(out) {}

void ManifestSink::consume(const ResultRecord&) {}

std::string ManifestSink::cell_line(std::size_t cell_index,
                                    std::size_t records) {
  return "cell " + std::to_string(cell_index) + " " + std::to_string(records);
}

void ManifestSink::cell_complete(std::size_t cell_index, std::size_t records) {
  // One short line per cell, flushed immediately: a kill mid-write leaves at
  // worst a torn final line, which load_manifest() discards — the cell then
  // simply reruns on resume.
  out_ << cell_line(cell_index, records) << '\n';
  flush_checked(out_);
}

void ManifestSink::close() { flush_checked(out_); }

// ---------------------------------------------------------------- memory ----

void MemorySink::consume(const ResultRecord& record) {
  records_.push_back(record);
}

}  // namespace msol::runner
