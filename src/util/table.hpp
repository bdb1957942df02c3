#pragma once

#include <string>
#include <vector>

namespace msol::util {

/// Column-aligned ASCII table used by every bench binary so that the
/// regenerated paper tables/figure series share one readable format.
///
///   Table t({"algorithm", "makespan", "ratio"});
///   t.add_row({"SRPT", "12.50", "1.000"});
///   std::cout << t.to_string();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Renders with a header rule; numeric-looking cells are right-aligned.
  std::string to_string() const;

  /// Renders as RFC-4180-ish CSV, each cell through csv_escape.
  std::string to_csv() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Quotes a CSV cell that holds a comma, a quote, `\n` or `\r`, doubling
/// its quotes; any other cell is returned as it is.
std::string csv_escape(const std::string& cell);

/// Formats a double with the given precision, trimming to fixed notation.
std::string fmt(double value, int precision = 3);

/// Machine-readable text of a double, for grid files, canonical spec strings
/// and the CSV/JSONL sinks, where equal doubles must print as equal text and
/// read back bit-identically. A finite value prints as `printf("%.*g", P,
/// value)` at the smallest P in 1..17 whose text `strtod` reads back to the
/// same double. That is not the shortest decimal: 1000 prints "1e+03", 0.1
/// prints "0.1", 1e21 prints "1e+21", -0.0 prints "-0". A non-finite value prints as an `std::ostream` prints
/// it: "inf", "-inf" or "nan".
std::string fmt_exact(double value);

}  // namespace msol::util
