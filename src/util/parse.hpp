#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace msol::util {

/// The one token contract every text input shares — grids, policy and meta
/// specs, workload, platform and schedule files, sweep CSVs, checkpoint
/// manifests and CLI values. A number is the whole token (no surrounding
/// whitespace, no trailing junk), integers are integers ("2.9" and "1e3"
/// are not), and a double is finite. The parses return an empty optional
/// on any failure, so each caller throws its own located diagnostic.

/// `s` without leading and trailing spaces, tabs and carriage returns.
std::string trim(const std::string& s);

/// `text` cut at every `sep`, keeping empty fields: "a,,b" gives
/// {"a", "", "b"} and "" gives {""}.
std::vector<std::string> split(const std::string& text, char sep);

std::optional<std::int64_t> parse_int64(const std::string& token);

/// As parse_int64, and the value must fit in int.
std::optional<int> parse_int(const std::string& token);

/// Digits only: any sign is rejected, because strtoull wraps "-1" to
/// 2^64 - 1.
std::optional<std::uint64_t> parse_uint64(const std::string& token);

/// strtod's value, so a token reads bit-identically to std::stod and
/// operator>> (subnormals included, which std::stod throws on); "inf",
/// "nan" and overflowing tokens are rejected.
std::optional<double> parse_double(const std::string& token);

/// Reads a numeric text file (workloads, platforms): '#' starts a
/// comment, and each remaining non-blank line is a row of whitespace-
/// separated parse_double fields, passed to `on_row` with its location
/// "<kind> line <n>". A field that is not a number throws
/// std::invalid_argument "<kind> line <n>: bad number '<field>'".
void read_number_rows(
    std::istream& in, const std::string& kind,
    const std::function<void(const std::vector<double>& row,
                             const std::string& where)>& on_row);

}  // namespace msol::util
