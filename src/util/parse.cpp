#include "util/parse.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace msol::util {

namespace {

/// Runs a strto* conversion and accepts it only if it consumed the whole
/// token, which may not start with the whitespace strto* would skip.
template <typename T, typename Convert>
std::optional<T> whole(const std::string& token, Convert convert) {
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0]))) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const T value = convert(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return std::nullopt;
  // strtod's underflow ERANGE still comes with the correctly rounded value
  // (and its overflow with inf, which parse_double rejects).
  if (errno == ERANGE && std::is_integral_v<T>) return std::nullopt;
  return value;
}

}  // namespace

std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out(1);
  for (const char c : text) {
    if (c == sep) {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

std::optional<std::int64_t> parse_int64(const std::string& token) {
  return whole<std::int64_t>(token, [](const char* s, char** end) {
    return std::strtoll(s, end, 10);
  });
}

std::optional<int> parse_int(const std::string& token) {
  const std::optional<std::int64_t> v = parse_int64(token);
  if (!v || *v < std::numeric_limits<int>::min() ||
      *v > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*v);
}

std::optional<std::uint64_t> parse_uint64(const std::string& token) {
  if (token.empty() || token[0] < '0' || token[0] > '9') return std::nullopt;
  return whole<std::uint64_t>(token, [](const char* s, char** end) {
    return std::strtoull(s, end, 10);
  });
}

std::optional<double> parse_double(const std::string& token) {
  const std::optional<double> v = whole<double>(
      token, [](const char* s, char** end) { return std::strtod(s, end); });
  if (v && !std::isfinite(*v)) return std::nullopt;
  return v;
}

void read_number_rows(
    std::istream& in, const std::string& kind,
    const std::function<void(const std::vector<double>& row,
                             const std::string& where)>& on_row) {
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    line.resize(std::min(line.find('#'), line.size()));
    const std::string where = kind + " line " + std::to_string(line_no);
    std::istringstream fields(line);
    std::vector<double> row;
    for (std::string field; fields >> field;) {
      const std::optional<double> v = parse_double(field);
      if (!v) {
        throw std::invalid_argument(where + ": bad number '" + field + "'");
      }
      row.push_back(*v);
    }
    if (!row.empty()) on_row(row, where);
  }
}

}  // namespace msol::util
