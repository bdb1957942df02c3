#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace msol::util {

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  bool digit_seen = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit_seen = true;
    } else if (c != '.' && c != 'e' && c != 'E' && c != '-' && c != '+' &&
               c != 'x' && c != '%') {
      return false;
    }
  }
  return digit_seen;
}

}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("Table: row width does not match header");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row, bool align_numeric) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = width[c] - row[c].size();
      const bool right = align_numeric && looks_numeric(row[c]);
      if (c > 0) out << "  ";
      if (right) out << std::string(pad, ' ') << row[c];
      else out << row[c] << std::string(pad, ' ');
    }
    out << '\n';
  };
  emit(header_, false);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c > 0 ? 2 : 0);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row, true);
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      out << csv_escape(row[c]);
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

std::string fmt_exact(double value) {
  if (!std::isfinite(value)) {  // "inf"/"-inf"/"nan"; never round-trips
    std::ostringstream out;
    out << value;
    return out.str();
  }
  // %.Pg prints at most P significant digits, so no P below the digit count
  // of the shortest round-tripping scientific text can round-trip. (The
  // plain shortest form is no bound: it spells 1000 as "1000", 4 digits,
  // though "1e+03" already round-trips.)
  char buf[64];
  char* end =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::scientific)
          .ptr;
  int precision = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  // to_chars(general, P) is specified as printf("%.*g", P), the text the
  // stream prints at precision P; at P = 17 every double round-trips. A
  // read that overflows (DBL_MAX at P = 1 is "2e+308") is no round trip.
  for (;; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, value,
                        std::chars_format::general, precision)
              .ptr;
    double back = 0.0;
    const auto read = std::from_chars(buf, end, back);
    if (precision >= 17 || (read.ec == std::errc() && back == value)) break;
  }
  return std::string(buf, end);
}

}  // namespace msol::util
