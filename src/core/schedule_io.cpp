#include "core/schedule_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/parse.hpp"

namespace msol::core {

namespace {
constexpr const char* kHeader =
    "task,slave,release,send_start,send_end,comp_start,comp_end";
}

void write_csv(std::ostream& os, const Schedule& schedule) {
  os << kHeader << '\n';
  os.precision(17);
  for (const TaskRecord& r : schedule.records()) {
    os << r.task << ',' << r.slave << ',' << r.release << ',' << r.send_start
       << ',' << r.send_end << ',' << r.comp_start << ',' << r.comp_end
       << '\n';
  }
}

std::string to_csv(const Schedule& schedule) {
  std::ostringstream out;
  write_csv(out, schedule);
  return out.str();
}

Schedule read_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    throw std::invalid_argument("schedule csv: missing or wrong header");
  }
  Schedule schedule;
  int line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "schedule csv line " + std::to_string(line_no);
    const std::vector<std::string> cells = util::split(line, ',');
    if (cells.size() != 7) {
      throw std::invalid_argument(where + ": expected 7 columns");
    }
    const auto id = [&where](const std::string& cell) {
      if (const std::optional<int> v = util::parse_int(cell)) return *v;
      throw std::invalid_argument(where + ": bad integer id '" + cell + "'");
    };
    const auto time = [&where](const std::string& cell) {
      if (const std::optional<double> v = util::parse_double(cell)) return *v;
      throw std::invalid_argument(where + ": bad time '" + cell + "'");
    };
    TaskRecord r;
    r.task = id(cells[0]);
    r.slave = id(cells[1]);
    r.release = time(cells[2]);
    r.send_start = time(cells[3]);
    r.send_end = time(cells[4]);
    r.comp_start = time(cells[5]);
    r.comp_end = time(cells[6]);
    schedule.add(r);
  }
  return schedule;
}

Schedule from_csv(const std::string& text) {
  std::istringstream in(text);
  return read_csv(in);
}

}  // namespace msol::core
