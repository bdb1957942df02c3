#include "core/workload_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/parse.hpp"

namespace msol::core {

std::string serialize(const Workload& workload) {
  std::ostringstream out;
  write(out, workload);
  return out.str();
}

void write(std::ostream& os, const Workload& workload) {
  os << "# msol workload: release [comm_factor] [comp_factor]\n";
  os.precision(17);
  for (const TaskSpec& t : workload.tasks()) {
    os << t.release << ' ' << t.comm_factor << ' ' << t.comp_factor << '\n';
  }
}

Workload parse_workload(const std::string& text) {
  std::istringstream in(text);
  return read_workload(in);
}

Workload read_workload(std::istream& is) {
  std::vector<TaskSpec> tasks;
  const auto on_row = [&tasks](const std::vector<double>& row,
                               const std::string& where) {
    if (row.size() == 2) {
      throw std::invalid_argument(where +
                                  ": comm_factor given without comp_factor");
    }
    if (row.size() > 3) {
      throw std::invalid_argument(where + ": expected 1 or 3 columns, got " +
                                  std::to_string(row.size()));
    }
    tasks.push_back(row.size() == 3 ? TaskSpec{row[0], row[1], row[2]}
                                    : TaskSpec{row[0]});
  };
  util::read_number_rows(is, "workload", on_row);
  return Workload(std::move(tasks));  // re-validates
}

}  // namespace msol::core
