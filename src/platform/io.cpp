#include "platform/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/parse.hpp"

namespace msol::platform {

std::string serialize(const Platform& platform) {
  std::ostringstream out;
  write(out, platform);
  return out.str();
}

void write(std::ostream& os, const Platform& platform) {
  os << "# msol platform: one slave per line, columns are c_j p_j\n";
  os.precision(17);
  for (const SlaveSpec& s : platform.slaves()) {
    os << s.comm << ' ' << s.comp << '\n';
  }
}

Platform parse(const std::string& text) {
  std::istringstream in(text);
  return read(in);
}

Platform read(std::istream& is) {
  std::vector<SlaveSpec> slaves;
  const auto on_row = [&slaves](const std::vector<double>& row,
                                const std::string& where) {
    if (row.size() != 2) {
      throw std::invalid_argument(where + ": expected two columns (c_j p_j)");
    }
    slaves.push_back(SlaveSpec{row[0], row[1]});
  };
  util::read_number_rows(is, "platform", on_row);
  if (slaves.empty()) {
    throw std::invalid_argument("platform: no slaves found in input");
  }
  return Platform(std::move(slaves));  // re-validates positivity
}

}  // namespace msol::platform
