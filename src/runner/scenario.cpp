#include "runner/scenario.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "algorithms/registry.hpp"
#include "core/sharded_engine.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace msol::runner {

namespace {

std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream stream(s);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const std::string token = trim(item);
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

double parse_double(const std::string& token, const std::string& line) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("grid: bad number '" + token + "' in: " + line);
  }
}

int parse_int(const std::string& token, const std::string& line) {
  std::int64_t v = 0;
  try {
    std::size_t pos = 0;
    v = std::stoll(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    throw std::invalid_argument("grid: bad integer '" + token +
                                "' in: " + line);
  }
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("grid: integer '" + token +
                                "' does not fit in int in: " + line);
  }
  return static_cast<int>(v);
}

template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& value, const std::string& line,
                          Parse parse) {
  std::vector<T> out;
  for (const std::string& token : split_csv(value)) {
    out.push_back(parse(token, line));
  }
  if (out.empty()) {
    throw std::invalid_argument("grid: empty value list in: " + line);
  }
  return out;
}

/// Rejects at parse time, with the grid line, a value the run would only
/// refuse mid-sweep or would silently misread.
template <typename T, typename Ok>
void require_each(const std::vector<T>& values, Ok ok,
                  const std::string& rule, const std::string& line) {
  for (const T& v : values) {
    if (!ok(v)) {
      throw std::invalid_argument("grid: " + rule + " in: " + line);
    }
  }
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }
bool at_least_one(int v) { return v >= 1; }
bool non_negative(int v) { return v >= 0; }

}  // namespace

platform::PlatformClass parse_platform_class(const std::string& token) {
  using platform::PlatformClass;
  for (PlatformClass cls :
       {PlatformClass::kFullyHomogeneous, PlatformClass::kCommHomogeneous,
        PlatformClass::kCompHomogeneous, PlatformClass::kFullyHeterogeneous}) {
    if (token == platform::to_string(cls)) return cls;
  }
  throw std::invalid_argument("grid: unknown platform class '" + token + "'");
}

experiments::ArrivalProcess parse_arrival(const std::string& token) {
  using experiments::ArrivalProcess;
  for (ArrivalProcess arrival :
       {ArrivalProcess::kAllAtZero, ArrivalProcess::kPoisson,
        ArrivalProcess::kBursty, ArrivalProcess::kInhomogeneous}) {
    if (token == experiments::to_string(arrival)) return arrival;
  }
  throw std::invalid_argument("grid: unknown arrival process '" + token + "'");
}

experiments::TaskSizeMix parse_size_mix(const std::string& token) {
  using experiments::TaskSizeMix;
  for (TaskSizeMix mix : {TaskSizeMix::kUnit, TaskSizeMix::kPareto,
                          TaskSizeMix::kLognormal}) {
    if (token == experiments::to_string(mix)) return mix;
  }
  throw std::invalid_argument("grid: unknown size mix '" + token + "'");
}

platform::AvailabilityModel parse_availability(const std::string& token) {
  using platform::AvailabilityModel;
  for (AvailabilityModel model :
       {AvailabilityModel::kAlways, AvailabilityModel::kRareOutage,
        AvailabilityModel::kChurn, AvailabilityModel::kDrift}) {
    if (token == platform::to_string(model)) return model;
  }
  throw std::invalid_argument("grid: unknown availability model '" + token +
                              "'");
}

std::size_t cell_count(const ScenarioGrid& grid) {
  return grid.classes.size() * grid.slave_counts.size() *
         grid.arrivals.size() * grid.loads.size() * grid.jitters.size() *
         grid.port_capacities.size() * grid.size_mixes.size() *
         grid.avails.size() * grid.mtbf_tasks.size() *
         grid.outage_fracs.size();
}

std::vector<ScenarioSpec> expand(const ScenarioGrid& grid) {
  const std::pair<const char*, std::size_t> axes[] = {
      {"class", grid.classes.size()},
      {"slaves", grid.slave_counts.size()},
      {"arrival", grid.arrivals.size()},
      {"load", grid.loads.size()},
      {"jitter", grid.jitters.size()},
      {"port", grid.port_capacities.size()},
      {"sizes", grid.size_mixes.size()},
      {"avail", grid.avails.size()},
      {"mtbf_tasks", grid.mtbf_tasks.size()},
      {"outage_frac", grid.outage_fracs.size()}};
  for (const auto& [axis, size] : axes) {
    if (size == 0) {
      throw std::invalid_argument(std::string("expand: empty axis '") + axis +
                                  "'");
    }
  }
  // Every engine shard needs a slave (PlatformPartition); caught here, before
  // a run opens any output, whether K came from the grid or --engine-shards.
  for (int slaves : grid.slave_counts) {
    if (grid.engine_shards > slaves) {
      throw std::invalid_argument(
          "grid: engine_shards = " + std::to_string(grid.engine_shards) +
          " exceeds slaves = " + std::to_string(slaves) +
          " (every engine shard needs a slave)");
    }
  }

  const util::Rng seeder(grid.seed);
  std::vector<ScenarioSpec> cells;
  cells.reserve(cell_count(grid));
  for (platform::PlatformClass cls : grid.classes) {
    for (int slaves : grid.slave_counts) {
      for (experiments::ArrivalProcess arrival : grid.arrivals) {
        for (double load : grid.loads) {
          for (double jitter : grid.jitters) {
            for (int port : grid.port_capacities) {
              for (experiments::TaskSizeMix mix : grid.size_mixes) {
                for (platform::AvailabilityModel avail : grid.avails) {
                  for (double mtbf : grid.mtbf_tasks) {
                    for (double outage_frac : grid.outage_fracs) {
                      ScenarioSpec cell;
                      cell.index = cells.size();
                      cell.id = platform::to_string(cls) + "/m" +
                                std::to_string(slaves) + "/" +
                                experiments::to_string(arrival) + "/load" +
                                util::fmt_exact(load) + "/jit" +
                                util::fmt_exact(jitter) + "/port" +
                                std::to_string(port) + "/sz-" +
                                experiments::to_string(mix) + "/av-" +
                                platform::to_string(avail) + "/mtbf" +
                                util::fmt_exact(mtbf) + "/of" +
                                util::fmt_exact(outage_frac);
                      cell.config.platform_class = cls;
                      cell.config.num_slaves = slaves;
                      cell.config.arrival = arrival;
                      cell.config.load = load;
                      cell.config.size_jitter = jitter;
                      cell.config.port_capacity = port;
                      cell.config.size_mix = mix;
                      cell.config.avail = avail;
                      cell.config.mtbf_tasks = mtbf;
                      cell.config.outage_frac = outage_frac;
                      cell.config.ipp_amplitude = grid.ipp_amplitude;
                      cell.config.ipp_period_tasks = grid.ipp_period_tasks;
                      cell.config.num_platforms = grid.num_platforms;
                      cell.config.num_tasks = grid.num_tasks;
                      cell.config.lookahead = grid.lookahead;
                      cell.config.engine_shards = grid.engine_shards;
                      cell.config.shard_routing = grid.shard_routing;
                      cell.config.shard_threads = grid.shard_threads;
                      cell.config.algorithms = grid.algorithms;
                      cell.config.ranges = grid.ranges;
                      cell.config.seed = seeder.child_seed(cell.index);
                      cells.push_back(std::move(cell));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::vector<ScenarioSpec> shard_cells(std::vector<ScenarioSpec> cells,
                                      std::size_t shards,
                                      std::size_t shard_index) {
  if (shards == 0) {
    throw std::invalid_argument("shard_cells: shards must be >= 1");
  }
  if (shard_index >= shards) {
    throw std::invalid_argument(
        "shard_cells: shard index " + std::to_string(shard_index) +
        " out of range for " + std::to_string(shards) + " shards");
  }
  if (shards == 1) return cells;
  std::vector<ScenarioSpec> mine;
  mine.reserve(cells.size() / shards + 1);
  for (ScenarioSpec& cell : cells) {
    if (cell.index % shards == shard_index) mine.push_back(std::move(cell));
  }
  return mine;
}

ScenarioGrid parse_grid(const std::string& text) {
  ScenarioGrid grid;
  std::set<std::string> seen;
  std::stringstream stream(text);
  std::string raw;
  while (std::getline(stream, raw)) {
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("grid: expected key = value, got: " + raw);
    }
    std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw std::invalid_argument("grid: expected key = value, got: " + raw);
    }
    if (key == "algo") key = "algorithms";  // spec-axis alias
    if (!seen.insert(key).second) {
      throw std::invalid_argument("grid: duplicate key '" + key + "'");
    }

    if (key == "name") {
      grid.name = value;
    } else if (key == "seed") {
      // stoull, not parse_int: seeds are the full uint64 space (cell seeds
      // are splitmix64 outputs a user may paste back for reproduction).
      try {
        std::size_t pos = 0;
        grid.seed = std::stoull(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        throw std::invalid_argument("grid: bad integer '" + value +
                                    "' in: " + raw);
      }
    } else if (key == "platforms") {
      grid.num_platforms = parse_int(value, raw);
      require_each<int>({grid.num_platforms}, at_least_one,
                        "platforms must be >= 1", raw);
    } else if (key == "tasks") {
      grid.num_tasks = parse_int(value, raw);
      require_each<int>({grid.num_tasks}, at_least_one,
                        "tasks must be >= 1", raw);
    } else if (key == "lookahead") {
      grid.lookahead = parse_int(value, raw);
      require_each<int>({grid.lookahead}, non_negative,
                        "lookahead must be >= 0", raw);
    } else if (key == "algorithms") {
      grid.algorithms = split_csv(value);
      if (grid.algorithms.empty()) {
        throw std::invalid_argument("grid: empty value list in: " + raw);
      }
      // Fail at parse time, not mid-sweep: every entry must be a registry
      // name, a parseable policy spec, or a meta spec (portfolio:/hedge:).
      for (const std::string& spec : grid.algorithms) {
        try {
          algorithms::canonical_spec(spec);
        } catch (const std::invalid_argument& error) {
          throw std::invalid_argument(std::string("grid: ") + error.what() +
                                      " in: " + raw);
        }
      }
    } else if (key == "class") {
      grid.classes = parse_list<platform::PlatformClass>(
          value, raw,
          [](const std::string& t, const std::string&) {
            return parse_platform_class(t);
          });
    } else if (key == "slaves") {
      grid.slave_counts = parse_list<int>(value, raw, parse_int);
      require_each(grid.slave_counts, at_least_one, "slaves must be >= 1",
                   raw);
    } else if (key == "arrival") {
      grid.arrivals = parse_list<experiments::ArrivalProcess>(
          value, raw,
          [](const std::string& t, const std::string&) {
            return parse_arrival(t);
          });
    } else if (key == "load") {
      grid.loads = parse_list<double>(value, raw, parse_double);
      require_each(grid.loads, finite_positive, "load must be finite and > 0",
                   raw);
    } else if (key == "jitter") {
      grid.jitters = parse_list<double>(value, raw, parse_double);
      require_each(
          grid.jitters, [](double v) { return v >= 0.0 && v < 1.0; },
          "jitter must be in [0, 1)", raw);
    } else if (key == "port") {
      grid.port_capacities = parse_list<int>(value, raw, parse_int);
      require_each(grid.port_capacities, non_negative, "port must be >= 0",
                   raw);
    } else if (key == "sizes") {
      grid.size_mixes = parse_list<experiments::TaskSizeMix>(
          value, raw,
          [](const std::string& t, const std::string&) {
            return parse_size_mix(t);
          });
    } else if (key == "avail") {
      grid.avails = parse_list<platform::AvailabilityModel>(
          value, raw,
          [](const std::string& t, const std::string&) {
            return parse_availability(t);
          });
    } else if (key == "mtbf_tasks") {
      grid.mtbf_tasks = parse_list<double>(value, raw, parse_double);
      require_each(grid.mtbf_tasks, finite_positive,
                   "mtbf_tasks must be finite and > 0", raw);
    } else if (key == "outage_frac") {
      grid.outage_fracs = parse_list<double>(value, raw, parse_double);
      require_each(
          grid.outage_fracs, [](double v) { return v >= 0.0 && v <= 0.9; },
          "outage_frac must be in [0, 0.9]", raw);
    } else if (key == "ipp_amplitude") {
      grid.ipp_amplitude = parse_double(value, raw);
      require_each<double>(
          {grid.ipp_amplitude}, [](double v) { return v >= 0.0 && v <= 1.0; },
          "ipp_amplitude must be in [0, 1]", raw);
    } else if (key == "ipp_period_tasks") {
      grid.ipp_period_tasks = parse_double(value, raw);
      require_each<double>({grid.ipp_period_tasks}, finite_positive,
                           "ipp_period_tasks must be finite and > 0", raw);
    } else if (key == "engine_shards") {
      grid.engine_shards = parse_int(value, raw);
      require_each<int>({grid.engine_shards}, at_least_one,
                        "engine_shards must be >= 1", raw);
    } else if (key == "shard_routing") {
      try {
        core::parse_shard_routing(value);
      } catch (const std::invalid_argument& error) {
        throw std::invalid_argument(std::string("grid: ") + error.what() +
                                    " in: " + raw);
      }
      grid.shard_routing = value;
    } else if (key == "shard_threads") {
      grid.shard_threads = parse_int(value, raw);
      require_each<int>({grid.shard_threads}, non_negative,
                        "shard_threads must be >= 0 (0 = hardware concurrency)",
                        raw);
    } else if (key == "comm_lo") {
      grid.ranges.comm_lo = parse_double(value, raw);
    } else if (key == "comm_hi") {
      grid.ranges.comm_hi = parse_double(value, raw);
    } else if (key == "comp_lo") {
      grid.ranges.comp_lo = parse_double(value, raw);
    } else if (key == "comp_hi") {
      grid.ranges.comp_hi = parse_double(value, raw);
    } else {
      throw std::invalid_argument("grid: unknown key '" + key + "'");
    }
  }
  return grid;
}

ScenarioGrid load_grid(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_grid: cannot read '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_grid(text.str());
}

std::string to_string(const std::vector<std::string>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i];
  }
  return out;
}

std::string serialize_grid(const ScenarioGrid& grid) {
  if (grid.name.empty() || grid.name.find('#') != std::string::npos) {
    // '#' starts a comment and a bare "name =" line is rejected by the
    // parser, so neither name survives the documented parse(serialize(g))
    // round-trip.
    throw std::invalid_argument(
        "serialize_grid: name must be non-empty and contain no '#'");
  }
  std::ostringstream out;
  out << "# " << cell_count(grid) << "-cell scenario grid\n";
  out << "name = " << grid.name << "\n";
  out << "seed = " << grid.seed << "\n";
  out << "platforms = " << grid.num_platforms << "\n";
  out << "tasks = " << grid.num_tasks << "\n";
  out << "lookahead = " << grid.lookahead << "\n";
  if (!grid.algorithms.empty()) {
    out << "algorithms = " << to_string(grid.algorithms) << "\n";
  }

  const auto join = [&out](const char* key, const auto& values,
                           const auto& fmt) {
    out << key << " = ";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out << ", ";
      out << fmt(values[i]);
    }
    out << "\n";
  };
  join("class", grid.classes,
       [](platform::PlatformClass c) { return platform::to_string(c); });
  join("slaves", grid.slave_counts,
       [](int v) { return std::to_string(v); });
  join("arrival", grid.arrivals,
       [](experiments::ArrivalProcess a) { return experiments::to_string(a); });
  join("load", grid.loads, util::fmt_exact);
  join("jitter", grid.jitters, util::fmt_exact);
  join("port", grid.port_capacities,
       [](int v) { return std::to_string(v); });
  join("sizes", grid.size_mixes,
       [](experiments::TaskSizeMix m) { return experiments::to_string(m); });

  // The availability axes serialize only when they differ from their
  // singleton defaults: a grid that predates them must keep its exact
  // canonical text, because grid_config_hash() pins that text in every
  // checkpoint manifest — emitting `avail = always` unconditionally would
  // refuse to --resume any run interrupted before the axes existed.
  const ScenarioGrid grid_defaults;
  if (grid.avails != grid_defaults.avails) {
    join("avail", grid.avails,
         [](platform::AvailabilityModel m) { return platform::to_string(m); });
  }
  if (grid.mtbf_tasks != grid_defaults.mtbf_tasks) {
    join("mtbf_tasks", grid.mtbf_tasks, util::fmt_exact);
  }
  if (grid.outage_fracs != grid_defaults.outage_fracs) {
    join("outage_frac", grid.outage_fracs, util::fmt_exact);
  }
  if (grid.engine_shards != grid_defaults.engine_shards) {
    out << "engine_shards = " << grid.engine_shards << "\n";
  }
  if (grid.shard_routing != grid_defaults.shard_routing) {
    out << "shard_routing = " << grid.shard_routing << "\n";
  }
  if (grid.shard_threads != grid_defaults.shard_threads) {
    out << "shard_threads = " << grid.shard_threads << "\n";
  }
  if (grid.ipp_amplitude != grid_defaults.ipp_amplitude) {
    out << "ipp_amplitude = " << util::fmt_exact(grid.ipp_amplitude) << "\n";
  }
  if (grid.ipp_period_tasks != grid_defaults.ipp_period_tasks) {
    out << "ipp_period_tasks = " << util::fmt_exact(grid.ipp_period_tasks)
        << "\n";
  }
  const platform::GeneratorRanges defaults;
  if (grid.ranges.comm_lo != defaults.comm_lo) {
    out << "comm_lo = " << util::fmt_exact(grid.ranges.comm_lo) << "\n";
  }
  if (grid.ranges.comm_hi != defaults.comm_hi) {
    out << "comm_hi = " << util::fmt_exact(grid.ranges.comm_hi) << "\n";
  }
  if (grid.ranges.comp_lo != defaults.comp_lo) {
    out << "comp_lo = " << util::fmt_exact(grid.ranges.comp_lo) << "\n";
  }
  if (grid.ranges.comp_hi != defaults.comp_hi) {
    out << "comp_hi = " << util::fmt_exact(grid.ranges.comp_hi) << "\n";
  }
  return out.str();
}

}  // namespace msol::runner
