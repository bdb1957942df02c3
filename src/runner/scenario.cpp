#include "runner/scenario.hpp"

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "algorithms/policy_spec.hpp"
#include "algorithms/registry.hpp"
#include "core/sharded_engine.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace msol::runner {

namespace {

// The helpers below throw std::invalid_argument with the bare reason;
// parse_grid adds the "grid: " prefix and the offending line.

double parse_double(const std::string& token) {
  if (const std::optional<double> v = util::parse_double(token)) return *v;
  throw std::invalid_argument("bad number '" + token + "'");
}

int parse_int(const std::string& token) {
  if (const std::optional<int> v = util::parse_int(token)) return *v;
  throw std::invalid_argument(
      util::parse_int64(token) ? "integer '" + token + "' does not fit in int"
                               : "bad integer '" + token + "'");
}

/// A registry name, policy spec or meta spec, validated so that a typo
/// fails at parse time, not mid-sweep.
std::string parse_algorithm(const std::string& spec) {
  algorithms::canonical_spec(spec);
  return spec;
}

/// The comma-separated values of a key, trimmed, empty ones dropped.
template <typename T>
std::vector<T> parse_list(const std::string& value,
                          T (*parse)(const std::string&)) {
  std::vector<T> out;
  for (const std::string& item : util::split(value, ',')) {
    const std::string token = util::trim(item);
    if (!token.empty()) out.push_back(parse(token));
  }
  if (out.empty()) throw std::invalid_argument("empty value list");
  return out;
}

/// The value among `values` that to_string() spells as `token`.
template <typename Enum>
Enum parse_enum(const std::string& token, std::initializer_list<Enum> values,
                const std::string& what) {
  for (Enum v : values) {
    if (token == to_string(v)) return v;
  }
  throw std::invalid_argument("unknown " + what + " '" + token + "'");
}

/// Rejects at parse time a value the run would only refuse mid-sweep or
/// would silently misread.
template <typename T, typename Ok>
T require(T value, Ok ok, const std::string& rule) {
  if (!ok(value)) throw std::invalid_argument(rule);
  return value;
}

template <typename T, typename Ok>
std::vector<T> require_each(std::vector<T> values, Ok ok,
                            const std::string& rule) {
  for (const T& v : values) require(v, ok, rule);
  return values;
}

bool positive(double v) { return v > 0.0; }
bool at_least_one(int v) { return v >= 1; }
bool non_negative(int v) { return v >= 0; }
bool lookahead_ok(int v) { return v >= 0 && v <= algorithms::kMaxLookahead; }

/// Cap on `slaves` and `tasks`: the generators allocate O(value), so an
/// absurd value would exhaust memory instead of failing. Same order as
/// kMaxLookahead, far above every committed grid.
constexpr int kMaxGridSize = 1000000;
bool grid_size_ok(int v) { return v >= 1 && v <= kMaxGridSize; }

}  // namespace

platform::PlatformClass parse_platform_class(const std::string& token) {
  using platform::PlatformClass;
  return parse_enum(
      token,
      {PlatformClass::kFullyHomogeneous, PlatformClass::kCommHomogeneous,
       PlatformClass::kCompHomogeneous, PlatformClass::kFullyHeterogeneous},
      "platform class");
}

experiments::ArrivalProcess parse_arrival(const std::string& token) {
  using experiments::ArrivalProcess;
  return parse_enum(token,
                    {ArrivalProcess::kAllAtZero, ArrivalProcess::kPoisson,
                     ArrivalProcess::kBursty, ArrivalProcess::kInhomogeneous},
                    "arrival process");
}

experiments::TaskSizeMix parse_size_mix(const std::string& token) {
  using experiments::TaskSizeMix;
  return parse_enum(token,
                    {TaskSizeMix::kUnit, TaskSizeMix::kPareto,
                     TaskSizeMix::kLognormal},
                    "size mix");
}

platform::AvailabilityModel parse_availability(const std::string& token) {
  using platform::AvailabilityModel;
  return parse_enum(token,
                    {AvailabilityModel::kAlways, AvailabilityModel::kRareOutage,
                     AvailabilityModel::kChurn, AvailabilityModel::kDrift},
                    "availability model");
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
  // a run opens any output.
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

namespace {

/// Sets `key` on `grid`; parse_grid locates any error it throws.
void apply_key(ScenarioGrid& grid, const std::string& key,
               const std::string& value) {
  if (key == "name") {
    grid.name = value;
  } else if (key == "seed") {
    // The full uint64 space, not parse_int: cell seeds are splitmix64
    // outputs a user may paste back for reproduction.
    const std::optional<std::uint64_t> seed = util::parse_uint64(value);
    if (!seed) {
      throw std::invalid_argument(
          "seed must be an integer in [0, 2^64 - 1], got '" + value + "'");
    }
    grid.seed = *seed;
  } else if (key == "platforms") {
    grid.num_platforms =
        require(parse_int(value), at_least_one, "platforms must be >= 1");
  } else if (key == "tasks") {
    grid.num_tasks = require(parse_int(value), grid_size_ok,
                             "tasks must be in [1, " +
                                 std::to_string(kMaxGridSize) + "]");
  } else if (key == "lookahead") {
    grid.lookahead = require(parse_int(value), lookahead_ok,
                             "lookahead must be in [0, " +
                                 std::to_string(algorithms::kMaxLookahead) +
                                 "]");
  } else if (key == "algorithms") {
    grid.algorithms = parse_list(value, parse_algorithm);
  } else if (key == "class") {
    grid.classes = parse_list(value, parse_platform_class);
  } else if (key == "slaves") {
    grid.slave_counts = require_each(parse_list(value, parse_int),
                                     grid_size_ok,
                                     "slaves must be in [1, " +
                                         std::to_string(kMaxGridSize) + "]");
  } else if (key == "arrival") {
    grid.arrivals = parse_list(value, parse_arrival);
  } else if (key == "load") {
    grid.loads = require_each(parse_list(value, parse_double), positive,
                              "load must be finite and > 0");
  } else if (key == "jitter") {
    grid.jitters = require_each(
        parse_list(value, parse_double),
        [](double v) { return v >= 0.0 && v < 1.0; },
        "jitter must be in [0, 1)");
  } else if (key == "port") {
    grid.port_capacities = require_each(parse_list(value, parse_int),
                                        non_negative, "port must be >= 0");
  } else if (key == "sizes") {
    grid.size_mixes = parse_list(value, parse_size_mix);
  } else if (key == "avail") {
    grid.avails = parse_list(value, parse_availability);
  } else if (key == "mtbf_tasks") {
    grid.mtbf_tasks = require_each(parse_list(value, parse_double), positive,
                                   "mtbf_tasks must be finite and > 0");
  } else if (key == "outage_frac") {
    grid.outage_fracs = require_each(
        parse_list(value, parse_double),
        [](double v) { return v >= 0.0 && v <= 0.9; },
        "outage_frac must be in [0, 0.9]");
  } else if (key == "ipp_amplitude") {
    grid.ipp_amplitude = require(
        parse_double(value), [](double v) { return v >= 0.0 && v <= 1.0; },
        "ipp_amplitude must be in [0, 1]");
  } else if (key == "ipp_period_tasks") {
    grid.ipp_period_tasks = require(parse_double(value), positive,
                                    "ipp_period_tasks must be finite and > 0");
  } else if (key == "engine_shards") {
    grid.engine_shards =
        require(parse_int(value), at_least_one, "engine_shards must be >= 1");
  } else if (key == "shard_routing") {
    core::parse_shard_routing(value);
    grid.shard_routing = value;
  } else if (key == "shard_threads") {
    grid.shard_threads =
        require(parse_int(value), non_negative,
                "shard_threads must be >= 0 (0 = hardware concurrency)");
  } else if (key == "comm_lo" || key == "comm_hi" || key == "comp_lo" ||
             key == "comp_hi") {
    platform::GeneratorRanges& r = grid.ranges;
    double& end = key == "comm_lo"   ? r.comm_lo
                  : key == "comm_hi" ? r.comm_hi
                  : key == "comp_lo" ? r.comp_lo
                                     : r.comp_hi;
    end = require(parse_double(value), positive,
                  key + " must be finite and > 0");
  } else {
    throw std::invalid_argument("unknown key '" + key + "'");
  }
}

}  // namespace

ScenarioGrid parse_grid(const std::string& text) {
  ScenarioGrid grid;
  std::map<std::string, std::string> seen;  ///< key -> the line that set it
  std::stringstream stream(text);
  std::string raw;
  while (std::getline(stream, raw)) {
    const std::string line = util::trim(raw.substr(0, raw.find('#')));
    if (line.empty()) continue;
    try {
      const std::size_t eq = line.find('=');
      std::string key = util::trim(line.substr(0, eq));
      const std::string value =
          eq == std::string::npos ? "" : util::trim(line.substr(eq + 1));
      if (key.empty() || value.empty()) {
        throw std::invalid_argument("expected key = value");
      }
      if (key == "algo") key = "algorithms";  // spec-axis alias
      if (!seen.emplace(key, raw).second) {
        throw std::invalid_argument("duplicate key '" + key + "'");
      }
      apply_key(grid, key, value);
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(std::string("grid: ") + error.what() +
                                  " in: " + raw);
    }
  }
  // The generator draws uniform(lo, hi), undefined for lo > hi. Either end
  // may be the default, so the order is checked once the whole grid is
  // read, naming the line that set the upper end (or else the lower one).
  const auto require_ordered = [&seen](const std::string& lo_key, double lo,
                                       const std::string& hi_key, double hi) {
    if (lo <= hi) return;
    const auto hi_line = seen.find(hi_key);
    throw std::invalid_argument(
        "grid: " + lo_key + " = " + util::fmt_exact(lo) + " exceeds " +
        hi_key + " = " + util::fmt_exact(hi) + " in: " +
        (hi_line != seen.end() ? hi_line->second : seen.at(lo_key)));
  };
  require_ordered("comm_lo", grid.ranges.comm_lo, "comm_hi",
                  grid.ranges.comm_hi);
  require_ordered("comp_lo", grid.ranges.comp_lo, "comp_hi",
                  grid.ranges.comp_hi);
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

  const auto join = [&out](const char* key, const auto& values,
                           const auto& fmt) {
    out << key << " = ";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out << ", ";
      out << fmt(values[i]);
    }
    out << "\n";
  };
  if (!grid.algorithms.empty()) {
    join("algorithms", grid.algorithms, [](const std::string& s) { return s; });
  }
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
