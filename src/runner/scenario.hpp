#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "platform/platform.hpp"

namespace msol::runner {

/// Declarative description of a campaign sweep: each axis lists the values
/// it takes and the grid is their cartesian product, one CampaignConfig per
/// cell. This is the file-format-facing struct — see parse_grid() for the
/// `key = value[,value...]` text representation that `msol_run` and the
/// examples load from disk.
///
/// Axis order (outermost to innermost) is fixed — class, slaves, arrival,
/// load, jitter, port, sizes, avail, mtbf_tasks, outage_frac — so a grid
/// expands to the same cell sequence everywhere: cell indices, and
/// therefore the counter-derived per-cell seeds, are part of the format's
/// contract. (The `sizes` axis, and later the three availability axes,
/// were appended innermost precisely so that grids which do not sweep them
/// keep the exact cell indices and seeds they had before they existed.)
struct ScenarioGrid {
  std::string name = "grid";
  std::uint64_t seed = 2006;

  // Shared by every cell (not swept).
  int num_platforms = 10;
  int num_tasks = 1000;
  int lookahead = 1000;
  std::vector<std::string> algorithms;  ///< empty = the paper's seven
  platform::GeneratorRanges ranges;
  /// Inhomogeneous-Poisson knobs, applied to every cell whose arrival axis
  /// value is `inhomogeneous` (see CampaignConfig for the semantics).
  double ipp_amplitude = 0.9;
  double ipp_period_tasks = 50.0;
  /// Engine sharding (shared, not swept): every cell simulates its fleet as
  /// `engine_shards` one-port clusters with `shard_routing` task routing
  /// (see core/sharded_engine.hpp). The defaults (1, "hash") keep the
  /// single-engine path and serialize to nothing, preserving legacy grids'
  /// canonical text and checkpoint config hashes.
  int engine_shards = 1;
  std::string shard_routing = "hash";
  /// Threads advancing each sharded cell's shards (shared, not swept):
  /// 1 = sequential, 0 = hardware concurrency. Purely a wall-clock knob —
  /// cell output is byte-identical at any value — so like the other
  /// defaults it serializes to nothing at 1.
  int shard_threads = 1;

  // Swept axes; expand() takes their cartesian product.
  std::vector<platform::PlatformClass> classes = {
      platform::PlatformClass::kFullyHeterogeneous};
  std::vector<int> slave_counts = {5};
  std::vector<experiments::ArrivalProcess> arrivals = {
      experiments::ArrivalProcess::kPoisson};
  std::vector<double> loads = {0.9};
  std::vector<double> jitters = {0.0};
  std::vector<int> port_capacities = {1};
  std::vector<experiments::TaskSizeMix> size_mixes = {
      experiments::TaskSizeMix::kUnit};
  /// Time-varying availability axes (appended after `sizes`, innermost
  /// last, so pre-existing grids keep their cell indices and seeds).
  std::vector<platform::AvailabilityModel> avails = {
      platform::AvailabilityModel::kAlways};
  std::vector<double> mtbf_tasks = {50.0};
  std::vector<double> outage_fracs = {0.1};
};

/// One concrete cell of an expanded grid: its position in expansion order,
/// a stable human-readable id, and the fully-resolved campaign config whose
/// seed was counter-derived from the grid seed (so it is a function of
/// (grid seed, index) only — never of which thread ran the cell when).
struct ScenarioSpec {
  std::size_t index = 0;
  std::string id;
  experiments::CampaignConfig config;
};

/// Number of cells expand() will produce (product of axis sizes).
std::size_t cell_count(const ScenarioGrid& grid);

/// Expands the cartesian product into concrete cells, in the fixed axis
/// order documented on ScenarioGrid. Throws std::invalid_argument if any
/// axis is empty or if `engine_shards` exceeds a `slaves` value (every
/// engine shard needs at least one slave).
std::vector<ScenarioSpec> expand(const ScenarioGrid& grid);

/// Selects the cells assigned to shard `shard_index` of `shards` by stable
/// modulo assignment on the expanded cell index (cell i goes to shard
/// i % shards), preserving expansion order. Indices and seeds are
/// untouched — they stay the full-grid values, so a sharded run's rows are
/// byte-identical to the same cells' rows in a single-shot run and the K
/// shard outputs interleave back into canonical order (see
/// checkpoint.hpp's merge_outputs). Throws std::invalid_argument if
/// shards == 0 or shard_index >= shards.
std::vector<ScenarioSpec> shard_cells(std::vector<ScenarioSpec> cells,
                                      std::size_t shards,
                                      std::size_t shard_index);

/// Parses the grid text format:
///
///   # comment
///   name = fig1
///   seed = 2006
///   platforms = 10
///   tasks = 1000
///   lookahead = 1000
///   class = fully-homogeneous, fully-heterogeneous
///   slaves = 5, 20
///   arrival = poisson, bursty
///   load = 0.5, 0.9
///   jitter = 0, 0.1
///   port = 1
///   sizes = unit, pareto
///   avail = always, churn
///   mtbf_tasks = 50, 200
///   outage_frac = 0.1
///   ipp_amplitude = 0.9
///   ipp_period_tasks = 50
///   algorithms = SRPT, LS, RR+filter:throttle:2
///
/// `algorithms` (alias: `algo`) takes registry names and policy-spec
/// strings in the mini-language of algorithms/policy_spec.hpp; every
/// entry is validated at parse time. Unknown keys, unparsable values,
/// duplicate keys, integers that do not fit in `int`, and values outside
/// these ranges throw std::invalid_argument with the offending line:
///   - `platforms`, `engine_shards`: >= 1;
///   - `tasks`, `slaves`: in [1, 10^6] (the generators allocate O(value));
///   - `port`, `shard_threads`: >= 0;
///   - `lookahead`: in [0, algorithms::kMaxLookahead] (10^6);
///   - `load`, `mtbf_tasks`, `ipp_period_tasks`: finite and > 0;
///   - `jitter`: in [0, 1);
///   - `ipp_amplitude`: in [0, 1];
///   - `outage_frac`: in [0, 0.9];
///   - `comm_lo`, `comm_hi`, `comp_lo`, `comp_hi`: > 0, each lo <= its hi;
///   - `seed`: in [0, 2^64 - 1].
/// Omitted keys keep the ScenarioGrid defaults.
ScenarioGrid parse_grid(const std::string& text);

/// Reads and parses a grid file; throws std::runtime_error if unreadable.
ScenarioGrid load_grid(const std::string& path);

/// Serializes a grid to the text format parse_grid() accepts; the
/// round-trip parse(serialize(g)) reproduces g exactly.
std::string serialize_grid(const ScenarioGrid& grid);

/// Parses the axis-value spellings used by the grid format ("poisson",
/// "fully-heterogeneous", ...); shared with msol_run's --filter flags.
platform::PlatformClass parse_platform_class(const std::string& token);
experiments::ArrivalProcess parse_arrival(const std::string& token);
experiments::TaskSizeMix parse_size_mix(const std::string& token);
platform::AvailabilityModel parse_availability(const std::string& token);

}  // namespace msol::runner
