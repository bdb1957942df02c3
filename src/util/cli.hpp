#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace msol::util {

/// Minimal --key=value / --flag parser shared by benches and examples.
///
/// Unknown keys are kept and can be listed, so binaries can warn instead of
/// silently ignoring typos. Only long options are supported; everything the
/// harness binaries need.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// As above, but keys named in `value_keys` may also take their value as
  /// the following argument ("--threads 4" == "--threads=4"). Only listed
  /// keys consume a successor, so bare flags and positionals keep working;
  /// a listed key with no value throws std::invalid_argument rather than
  /// degrading to a flag.
  Cli(int argc, const char* const* argv,
      const std::set<std::string>& value_keys);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric getters follow util/parse.hpp ("4x", "2.9", "inf" throw).
  /// get_int also throws when the value is outside int range or below
  /// `min`, so "--tasks 4294967297" fails instead of wrapping to 1.
  int get_int(const std::string& key, int fallback,
              int min = std::numeric_limits<int>::min()) const;
  /// Full uint64 range; counts and indices (--shards, --shard-index) use
  /// this so "-1" fails loudly instead of wrapping.
  std::uint64_t get_uint64(const std::string& key,
                           std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Positional (non --key) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys seen on the command line, for unknown-option warnings.
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace msol::util
