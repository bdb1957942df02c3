#include "util/cli.hpp"

#include <stdexcept>

#include "util/parse.hpp"

namespace msol::util {

Cli::Cli(int argc, const char* const* argv) : Cli(argc, argv, {}) {}

Cli::Cli(int argc, const char* const* argv,
         const std::set<std::string>& value_keys) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (value_keys.count(arg) > 0) {
      // A declared value key must get one: silently degrading "--csv
      // --quiet" to a flag would send output to a file named "true".
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        throw std::invalid_argument("--" + arg + " expects a value");
      }
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// The parsed value of `key`, `fallback` if absent, or an error naming
/// the key and what it expects.
template <typename T>
T get_number(const std::map<std::string, std::string>& values,
             const std::string& key, T fallback,
             std::optional<T> (*parse)(const std::string&),
             const std::string& expects) {
  const auto it = values.find(key);
  if (it == values.end()) return fallback;
  if (const std::optional<T> v = parse(it->second)) return *v;
  throw std::invalid_argument("--" + key + " expects " + expects + ", got '" +
                              it->second + "'");
}

}  // namespace

int Cli::get_int(const std::string& key, int fallback, int min) const {
  const std::int64_t value =
      get_number<std::int64_t>(values_, key, fallback, parse_int64,
                               "an integer");
  if (value > std::numeric_limits<int>::max() ||
      value < std::numeric_limits<int>::min()) {
    throw std::invalid_argument("--" + key + " is out of range: " +
                                std::to_string(value));
  }
  if (value < min) {
    throw std::invalid_argument("--" + key + " must be >= " +
                                std::to_string(min) + ", got " +
                                std::to_string(value));
  }
  return static_cast<int>(value);
}

std::uint64_t Cli::get_uint64(const std::string& key,
                              std::uint64_t fallback) const {
  return get_number(values_, key, fallback, parse_uint64,
                    "a non-negative integer");
}

double Cli::get_double(const std::string& key, double fallback) const {
  return get_number(values_, key, fallback, parse_double, "a finite number");
}

std::vector<std::string> Cli::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace msol::util
