#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace msol::util {
namespace {

// ---------------------------------------------------------------- Rng ------

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LE(v, 3.5);
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(7);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    lo |= (v == 0);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, ExponentialMeanApproximatesInverseRate) {
  Rng rng(11);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential(4.0);
  EXPECT_NEAR(total / n, 0.25, 0.01);
}

TEST(Rng, ForkIsIndependentOfParentUsage) {
  Rng parent1(99);
  Rng child1 = parent1.fork();
  Rng parent2(99);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(0.0, 1.0), child2.uniform(0.0, 1.0));
  }
}

TEST(Rng, SequentialForksDecorrelate) {
  // Regression for the pre-splitmix fork(): children seeded with raw
  // engine outputs. Siblings must not produce near-identical streams.
  Rng parent(7);
  Rng a = parent.fork();
  Rng b = parent.fork();
  int agree = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 9) == b.uniform_int(0, 9)) ++agree;
  }
  EXPECT_LT(agree, 30);  // ~10 expected for independent streams
}

TEST(Rng, CounterForkIgnoresParentState) {
  // fork(i) depends only on (construction seed, i): a heavily-used parent
  // and a fresh one hand out the exact same child stream, which is what
  // lets the parallel runner seed cell i from any worker thread.
  Rng used(123);
  for (int i = 0; i < 50; ++i) used.uniform(0.0, 1.0);
  (void)used.fork();
  Rng fresh(123);
  Rng a = used.fork(17);
  Rng b = fresh.fork(17);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, CounterForkSeparatesSiblingsAndSeeds) {
  Rng rng(5);
  EXPECT_NE(rng.child_seed(0), rng.child_seed(1));
  EXPECT_NE(Rng(5).child_seed(3), Rng(6).child_seed(3));
  // Nested grids: child i of seed s must not collide with child i+1 of a
  // neighbouring seed (the two-round mix breaks such lattice alignments).
  EXPECT_NE(Rng(5).child_seed(1), Rng(6).child_seed(0));
  Rng a = rng.fork(0);
  Rng b = rng.fork(1);
  int agree = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 9) == b.uniform_int(0, 9)) ++agree;
  }
  EXPECT_LT(agree, 30);
}

// -------------------------------------------------------------- stats ------

TEST(Stats, SummaryOfKnownSample) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MedianOddCount) {
  EXPECT_DOUBLE_EQ(summarize({5.0, 1.0, 3.0}).median, 3.0);
}

TEST(Stats, EmptySampleIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SingleValueHasNoSpread) {
  const Summary s = summarize({42.0});
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width, 0.0);
}

TEST(Stats, TCriticalValuesMatchTheTable) {
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);  // no interval for n < 2
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(t_critical_95(4), 2.776);
  EXPECT_DOUBLE_EQ(t_critical_95(9), 2.262);   // the default 10 platforms
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  EXPECT_DOUBLE_EQ(t_critical_95(45), 2.000);
  EXPECT_DOUBLE_EQ(t_critical_95(100), 1.980);
  EXPECT_DOUBLE_EQ(t_critical_95(100000), 1.960);  // normal limit
  for (std::size_t df = 1; df < 130; ++df) {
    EXPECT_GE(t_critical_95(df), t_critical_95(df + 1)) << "df=" << df;
    EXPECT_GE(t_critical_95(df), 1.96);
  }
}

TEST(Stats, Ci95UsesStudentTNotZ) {
  // n = 4 => df = 3 => t = 3.182; the old z = 1.96 understated the
  // half-width by ~40% at this sample size.
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(s.ci95_half_width, 3.182 * s.stddev / 2.0, 1e-12);
  EXPECT_GT(s.ci95_half_width, 1.96 * s.stddev / 2.0);
}

// -------------------------------------------------------------- table ------

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "10.25"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("10.25"), std::string::npos);
}

TEST(Table, RowWidthMustMatchHeader) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"x"});
  t.add_row({"a,b"});
  t.add_row({"say \"hi\""});
  t.add_row({"line\rbreak"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("\"line\rbreak\""), std::string::npos);
}

TEST(Table, FmtFixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 3), "1.235");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
}

/// fmt_exact as it was written with string streams: the first of
/// precisions 1..17 whose stream text strtod reads back to the value.
std::string fmt_exact_by_streams(double value) {
  if (!std::isfinite(value)) {
    std::ostringstream out;
    out << value;
    return out.str();
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream out;
    out.precision(precision);
    out << value;
    if (std::strtod(out.str().c_str(), nullptr) == value) return out.str();
  }
  return "unreachable";
}

TEST(Table, FmtExactPinnedSpellings) {
  EXPECT_EQ(fmt_exact(1000.0), "1e+03");
  EXPECT_EQ(fmt_exact(0.1), "0.1");
  EXPECT_EQ(fmt_exact(1e21), "1e+21");
  EXPECT_EQ(fmt_exact(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(fmt_exact(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(fmt_exact(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(Table, FmtExactMatchesTheStreamSearch) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0,          -0.0,
                                limits::denorm_min(),
                                -limits::denorm_min(),
                                limits::min(),  limits::max(),
                                -limits::max(), 5e-324,
                                1e21,           1e22,
                                100.0,          1000.0,
                                120.0,          0.1,
                                1.0 / 3.0,      0.9,
                                1970650295646273024.0};
  for (double p = 1e15; p <= 1e17; p *= 10.0) {
    for (int d = -3; d <= 3; ++d) values.push_back(p + d);
  }
  // Powers of two sit at a binade's lower edge, where the gap below is half
  // the gap above: for 46 of them the %g text at the shortest digit count
  // misses, and the search has to go one precision further.
  for (int e = -1074; e <= 1023; ++e) values.push_back(std::ldexp(1.0, e));
  const double two53 = 9007199254740992.0;
  for (int d = -64; d <= 64; ++d) values.push_back(two53 + 2.0 * d);

  std::mt19937_64 bits(20060101);
  auto from_bits = [](std::uint64_t pattern) {
    double value = 0.0;
    std::memcpy(&value, &pattern, sizeof value);
    return value;
  };
  for (int i = 0; i < 60000; ++i) values.push_back(from_bits(bits()));
  // Subnormals: a zero exponent field under a random mantissa and sign.
  for (int i = 0; i < 5000; ++i) {
    values.push_back(from_bits(bits() & 0x800fffffffffffffULL));
  }
  // Integers at and above 2^53, where neighbours are 2, 4, ... apart.
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t integer = bits();
    values.push_back(static_cast<double>(integer >> (bits() % 11)));
  }
  // Scaled integers: short decimals at every magnitude, where the
  // fewest-digits text and the %g search part ways most often.
  for (int i = 0; i < 20000; ++i) {
    const double mantissa = static_cast<double>(bits() % 100000);
    const int exponent = static_cast<int>(bits() % 61) - 30;
    values.push_back(mantissa * std::pow(10.0, exponent));
  }
  // Simulation-sized metrics: makespans and flows, mostly 16-17 digits.
  std::uniform_real_distribution<double> metric(0.0, 5000.0);
  for (int i = 0; i < 10000; ++i) values.push_back(metric(bits));
  ASSERT_GE(values.size(), 100000u);

  std::size_t mismatches = 0;
  for (const double value : values) {
    const std::string want = fmt_exact_by_streams(value);
    const std::string got = fmt_exact(value);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "fmt_exact(" << want << ") = " << got;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// ---------------------------------------------------------------- cli ------

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--tasks=100", "--verbose", "positional"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("tasks", 0), 100);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("verbose", ""), "true");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 2.5), 2.5);
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
}

TEST(Cli, ValueKeysAcceptSeparatedValues) {
  const char* argv[] = {"prog", "--threads", "4", "--csv", "out.csv",
                        "--quiet", "grid.txt"};
  Cli cli(7, argv, {"threads", "csv"});
  EXPECT_EQ(cli.get_int("threads", 0), 4);
  EXPECT_EQ(cli.get("csv", ""), "out.csv");
  EXPECT_TRUE(cli.has("quiet"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "grid.txt");
}

TEST(Cli, ValueKeyWithoutValueThrows) {
  const char* missing[] = {"prog", "--csv", "--quiet"};
  EXPECT_THROW(Cli(3, missing, {"csv"}), std::invalid_argument);
  const char* trailing[] = {"prog", "--csv"};
  EXPECT_THROW(Cli(2, trailing, {"csv"}), std::invalid_argument);
  const char* equals[] = {"prog", "--csv=x", "--quiet"};  // = form unaffected
  Cli cli(3, equals, {"csv"});
  EXPECT_EQ(cli.get("csv", ""), "x");
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
}

TEST(Cli, GetDoubleRejectsTrailingJunkAndNonFiniteValues) {
  // stod alone stops at the first bad character, so "--load 0.5x" silently
  // parsed as 0.5; full-consumption and finiteness are now required, the
  // same strictness get_uint64 applies.
  const char* argv[] = {"prog",       "--load=0.5x", "--inf=inf",
                        "--nan=nan",  "--neg=-inf",  "--empty=",
                        "--ok=-2.5e3"};
  Cli cli(7, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("ok", 0.0), -2500.0);
  EXPECT_THROW(cli.get_double("load", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("inf", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("nan", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("neg", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("empty", 0.0), std::invalid_argument);
}

TEST(Cli, GetIntRejectsTrailingJunkAndFractions) {
  // "--threads 4x" ran on 4 threads and "--platforms=2.9" on 2 platforms.
  const char* argv[] = {"prog", "--threads=4x", "--platforms=2.9",
                        "--tasks=1e3", "--big=9223372036854775808",
                        "--ok=-12"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("ok", 0), -12);
  EXPECT_THROW(cli.get_int("threads", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("platforms", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("tasks", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("big", 0), std::invalid_argument);
}

TEST(Cli, GetIntRejectsValuesOutsideIntRangeOrBelowMin) {
  // "--tasks 4294967297" used to narrow to a 1-task run.
  const char* argv[] = {"prog", "--tasks=4294967297", "--low=-2147483649",
                        "--zero=0", "--one=1"};
  Cli cli(5, argv);
  EXPECT_THROW(cli.get_int("tasks", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("low", 0), std::invalid_argument);
  EXPECT_EQ(cli.get_int("zero", 5), 0);
  EXPECT_THROW(cli.get_int("zero", 5, 1), std::invalid_argument);
  EXPECT_EQ(cli.get_int("one", 5, 1), 1);
  EXPECT_EQ(cli.get_int("absent", 5, 1), 5);
}

TEST(Cli, GetUint64CoversFullRangeAndRejectsNegatives) {
  const char* argv[] = {"prog", "--seed=18446744073709551615", "--bad=-1",
                        "--junk=12x", "--shards=4"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_uint64("seed", 0), 18446744073709551615ULL);
  EXPECT_EQ(cli.get_uint64("shards", 1), 4u);
  EXPECT_EQ(cli.get_uint64("absent", 9), 9u);
  // stoull would happily wrap "-1" to 2^64-1; get_uint64 must not.
  EXPECT_THROW(cli.get_uint64("bad", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_uint64("junk", 0), std::invalid_argument);
}

// -------------------------------------------------------------- parse ------

TEST(Parse, TrimAndSplitKeepEveryField) {
  EXPECT_EQ(trim(" \tx y\r "), "x y");
  EXPECT_EQ(trim(" \t"), "");
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Parse, IntegersAreWholeTokensInRange) {
  EXPECT_EQ(parse_int64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_int64("+7"), 7);
  EXPECT_EQ(parse_int("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_EQ(parse_uint64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", " 1", "1 ", "1x", "2.9", "1e3", "0x10", "--1"}) {
    EXPECT_FALSE(parse_int64(bad)) << bad;
    EXPECT_FALSE(parse_int(bad)) << bad;
    EXPECT_FALSE(parse_uint64(bad)) << bad;
  }
  EXPECT_FALSE(parse_int64("9223372036854775808"));
  EXPECT_FALSE(parse_int("2147483648"));
  EXPECT_FALSE(parse_int("-2147483649"));
  // Any sign is rejected: strtoull wraps "-1" to 2^64 - 1.
  for (const char* bad : {"-1", "+1", "-0", "18446744073709551616"}) {
    EXPECT_FALSE(parse_uint64(bad)) << bad;
  }
}

TEST(Parse, DoublesAreFiniteWholeTokens) {
  for (const char* bad : {"", " 1", "1 ", "0.5x", "x", "nan", "inf", "-inf",
                          "infinity", "1e999", "-1e999", "1,5"}) {
    EXPECT_FALSE(parse_double(bad)) << bad;
  }
  EXPECT_EQ(parse_double("-2.5e3"), -2500.0);
  // std::stod throws on a subnormal; a serialized subnormal must read back.
  EXPECT_EQ(parse_double("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
}

TEST(Parse, DoublesReadBitIdenticallyToStodAndStreamExtraction) {
  for (const char* token :
       {"0.1", "-0", "1e-5", "3.14159265358979323846", "0.30000000000000004",
        "2.2250738585072014e-308", "123456789012345678901234567890",
        "0.19534897517510916", "7.25", "1e300"}) {
    const double expected = std::stod(token);
    double streamed = 0.0;
    std::istringstream(token) >> streamed;
    const std::optional<double> parsed = parse_double(token);
    ASSERT_TRUE(parsed) << token;
    EXPECT_EQ(std::memcmp(&*parsed, &expected, sizeof(double)), 0) << token;
    EXPECT_EQ(std::memcmp(&*parsed, &streamed, sizeof(double)), 0) << token;
  }
}

TEST(Parse, NumberRowsSkipCommentsAndNameTheirLocation) {
  std::istringstream in("# header\n 1\t2.5  3 # note\n\n4\n");
  std::vector<std::pair<std::vector<double>, std::string>> rows;
  read_number_rows(in, "platform",
                   [&rows](const std::vector<double>& row,
                           const std::string& where) {
                     rows.emplace_back(row, where);
                   });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, (std::vector<double>{1.0, 2.5, 3.0}));
  EXPECT_EQ(rows[0].second, "platform line 2");
  EXPECT_EQ(rows[1].second, "platform line 4");

  std::istringstream bad("1 2\n1 abc\n");
  try {
    read_number_rows(bad, "platform", [](const auto&, const auto&) {});
    ADD_FAILURE() << "accepted a non-number";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "platform line 2: bad number 'abc'");
  }
}

}  // namespace
}  // namespace msol::util
