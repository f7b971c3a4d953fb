#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/csv.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"

namespace flexnet {
namespace {

// ---------------------------------------------------------------- Options

TEST(Options, ParsesAllForms) {
  const char* argv[] = {"prog",     "--alpha", "1",         "--beta=two",
                        "--flag",   "--gamma", "3.5",       "positional",
                        "--truthy"};
  const auto opts = Options::parse(9, argv);
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->get_int("alpha", 0), 1);
  EXPECT_EQ(opts->get("beta"), "two");
  EXPECT_TRUE(opts->get_bool("flag", false));
  EXPECT_DOUBLE_EQ(opts->get_double("gamma", 0.0), 3.5);
  EXPECT_TRUE(opts->get_bool("truthy", false));
  ASSERT_EQ(opts->positional().size(), 1u);
  EXPECT_EQ(opts->positional()[0], "positional");
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const auto opts = Options::parse(1, argv);
  ASSERT_TRUE(opts.has_value());
  EXPECT_FALSE(opts->has("missing"));
  EXPECT_EQ(opts->get("missing", "fallback"), "fallback");
  EXPECT_EQ(opts->get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(opts->get_double("missing", 2.5), 2.5);
  EXPECT_TRUE(opts->get_bool("missing", true));
}

TEST(Options, BoolSpellings) {
  const char* argv[] = {"prog", "--a=1", "--b=true", "--c=on", "--d=no"};
  const auto opts = Options::parse(5, argv);
  ASSERT_TRUE(opts.has_value());
  EXPECT_TRUE(opts->get_bool("a", false));
  EXPECT_TRUE(opts->get_bool("b", false));
  EXPECT_TRUE(opts->get_bool("c", false));
  EXPECT_FALSE(opts->get_bool("d", true));
}

TEST(Options, StrictIntParsingRejectsGarbageOverflowAndEmpty) {
  const char* argv[] = {"prog",           "--trailing", "1e9x",
                        "--huge",         "99999999999999999999",
                        "--tiny",         "-99999999999999999999",
                        "--empty=",       "--floaty",   "3.5",
                        "--spacey",       "12 ",        "--ok",
                        "-42",            "--plus",     "+7"};
  const auto opts = Options::parse(16, argv);
  ASSERT_TRUE(opts.has_value());
  // "1e9x" silently truncating to 1 is exactly the bug this guards against.
  EXPECT_THROW((void)opts->get_int("trailing", 0), std::invalid_argument);
  EXPECT_THROW((void)opts->get_int("huge", 0), std::invalid_argument);
  EXPECT_THROW((void)opts->get_int("tiny", 0), std::invalid_argument);
  EXPECT_THROW((void)opts->get_int("empty", 0), std::invalid_argument);
  EXPECT_THROW((void)opts->get_int("floaty", 0), std::invalid_argument);
  EXPECT_THROW((void)opts->get_int("spacey", 0), std::invalid_argument);
  EXPECT_EQ(opts->get_int("ok", 0), -42);
  EXPECT_EQ(opts->get_int("plus", 0), 7);
  // The error message names the offending option and value.
  try {
    (void)opts->get_int("trailing", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1e9x"), std::string::npos);
  }
}

TEST(Options, StrictDoubleParsingRejectsGarbageAndOverflow) {
  const char* argv[] = {"prog",      "--trailing", "0.5x", "--huge", "1e999",
                        "--empty=",  "--ok",       "2.5",  "--sci",  "1e-3"};
  const auto opts = Options::parse(10, argv);
  ASSERT_TRUE(opts.has_value());
  EXPECT_THROW((void)opts->get_double("trailing", 0.0), std::invalid_argument);
  EXPECT_THROW((void)opts->get_double("huge", 0.0), std::invalid_argument);
  EXPECT_THROW((void)opts->get_double("empty", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(opts->get_double("ok", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(opts->get_double("sci", 0.0), 1e-3);
}

TEST(Options, BareFlagIsNotAValue) {
  // A bare --csv once wrote a file named "true": a flag given without a
  // value is not a path, and reading it as one fails naming the option.
  const char* argv[] = {"prog", "--csv", "--loads", "0.1", "--count"};
  const auto opts = Options::parse(5, argv);
  ASSERT_TRUE(opts.has_value());
  EXPECT_TRUE(opts->has("csv"));
  EXPECT_THROW((void)opts->get("csv"), std::invalid_argument);
  EXPECT_THROW((void)opts->get("count", "fallback"), std::invalid_argument);
  EXPECT_THROW((void)opts->get_int("count", 0), std::invalid_argument);
  EXPECT_THROW((void)opts->get_double("count", 0.0), std::invalid_argument);
  EXPECT_TRUE(opts->get_bool("csv", false));
  EXPECT_EQ(opts->get("loads"), "0.1");
  try {
    (void)opts->get("csv");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--csv"), std::string::npos);
  }
}

TEST(Options, BoolRejectsOtherValues) {
  // `telemetry_dump a.json --series b.json` once printed a.json's summary
  // and dropped b.json: "b.json" is not a boolean.
  const char* argv[] = {"prog",     "a.json",    "--series", "b.json",
                        "--x=off",  "--y=0",     "--z=false", "--w=yes",
                        "--v=TRUE", "--u="};
  const auto opts = Options::parse(10, argv);
  ASSERT_TRUE(opts.has_value());
  EXPECT_THROW((void)opts->get_bool("series", false), std::invalid_argument);
  EXPECT_FALSE(opts->get_bool("x", true));
  EXPECT_FALSE(opts->get_bool("y", true));
  EXPECT_FALSE(opts->get_bool("z", true));
  EXPECT_TRUE(opts->get_bool("w", false));
  EXPECT_THROW((void)opts->get_bool("v", false), std::invalid_argument);
  EXPECT_THROW((void)opts->get_bool("u", false), std::invalid_argument);
  try {
    (void)opts->get_bool("series", false);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("series"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("b.json"), std::string::npos);
  }
}

TEST(Options, DeclaredFlagNeverTakesTheNextToken) {
  // `trace_dump --stats out.bin` once bound "out.bin" to --stats and found
  // no file to read. A declared flag leaves the next token positional in
  // either argument order, and `--flag=0` still gives it a value.
  constexpr std::string_view kFlags[] = {"stats", "hot"};
  const char* before[] = {"prog",    "--stats", "out.bin",
                          "--hot=0", "--tail",  "5"};
  const char* after[] = {"prog",    "out.bin", "--stats",
                         "--hot=0", "--tail",  "5"};
  for (const auto* argv : {before, after}) {
    const auto opts = Options::parse(6, argv, nullptr, kFlags);
    ASSERT_TRUE(opts.has_value());
    ASSERT_EQ(opts->positional().size(), 1u);
    EXPECT_EQ(opts->positional()[0], "out.bin");
    EXPECT_TRUE(opts->get_bool("stats", false));
    EXPECT_FALSE(opts->get_bool("hot", true));
    EXPECT_EQ(opts->get_int("tail", 0), 5);
  }
  // Without the declaration the flag still takes the next token.
  const auto undeclared = Options::parse(6, before);
  ASSERT_TRUE(undeclared.has_value());
  EXPECT_TRUE(undeclared->positional().empty());
  EXPECT_THROW((void)undeclared->get_bool("stats", false),
               std::invalid_argument);
}

TEST(Options, RejectsBareDashes) {
  const char* argv[] = {"prog", "--"};
  std::string error;
  EXPECT_FALSE(Options::parse(2, argv, &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------------- CSV

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row({"1", "x,y"});
  EXPECT_EQ(out.str(), "a,b\n1,\"x,y\"\n");
}

TEST(TableWriter, AlignsColumns) {
  std::ostringstream out;
  TableWriter table("demo");
  table.header({"col", "value"});
  table.row({"x", "1"});
  table.row({"longer", "2"});
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableWriter, NumberFormatting) {
  EXPECT_EQ(TableWriter::num(1.23456, 2), "1.23");
  EXPECT_EQ(TableWriter::num(std::nan(""), 2), "-");
  EXPECT_EQ(TableWriter::integer(-42), "-42");
}

// -------------------------------------------------------------- parallel

TEST(Parallel, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(8,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, WorkerCountIsPositive) {
  EXPECT_GE(worker_thread_count(), 1u);
}

TEST(BenchScale, DefaultsToOne) {
  // The test environment does not set FLEXNET_BENCH_SCALE.
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
}

}  // namespace
}  // namespace flexnet
