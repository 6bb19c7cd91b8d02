/**
 * @file
 * Unit tests for the statistics package: counters, averages, ratio
 * helpers and the table formatter.
 */

#include <gtest/gtest.h>

#include "stats/stats.hh"
#include "stats/table.hh"

namespace unison {
namespace {

TEST(Counter, CountsAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, MeanAndReset)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.record(10.0);
    a.record(20.0);
    EXPECT_DOUBLE_EQ(a.mean(), 15.0);
    EXPECT_EQ(a.samples(), 2u);
    a.reset();
    EXPECT_EQ(a.samples(), 0u);
}

TEST(Ratios, SafeOnZeroDenominator)
{
    EXPECT_DOUBLE_EQ(ratio(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(1, 4), 0.25);
    EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
}

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(3.0, 0), "3");
}

TEST(Table, AlignedOutput)
{
    Table t({"name", "value"});
    t.beginRow();
    t.add(std::string("alpha"));
    t.add(std::uint64_t(42));
    t.beginRow();
    t.add(std::string("a-much-longer-name"));
    t.add(3.14159, 2);

    const std::string text = t.toString();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("3.14"), std::string::npos);
    EXPECT_NE(text.find("a-much-longer-name"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.beginRow();
    t.add(std::string("x"));
    t.add(std::int64_t(-1));
    EXPECT_EQ(t.toCsv(), "a,b\nx,-1\n");
}

TEST(Table, CsvQuotesSpecialFields)
{
    // RFC 4180: mix names like "web+tpch,2:2" must not shift columns,
    // embedded quotes are doubled, newlines stay inside the field.
    Table t({"mix", "note"});
    t.beginRow();
    t.add(std::string("web+tpch,2:2"));
    t.add(std::string("say \"hi\""));
    t.beginRow();
    t.add(std::string("multi\nline"));
    t.add(std::string("plain"));
    EXPECT_EQ(t.toCsv(), "mix,note\n"
                         "\"web+tpch,2:2\",\"say \"\"hi\"\"\"\n"
                         "\"multi\nline\",plain\n");
}

TEST(Table, CsvFieldHelper)
{
    EXPECT_EQ(Table::csvField("plain"), "plain");
    EXPECT_EQ(Table::csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(Table::csvField("q\"q"), "\"q\"\"q\"");
    EXPECT_EQ(Table::csvField(""), "");
}

} // namespace
} // namespace unison
