/** @file Unit tests for the JSON document model and parser. */

#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>

#include "util/error.h"

namespace treadmill {
namespace json {
namespace {

TEST(JsonParseTest, ParsesScalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_TRUE(parse("true").asBool());
    EXPECT_FALSE(parse("false").asBool());
    EXPECT_DOUBLE_EQ(parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parse("-3.5").asNumber(), -3.5);
    EXPECT_DOUBLE_EQ(parse("1e3").asNumber(), 1000.0);
    EXPECT_DOUBLE_EQ(parse("2.5E-2").asNumber(), 0.025);
    EXPECT_EQ(parse("\"hello\"").asString(), "hello");
}

TEST(JsonParseTest, ParsesNestedStructure)
{
    const Value v = parse(R"({
        "workload": "memcached",
        "get_fraction": 0.95,
        "sizes": [16, 32, 64],
        "nested": {"deep": {"value": true}}
    })");
    EXPECT_EQ(v.at("workload").asString(), "memcached");
    EXPECT_DOUBLE_EQ(v.at("get_fraction").asNumber(), 0.95);
    EXPECT_EQ(v.at("sizes").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("sizes").asArray()[1].asNumber(), 32.0);
    EXPECT_TRUE(v.at("nested").at("deep").at("value").asBool());
}

TEST(JsonParseTest, ParsesEmptyContainers)
{
    EXPECT_TRUE(parse("[]").asArray().empty());
    EXPECT_TRUE(parse("{}").asObject().empty());
}

TEST(JsonParseTest, HandlesEscapes)
{
    const Value v = parse(R"("line\nbreak\t\"quote\" back\\slash")");
    EXPECT_EQ(v.asString(), "line\nbreak\t\"quote\" back\\slash");
}

TEST(JsonParseTest, HandlesUnicodeEscapes)
{
    EXPECT_EQ(parse(R"("A")").asString(), "A");
    EXPECT_EQ(parse(R"("é")").asString(), "\xc3\xa9");
    EXPECT_EQ(parse(R"("€")").asString(), "\xe2\x82\xac");
}

TEST(JsonParseTest, RejectsMalformedInput)
{
    EXPECT_THROW(parse(""), ConfigError);
    EXPECT_THROW(parse("{"), ConfigError);
    EXPECT_THROW(parse("[1, 2,]"), ConfigError);
    EXPECT_THROW(parse("{\"a\": }"), ConfigError);
    EXPECT_THROW(parse("tru"), ConfigError);
    EXPECT_THROW(parse("1 2"), ConfigError);
    EXPECT_THROW(parse("\"unterminated"), ConfigError);
    EXPECT_THROW(parse("{'single': 1}"), ConfigError);
    EXPECT_THROW(parse("01x"), ConfigError);
    EXPECT_THROW(parse("1."), ConfigError);
    EXPECT_THROW(parse("1e"), ConfigError);
}

TEST(JsonParseTest, ErrorMessageIncludesPosition)
{
    try {
        parse("{\n  \"a\": oops\n}");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(JsonValueTest, TypeMismatchThrows)
{
    const Value v = parse("{\"a\": 1}");
    EXPECT_THROW(v.asArray(), ConfigError);
    EXPECT_THROW(v.at("a").asString(), ConfigError);
    EXPECT_THROW(v.at("missing"), ConfigError);
    EXPECT_THROW(parse("3.5").asInt(), ConfigError);
}

TEST(JsonValueTest, DefaultedAccessors)
{
    const Value v = parse("{\"rate\": 5, \"open\": true, "
                          "\"name\": \"tm\"}");
    EXPECT_DOUBLE_EQ(v.numberOr("rate", 1.0), 5.0);
    EXPECT_DOUBLE_EQ(v.numberOr("missing", 1.0), 1.0);
    EXPECT_EQ(v.intOr("rate", 0), 5);
    EXPECT_TRUE(v.boolOr("open", false));
    EXPECT_FALSE(v.boolOr("missing", false));
    EXPECT_EQ(v.stringOr("name", "x"), "tm");
    EXPECT_EQ(v.stringOr("missing", "x"), "x");
}

TEST(JsonValueTest, ContainsWorksOnNonObjects)
{
    EXPECT_FALSE(parse("[1]").contains("a"));
    EXPECT_FALSE(parse("3").contains("a"));
}

TEST(JsonDumpTest, RoundTripsCompact)
{
    const std::string text =
        R"({"a":[1,2,{"b":null}],"c":"x","d":true,"e":-2.5})";
    const Value v = parse(text);
    EXPECT_EQ(parse(v.dump()), v);
}

TEST(JsonDumpTest, EscapesControlCharacters)
{
    const Value v(std::string("a\x01" "b"));
    EXPECT_EQ(v.dump(), "\"a\\u0001b\"");
    EXPECT_EQ(parse(v.dump()), v);
}

TEST(JsonDumpTest, PrettyOutputIsReparseable)
{
    const Value v = parse(R"({"a": [1, 2], "b": {"c": 3}})");
    EXPECT_EQ(parse(v.dumpPretty()), v);
    EXPECT_NE(v.dumpPretty().find('\n'), std::string::npos);
}

TEST(JsonDumpTest, IntegersPrintWithoutDecimal)
{
    EXPECT_EQ(Value(42).dump(), "42");
    EXPECT_EQ(Value(-7).dump(), "-7");
}

TEST(JsonDumpTest, DoublesPrintShortestRoundTrip)
{
    EXPECT_EQ(Value(0.9).dump(), "0.9");
    EXPECT_EQ(Value(0.1).dump(), "0.1");
    EXPECT_EQ(Value(2.5).dump(), "2.5");
    // Values needing full precision still round-trip exactly.
    const double awkward = 0.1 + 0.2;
    EXPECT_DOUBLE_EQ(parse(Value(awkward).dump()).asNumber(), awkward);
    const double tiny = 1.2345678901234567e-30;
    EXPECT_DOUBLE_EQ(parse(Value(tiny).dump()).asNumber(), tiny);
}

/** The number format as printf/strtod state it: integral values below
 *  1e15 as integers, otherwise the shortest of %.15g..%.17g that
 *  round-trips through strtod. */
std::string
referenceNumber(double n)
{
    char buf[64];
    if (std::isfinite(n) && std::fabs(n) < 1e15 && n == std::trunc(n)) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(n));
        return buf;
    }
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, n);
        if (std::strtod(buf, nullptr) == n)
            break;
    }
    return buf;
}

TEST(JsonDumpTest, NumbersMatchPrintfReferenceAtEdges)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double edges[] = {
        0.0, -0.0, 1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 0.5,
        9007199254740992.0, -9007199254740992.0, 9.3e18, -9.3e18,
        1e19, 1e300, -1e300, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        2.2250738585072009e-308, 1e-310, 0.1, 0.1 + 0.2, 1.0 / 3.0,
        123.456, -2.5, inf, -inf, nan, -nan};
    for (double n : edges)
        EXPECT_EQ(Value(n).dump(), referenceNumber(n)) << n;
    EXPECT_EQ(Value(-0.0).dump(), "0");
    EXPECT_EQ(Value(9007199254740992.0).dump(), "9007199254740992");
    EXPECT_EQ(Value(inf).dump(), "inf");
    EXPECT_EQ(Value(nan).dump(), "nan");
}

TEST(JsonDumpTest, NumbersMatchPrintfReferenceOnRandomBits)
{
    std::mt19937_64 rng(20160618);
    for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t bits = rng();
        double n;
        std::memcpy(&n, &bits, sizeof(n));
        ASSERT_EQ(Value(n).dump(), referenceNumber(n)) << bits;
        // Decimal-looking values: what exports mostly print.
        const double scaled =
            static_cast<double>(static_cast<std::int64_t>(bits >> 11)) /
            std::pow(10.0, static_cast<double>(bits % 19));
        ASSERT_EQ(Value(scaled).dump(), referenceNumber(scaled)) << bits;
    }
}

TEST(JsonWriterTest, MatchesCanonicalDump)
{
    std::string out;
    Writer w(out);
    w.beginObject()
        .key("a")
        .beginArray()
        .value(std::int64_t{1})
        .value(2.5)
        .beginObject()
        .member("b", true)
        .endObject()
        .beginArray()
        .endArray()
        .endArray()
        .member("c", "x\"\n")
        .key("d")
        .beginObject()
        .endObject()
        .member("e", -0.1)
        .endObject();
    EXPECT_EQ(out, parse(out).dump());
    EXPECT_EQ(out, R"({"a":[1,2.5,{"b":true},[]],"c":"x\"\n",)"
                   R"("d":{},"e":-0.1})");
}

TEST(JsonWriterTest, DuplicateOrOutOfOrderKeyThrows)
{
    std::string out;
    Writer dup(out);
    dup.beginObject().member("a", true);
    EXPECT_THROW(dup.key("a"), std::logic_error);

    Writer order(out);
    order.beginObject().member("b", true);
    EXPECT_THROW(order.key("a"), std::logic_error);

    // Order is per object: a nested object starts afresh.
    Writer nested(out);
    nested.beginObject().key("b").beginObject().member("a", true);
    EXPECT_NO_THROW(nested.endObject().member("c", false).endObject());
}

TEST(JsonWriterTest, MisplacedValueOrCloseThrows)
{
    std::string out;
    Writer noKey(out);
    noKey.beginObject();
    EXPECT_THROW(noKey.value(true), std::logic_error);
    Writer mismatch(out);
    mismatch.beginArray();
    EXPECT_THROW(mismatch.endObject(), std::logic_error);
}

TEST(JsonValueTest, EqualityComparesDeeply)
{
    EXPECT_EQ(parse("[1, [2, 3]]"), parse("[1,[2,3]]"));
    EXPECT_FALSE(parse("[1]") == parse("[2]"));
    EXPECT_FALSE(parse("1") == parse("\"1\""));
}

TEST(JsonFileTest, MissingFileThrows)
{
    EXPECT_THROW(parseFile("/nonexistent/path.json"), ConfigError);
}

} // namespace
} // namespace json
} // namespace treadmill
