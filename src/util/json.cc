#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/error.h"

namespace treadmill {
namespace json {

Value::Value() : tag(Type::Null) {}
Value::Value(std::nullptr_t) : tag(Type::Null) {}
Value::Value(bool b) : tag(Type::Boolean), boolean(b) {}
Value::Value(double num_) : tag(Type::Number), number(num_) {}
Value::Value(int num_) : tag(Type::Number), number(num_) {}
Value::Value(std::int64_t num_)
    : tag(Type::Number), number(static_cast<double>(num_))
{
}
Value::Value(const char *s) : tag(Type::String), str(s) {}
Value::Value(std::string s) : tag(Type::String), str(std::move(s)) {}
Value::Value(Array a)
    : tag(Type::Array), arr(std::make_shared<Array>(std::move(a)))
{
}
Value::Value(Object o)
    : tag(Type::Object), obj(std::make_shared<Object>(std::move(o)))
{
}

namespace {

const char *
typeName(Type t)
{
    switch (t) {
      case Type::Null: return "null";
      case Type::Boolean: return "boolean";
      case Type::Number: return "number";
      case Type::String: return "string";
      case Type::Array: return "array";
      case Type::Object: return "object";
    }
    return "unknown";
}

[[noreturn]] void
typeError(Type want, Type have)
{
    std::ostringstream oss;
    oss << "JSON type mismatch: wanted " << typeName(want) << ", have "
        << typeName(have);
    throw ConfigError(oss.str());
}

} // namespace

bool
Value::asBool() const
{
    if (tag != Type::Boolean)
        typeError(Type::Boolean, tag);
    return boolean;
}

double
Value::asNumber() const
{
    if (tag != Type::Number)
        typeError(Type::Number, tag);
    return number;
}

std::int64_t
Value::asInt() const
{
    const double n = asNumber();
    const auto i = static_cast<std::int64_t>(n);
    if (static_cast<double>(i) != n)
        throw ConfigError("JSON number is not an integer");
    return i;
}

const std::string &
Value::asString() const
{
    if (tag != Type::String)
        typeError(Type::String, tag);
    return str;
}

const Array &
Value::asArray() const
{
    if (tag != Type::Array)
        typeError(Type::Array, tag);
    return *arr;
}

const Object &
Value::asObject() const
{
    if (tag != Type::Object)
        typeError(Type::Object, tag);
    return *obj;
}

const Value &
Value::at(const std::string &key) const
{
    const Object &o = asObject();
    const auto it = o.find(key);
    if (it == o.end())
        throw ConfigError("JSON object missing required key '" + key + "'");
    return it->second;
}

bool
Value::contains(const std::string &key) const
{
    return tag == Type::Object && obj->count(key) > 0;
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    return contains(key) ? at(key).asNumber() : fallback;
}

std::int64_t
Value::intOr(const std::string &key, std::int64_t fallback) const
{
    return contains(key) ? at(key).asInt() : fallback;
}

bool
Value::boolOr(const std::string &key, bool fallback) const
{
    return contains(key) ? at(key).asBool() : fallback;
}

std::string
Value::stringOr(const std::string &key, const std::string &fallback) const
{
    return contains(key) ? at(key).asString() : fallback;
}

bool
Value::operator==(const Value &other) const
{
    if (tag != other.tag)
        return false;
    switch (tag) {
      case Type::Null: return true;
      case Type::Boolean: return boolean == other.boolean;
      case Type::Number: return number == other.number;
      case Type::String: return str == other.str;
      case Type::Array: return *arr == *other.arr;
      case Type::Object: return *obj == *other.obj;
    }
    return false;
}

namespace {

void
escapeTo(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
numberTo(std::string &out, double n)
{
    char buf[32];
    // Integral values print as integers. The range test comes first:
    // the int64 cast is undefined for NaN, infinities and |n| >= 2^63.
    if (std::fabs(n) < 1e15 && n == std::trunc(n)) {
        const auto res = std::to_chars(buf, buf + sizeof(buf),
                                       static_cast<std::int64_t>(n));
        out.append(buf, res.ptr);
        return;
    }
    // The shortest of %.15g, %.16g and %.17g that round-trips exactly
    // (to_chars with a precision is specified as printf's %.*g).
    char *end = buf;
    for (int precision = 15; precision <= 17; ++precision) {
        end = std::to_chars(buf, buf + sizeof(buf), n,
                            std::chars_format::general, precision)
                  .ptr;
        double back = 0.0;
        std::from_chars(buf, end, back);
        if (back == n)
            break;
    }
    out.append(buf, end);
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

} // namespace

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    switch (tag) {
      case Type::Null:
        out += "null";
        break;
      case Type::Boolean:
        out += boolean ? "true" : "false";
        break;
      case Type::Number:
        numberTo(out, number);
        break;
      case Type::String:
        escapeTo(out, str);
        break;
      case Type::Array: {
        out += '[';
        bool first = true;
        for (const Value &v : *arr) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        if (!arr->empty())
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, v] : *obj) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            escapeTo(out, key);
            out += indent > 0 ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        if (!obj->empty())
            newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Value::dump() const
{
    std::string out;
    dumpTo(out, 0, 0);
    return out;
}

std::string
Value::dumpPretty() const
{
    std::string out;
    dumpTo(out, 2, 0);
    return out;
}

Writer::Writer(std::string &out_) : out(out_) {}

void
Writer::beforeValue()
{
    if (depth == 0)
        return;
    Frame &f = frames[depth - 1];
    if (f.object) {
        if (!afterKey)
            throw std::logic_error(
                "json::Writer: object value without a key");
        afterKey = false;
        return;
    }
    if (!f.empty)
        out += ',';
    f.empty = false;
}

void
Writer::open(bool object, char bracket)
{
    beforeValue();
    if (depth == frames.size())
        frames.emplace_back();
    Frame &f = frames[depth++];
    f.object = object;
    f.empty = true;
    f.lastKey.clear();
    out += bracket;
}

void
Writer::close(bool object, char bracket)
{
    if (depth == 0 || frames[depth - 1].object != object || afterKey)
        throw std::logic_error("json::Writer: unbalanced close");
    --depth;
    out += bracket;
}

Writer &
Writer::beginObject()
{
    open(true, '{');
    return *this;
}

Writer &
Writer::endObject()
{
    close(true, '}');
    return *this;
}

Writer &
Writer::beginArray()
{
    open(false, '[');
    return *this;
}

Writer &
Writer::endArray()
{
    close(false, ']');
    return *this;
}

Writer &
Writer::key(std::string_view name)
{
    if (depth == 0 || !frames[depth - 1].object || afterKey)
        throw std::logic_error("json::Writer: key outside an object");
    Frame &f = frames[depth - 1];
    if (!f.empty) {
        if (name <= std::string_view(f.lastKey))
            throw std::logic_error("json::Writer: key '" +
                                   std::string(name) +
                                   "' not above '" + f.lastKey + "'");
        out += ',';
    }
    f.empty = false;
    f.lastKey.assign(name);
    escapeTo(out, name);
    out += ':';
    afterKey = true;
    return *this;
}

Writer &
Writer::value(double num)
{
    beforeValue();
    numberTo(out, num);
    return *this;
}

Writer &
Writer::value(std::int64_t num)
{
    return value(static_cast<double>(num));
}

Writer &
Writer::value(bool b)
{
    beforeValue();
    out += b ? "true" : "false";
    return *this;
}

Writer &
Writer::value(std::string_view s)
{
    beforeValue();
    escapeTo(out, s);
    return *this;
}

namespace {

/** Recursive-descent JSON parser with line/column error reporting. */
class Parser
{
  public:
    explicit Parser(const std::string &text_) : text(text_) {}

    Value
    parseDocument()
    {
        skipWhitespace();
        Value v = parseValue();
        skipWhitespace();
        if (pos != text.size())
            fail("trailing content after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg)
    {
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        std::ostringstream oss;
        oss << "JSON parse error at line " << line << ", column " << col
            << ": " << msg;
        throw ConfigError(oss.str());
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    char
    advance()
    {
        const char c = peek();
        ++pos;
        return c;
    }

    void
    expect(char c)
    {
        if (advance() != c)
            fail(std::string("expected '") + c + "'");
    }

    void
    skipWhitespace()
    {
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos;
            else
                break;
        }
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t len = 0;
        while (lit[len] != '\0')
            ++len;
        if (text.compare(pos, len, lit) == 0) {
            pos += len;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        skipWhitespace();
        const char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Value(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Value(true);
            fail("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return Value(false);
            fail("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return Value(nullptr);
            fail("invalid literal");
          default:
            return parseNumber();
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Object members;
        skipWhitespace();
        if (peek() == '}') {
            advance();
            return Value(std::move(members));
        }
        for (;;) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            members[std::move(key)] = parseValue();
            skipWhitespace();
            const char c = advance();
            if (c == '}')
                return Value(std::move(members));
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Array elems;
        skipWhitespace();
        if (peek() == ']') {
            advance();
            return Value(std::move(elems));
        }
        for (;;) {
            elems.push_back(parseValue());
            skipWhitespace();
            const char c = advance();
            if (c == ']')
                return Value(std::move(elems));
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            const char c = advance();
            if (c == '"')
                return out;
            if (c == '\\') {
                const char esc = advance();
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = advance();
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("invalid \\u escape");
                    }
                    appendUtf8(out, code);
                    break;
                  }
                  default:
                    fail("invalid escape sequence");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
            } else {
                out += c;
            }
        }
    }

    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code >= 0xd800 && code <= 0xdfff)
            code = 0xfffd; // surrogate halves are not supported
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        auto digits = [&] {
            bool any = false;
            while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
                ++pos;
                any = true;
            }
            return any;
        };
        if (!digits())
            fail("invalid number");
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (!digits())
                fail("invalid number: no digits after '.'");
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() && (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (!digits())
                fail("invalid number: no digits in exponent");
        }
        return Value(std::stod(text.substr(start, pos - start)));
    }

    const std::string &text;
    std::size_t pos = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

Value
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot open JSON file: " + path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return parse(oss.str());
}

} // namespace json
} // namespace treadmill
