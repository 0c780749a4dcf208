#include "common/json_value.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace hsipc
{

namespace
{

[[noreturn]] void
fail(const std::string &what, std::size_t at)
{
    throw JsonParseError(what, at);
}

/** Cursor over the input with one-token-lookahead helpers. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input", pos);
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'", pos);
        ++pos;
    }

    bool
    consumeWord(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return JsonValue::makeString(parseString());
          case 't':
            if (!consumeWord("true"))
                fail("bad literal", pos);
            return JsonValue::makeBool(true);
          case 'f':
            if (!consumeWord("false"))
                fail("bad literal", pos);
            return JsonValue::makeBool(false);
          case 'n':
            if (!consumeWord("null"))
                fail("bad literal", pos);
            return JsonValue::makeNull();
          default: return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        std::map<std::string, JsonValue> members;
        skipWs();
        if (peek() == '}') {
            ++pos;
            return JsonValue::makeObject(std::move(members));
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            members[std::move(key)] = parseValue();
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return JsonValue::makeObject(std::move(members));
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        std::vector<JsonValue> elems;
        skipWs();
        if (peek() == ']') {
            ++pos;
            return JsonValue::makeArray(std::move(elems));
        }
        while (true) {
            elems.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return JsonValue::makeArray(std::move(elems));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string", pos);
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape", pos);
            const char esc = text[pos++];
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
                if (pos + 4 > text.size())
                    fail("truncated \\u escape", pos);
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape", pos - 1);
                }
                // The library only ever emits \u00xx control-character
                // escapes; encode the general case as UTF-8 anyway.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default: fail("bad escape", pos - 1);
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        if (pos == start)
            fail("expected a value", start);
        const std::string tok = text.substr(start, pos - start);
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0')
            fail("bad number '" + tok + "'", start);
        // The grammar cannot spell infinity, so an infinite result
        // is a literal too large for a double (strtod's HUGE_VAL).
        if (std::isinf(v))
            fail("number '" + tok + "' overflows a double", start);
        return JsonValue::makeNumber(v);
    }
};

} // namespace

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        throw std::runtime_error("JSON value is not a boolean");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        throw std::runtime_error("JSON value is not a number");
    return num_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        throw std::runtime_error("JSON value is not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind_ != Kind::Array)
        throw std::runtime_error("JSON value is not an array");
    return arr_;
}

const std::map<std::string, JsonValue> &
JsonValue::asObject() const
{
    if (kind_ != Kind::Object)
        throw std::runtime_error("JSON value is not an object");
    return obj_;
}

bool
JsonValue::has(const std::string &key) const
{
    return kind_ == Kind::Object && obj_.count(key) > 0;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    return asObject().at(key);
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double d)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> elems)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.arr_ = std::move(elems);
    return v;
}

JsonValue
JsonValue::makeObject(std::map<std::string, JsonValue> m)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.obj_ = std::move(m);
    return v;
}

JsonValue
parseJson(const std::string &text)
{
    Parser p{text};
    JsonValue v = p.parseValue();
    p.skipWs();
    if (p.pos != text.size())
        fail("trailing garbage", p.pos);
    return v;
}

} // namespace hsipc
