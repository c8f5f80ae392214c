#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

const Json *
Json::get(const std::string &key) const
{
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

double
Json::num(const std::string &key) const
{
    const Json *v = get(key);
    return v && v->type == Type::Number ? v->number : 0.0;
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    bool
    document(Json &out)
    {
        if (!value(out, 0))
            return false;
        skipSpace();
        return pos == s.size();
    }

  private:
    static constexpr int kMaxDepth = 64;

    void
    skipSpace()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\r' ||
                s[pos] == '\t'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s.compare(pos, w.size(), w) != 0)
            return false;
        pos += w.size();
        return true;
    }

    bool
    str(std::string &out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                if (++pos >= s.size())
                    return false;
                const char c = s[pos];
                out += c == 'n' ? '\n' : c == 't' ? '\t' : c;
            } else {
                out += s[pos];
            }
            ++pos;
        }
        if (pos >= s.size())
            return false;
        ++pos;
        return true;
    }

    bool
    value(Json &out, int depth)
    {
        if (depth > kMaxDepth)
            return false;
        skipSpace();
        if (pos >= s.size())
            return false;
        const char c = s[pos];
        if (c == '{') {
            out.type = Json::Type::Object;
            ++pos;
            skipSpace();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                skipSpace();
                std::string key;
                if (!str(key))
                    return false;
                skipSpace();
                if (pos >= s.size() || s[pos] != ':')
                    return false;
                ++pos;
                if (!value(out.object[key], depth + 1))
                    return false;
                skipSpace();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == '}') {
                    ++pos;
                    return true;
                }
                return false;
            }
        }
        if (c == '[') {
            out.type = Json::Type::Array;
            ++pos;
            skipSpace();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                out.array.emplace_back();
                if (!value(out.array.back(), depth + 1))
                    return false;
                skipSpace();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == ']') {
                    ++pos;
                    return true;
                }
                return false;
            }
        }
        if (c == '"') {
            out.type = Json::Type::String;
            return str(out.string);
        }
        if (literal("true")) {
            out.type = Json::Type::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.type = Json::Type::Bool;
            return true;
        }
        if (literal("null"))
            return true;
        const char *begin = s.c_str() + pos;
        char *end = nullptr;
        out.number = std::strtod(begin, &end);
        if (end == begin)
            return false;
        out.type = Json::Type::Number;
        pos += static_cast<std::size_t>(end - begin);
        return true;
    }

    const std::string &s;
    std::size_t pos = 0;
};

} // namespace

std::optional<Json>
parseJson(const std::string &text)
{
    Json out;
    if (!Parser(text).document(out))
        return std::nullopt;
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(values[i]);
    return out + "]";
}

} // namespace perfbench
