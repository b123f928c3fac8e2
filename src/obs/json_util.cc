#include "obs/json_util.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace dqr::obs::json {
namespace {

// Objects and arrays parse recursively, so outside input (a trace file, a
// PROFILE frame of up to 8 MiB) could otherwise nest deep enough to
// overflow the stack. Profile trees and Chrome traces nest a few dozen
// levels at most.
constexpr int kMaxNesting = 512;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Value> Run() {
    Value v;
    if (Status s = ParseValue(v); !s.ok()) return s;
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing content");
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgumentError("JSON error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Value& out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxNesting) {
        return Error("nesting deeper than " + std::to_string(kMaxNesting));
      }
      ++depth_;
      Status s = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth_;
      return s;
    }
    if (c == '"') {
      out.kind = Value::kString;
      return ParseString(out.str);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  Status ParseObject(Value& out) {
    out.kind = Value::kObject;
    ++pos_;  // '{'
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      if (Status s = ParseString(key); !s.ok()) return s;
      if (!Consume(':')) return Error("expected ':'");
      Value value;
      if (Status s = ParseValue(value); !s.ok()) return s;
      out.obj.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(Value& out) {
    out.kind = Value::kArray;
    ++pos_;  // '['
    if (Consume(']')) return Status::Ok();
    while (true) {
      Value value;
      if (Status s = ParseValue(value); !s.ok()) return s;
      out.arr.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // The writers in this repo never emit non-ASCII; anything else
          // decodes to '?' rather than growing a full UTF-16 decoder.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseKeyword(Value& out) {
    auto match = [&](const char* kw) {
      const size_t n = std::string(kw).size();
      if (text_.compare(pos_, n, kw) != 0) return false;
      pos_ += n;
      return true;
    };
    if (match("true")) {
      out.kind = Value::kBool;
      out.boolean = true;
      return Status::Ok();
    }
    if (match("false")) {
      out.kind = Value::kBool;
      out.boolean = false;
      return Status::Ok();
    }
    if (match("null")) {
      out.kind = Value::kNull;
      return Status::Ok();
    }
    return Error("unknown keyword");
  }

  Status ParseNumber(Value& out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    out.kind = Value::kNumber;
    char* end = nullptr;
    out.number = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) return Error("malformed number");
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // objects and arrays currently open
};

}  // namespace

Result<Value> Parse(const std::string& text) {
  return Parser(text).Run();
}

double NumberOr(const Value* v, double fallback) {
  return v != nullptr && v->kind == Value::kNumber ? v->number : fallback;
}

void AppendQuoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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

}  // namespace dqr::obs::json
