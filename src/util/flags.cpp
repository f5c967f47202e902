#include "util/flags.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace nemfpga {

std::optional<std::size_t> parse_size(std::string_view tok) {
  if (tok.empty() || tok.size() > 19) return std::nullopt;
  std::size_t v = 0;
  for (const char ch : tok) {
    if (ch < '0' || ch > '9') return std::nullopt;
    v = v * 10 + static_cast<std::size_t>(ch - '0');
  }
  return v;
}

std::optional<double> parse_double(std::string_view tok) {
  const std::string s(tok);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

void FlagParser::flag_error(const char* flag, std::string_view tok,
                            std::string_view hint) const {
  std::fprintf(stderr, "%s: bad value for %s: '%.*s'%.*s\n", prog_, flag,
               static_cast<int>(tok.size()), tok.data(),
               static_cast<int>(hint.size()), hint.data());
  std::exit(2);
}

const char* FlagParser::flag_operand(const char* flag, int& i) const {
  if (i + 1 >= argc_) {
    std::fprintf(stderr, "%s: missing value for %s\n", prog_, flag);
    std::exit(2);
  }
  return argv_[++i];
}

std::size_t FlagParser::size_value(const char* flag,
                                   std::string_view tok) const {
  const auto v = parse_size(tok);
  if (!v) flag_error(flag, tok);
  return *v;
}

double FlagParser::double_value(const char* flag, std::string_view tok) const {
  const auto v = parse_double(tok);
  if (!v) flag_error(flag, tok);
  return *v;
}

std::size_t FlagParser::parse_size_flag(const char* flag, int& i) const {
  return size_value(flag, flag_operand(flag, i));
}

std::size_t FlagParser::parse_size_flag(const char* flag, int& i,
                                        std::size_t lo, std::size_t hi) const {
  const char* tok = flag_operand(flag, i);
  const std::size_t v = size_value(flag, tok);
  if (v < lo) flag_error(flag, tok, " (at least " + std::to_string(lo) + ")");
  if (v > hi) flag_error(flag, tok, " (at most " + std::to_string(hi) + ")");
  return v;
}

double FlagParser::parse_double_flag(const char* flag, int& i) const {
  return double_value(flag, flag_operand(flag, i));
}

bool FlagParser::parse_bool_flag(const char* flag, int& i) const {
  const std::string_view tok = flag_operand(flag, i);
  if (tok == "0") return false;
  if (tok == "1") return true;
  flag_error(flag, tok);
}

}  // namespace nemfpga
