// Strict command-line operand parsing shared by the nemfpga CLI and the
// bench harnesses. No atoi/stoul: their silent partial parses once turned
// `--threads x` into a 0-thread request, `--synth 1e30` into a 1-LUT
// circuit and `--width -3` into 2^64 - 3. Every malformed operand names
// the flag it belongs to and exits 2 (the usage-error code):
//
//   <prog>: bad value for --width: '3x'
//   <prog>: missing value for --par
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace nemfpga {

/// Unsigned decimal integer: 1..19 ASCII digits and nothing else (no
/// sign, no whitespace, no exponent), so it can never overflow size_t.
std::optional<std::size_t> parse_size(std::string_view tok);

/// Finite floating-point number consumed by strtod in full (no trailing
/// text; nan, inf and out-of-range magnitudes are rejected).
std::optional<double> parse_double(std::string_view tok);

/// argv reader for one program; `prog` prefixes every diagnostic.
class FlagParser {
 public:
  FlagParser(const char* prog, int argc, char** argv)
      : prog_(prog), argc_(argc), argv_(argv) {}

  /// Print "<prog>: bad value for <flag>: '<tok>'<hint>" and exit 2.
  [[noreturn]] void flag_error(const char* flag, std::string_view tok,
                               std::string_view hint = {}) const;

  /// The operand after argv[i] (advancing i), or exit 2 when it is
  /// missing.
  const char* flag_operand(const char* flag, int& i) const;

  /// Token parsers for operands a caller has already split (lists).
  std::size_t size_value(const char* flag, std::string_view tok) const;
  double double_value(const char* flag, std::string_view tok) const;

  /// Operand of argv[i] as parse_size / parse_double / exactly "0" or
  /// "1"; anything else exits 2.
  std::size_t parse_size_flag(const char* flag, int& i) const;
  double parse_double_flag(const char* flag, int& i) const;
  bool parse_bool_flag(const char* flag, int& i) const;

  /// parse_size_flag limited to [lo, hi]: an operand outside the range
  /// exits 2 at parse time with the bound in the message, before the
  /// value can fail deep in a flow or size a thread pool.
  std::size_t parse_size_flag(const char* flag, int& i, std::size_t lo,
                              std::size_t hi = SIZE_MAX) const;

 private:
  const char* prog_;
  int argc_;
  char** argv_;
};

}  // namespace nemfpga
