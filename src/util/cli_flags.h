// Declarative command-line flag parsing for the tools and benches. The
// previous hand-rolled loops silently ignored typos (`--max-config=5` fell
// through to the positional arguments) and accepted garbage numbers via
// atof; this parser rejects unknown flags, malformed `--key=value` pairs
// and unparsable numerics with kInvalidArgument naming the offending token
// and a usage hint.
//
// Usage:
//   FlagParser parser("microrec sweep <dir> <model> <source>");
//   parser.AddString("checkpoint", &path, "checkpoint log directory");
//   parser.AddBool("fail-fast", &fail_fast, "abort on first failure");
//   Result<std::vector<std::string>> positional = parser.Parse(args);
#ifndef MICROREC_UTIL_CLI_FLAGS_H_
#define MICROREC_UTIL_CLI_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace microrec {

/// Strict numeric parses, shared with the bench environment knobs: the
/// whole token must be consumed and range errors are rejected (atof/atoi
/// would silently truncate or wrap). False on an empty or malformed token.
bool ParseDoubleStrict(const std::string& text, double* out);
bool ParseUint64Strict(const std::string& text, uint64_t* out);

class FlagParser {
 public:
  /// `usage` is the one-line synopsis appended to every parse error.
  explicit FlagParser(std::string usage) : usage_(std::move(usage)) {}

  /// Value flags, written `--name=value`. The target keeps its prior value
  /// (the default) when the flag is absent.
  void AddString(std::string name, std::string* out, std::string help);
  void AddDouble(std::string name, double* out, std::string help);
  void AddUint64(std::string name, uint64_t* out, std::string help);
  void AddSize(std::string name, size_t* out, std::string help);

  /// Switch flag: bare `--name` sets true; `--name=true` / `--name=false`
  /// are also accepted.
  void AddBool(std::string name, bool* out, std::string help);

  /// Parses argv-style tokens. Flags may appear anywhere; everything else
  /// is returned as positional arguments in order. A literal `--` ends
  /// flag parsing (the rest is positional). Errors are kInvalidArgument
  /// naming the bad token plus the usage line.
  Result<std::vector<std::string>> Parse(
      const std::vector<std::string>& args) const;

  /// Multi-line help: the usage synopsis plus one line per flag.
  std::string Help() const;

  const std::string& usage() const { return usage_; }

 private:
  enum class Kind { kString, kBool, kDouble, kUint64, kSize };

  struct Spec {
    std::string name;  // without the leading "--"
    Kind kind = Kind::kString;
    void* target = nullptr;
    std::string help;
  };

  Status Invalid(const std::string& detail) const;
  Status Apply(const Spec& spec, bool has_value,
               const std::string& value) const;

  std::string usage_;
  std::vector<Spec> specs_;
};

}  // namespace microrec

#endif  // MICROREC_UTIL_CLI_FLAGS_H_
