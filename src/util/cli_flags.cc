#include "util/cli_flags.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <map>

namespace microrec {

bool ParseDoubleStrict(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

bool ParseUint64Strict(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

void FlagParser::AddString(std::string name, std::string* out,
                           std::string help) {
  specs_.push_back(
      Spec{std::move(name), Kind::kString, out, std::move(help)});
}

void FlagParser::AddDouble(std::string name, double* out, std::string help) {
  specs_.push_back(
      Spec{std::move(name), Kind::kDouble, out, std::move(help)});
}

void FlagParser::AddUint64(std::string name, uint64_t* out,
                           std::string help) {
  specs_.push_back(
      Spec{std::move(name), Kind::kUint64, out, std::move(help)});
}

void FlagParser::AddSize(std::string name, size_t* out, std::string help) {
  specs_.push_back(Spec{std::move(name), Kind::kSize, out, std::move(help)});
}

void FlagParser::AddBool(std::string name, bool* out, std::string help) {
  specs_.push_back(Spec{std::move(name), Kind::kBool, out, std::move(help)});
}

Status FlagParser::Invalid(const std::string& detail) const {
  return Status::InvalidArgument(detail + " (usage: " + usage_ + ")");
}

Status FlagParser::Apply(const Spec& spec, bool has_value,
                         const std::string& value) const {
  const std::string display = "--" + spec.name;
  switch (spec.kind) {
    case Kind::kBool: {
      bool* out = static_cast<bool*>(spec.target);
      if (!has_value) {
        *out = true;
        return Status::OK();
      }
      if (value == "true") {
        *out = true;
        return Status::OK();
      }
      if (value == "false") {
        *out = false;
        return Status::OK();
      }
      return Invalid("flag " + display + " expects true or false, got '" +
                     value + "'");
    }
    case Kind::kString:
      if (!has_value) {
        return Invalid("flag " + display + " requires a value: " + display +
                       "=<value>");
      }
      *static_cast<std::string*>(spec.target) = value;
      return Status::OK();
    case Kind::kDouble: {
      double parsed = 0.0;
      if (!has_value || !ParseDoubleStrict(value, &parsed)) {
        return Invalid("flag " + display + " expects a number, got '" +
                       value + "'");
      }
      *static_cast<double*>(spec.target) = parsed;
      return Status::OK();
    }
    case Kind::kUint64:
    case Kind::kSize: {
      uint64_t parsed = 0;
      if (!has_value || !ParseUint64Strict(value, &parsed)) {
        return Invalid("flag " + display +
                       " expects a non-negative integer, got '" + value +
                       "'");
      }
      if (spec.kind == Kind::kUint64) {
        *static_cast<uint64_t*>(spec.target) = parsed;
      } else {
        if (parsed > std::numeric_limits<size_t>::max()) {
          return Invalid("flag " + display + " value out of range: '" +
                         value + "'");
        }
        *static_cast<size_t*>(spec.target) = static_cast<size_t>(parsed);
      }
      return Status::OK();
    }
  }
  return Invalid("flag " + display + " has an unknown kind");
}

Result<std::vector<std::string>> FlagParser::Parse(
    const std::vector<std::string>& args) const {
  std::vector<std::string> positional;
  // First occurrence (1-based argument position) of each flag seen so far.
  // A repeated flag is rejected naming both positions: last-one-wins would
  // silently mask a typo'd retry in a long chaos invocation.
  std::map<std::string, size_t> seen_at;
  bool flags_done = false;
  for (size_t index = 0; index < args.size(); ++index) {
    const std::string& arg = args[index];
    if (flags_done || arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      if (!flags_done && arg == "--") {
        flags_done = true;
        continue;
      }
      positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    if (name.empty()) {
      return Invalid("malformed flag '" + arg + "'");
    }
    auto [first, inserted] = seen_at.emplace(name, index + 1);
    if (!inserted) {
      return Invalid("duplicate flag --" + name + " at positions " +
                     std::to_string(first->second) + " and " +
                     std::to_string(index + 1) +
                     "; each flag may appear once");
    }
    const bool has_value = eq != std::string::npos;
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    const Spec* match = nullptr;
    for (const Spec& spec : specs_) {
      if (spec.name == name) {
        match = &spec;
        break;
      }
    }
    if (match == nullptr) {
      return Invalid("unknown flag --" + name);
    }
    MICROREC_RETURN_IF_ERROR(Apply(*match, has_value, value));
  }
  return positional;
}

std::string FlagParser::Help() const {
  std::string out = "usage: " + usage_ + "\n";
  for (const Spec& spec : specs_) {
    out += "  --" + spec.name;
    switch (spec.kind) {
      case Kind::kString:
        out += "=<value>";
        break;
      case Kind::kDouble:
        out += "=<number>";
        break;
      case Kind::kUint64:
      case Kind::kSize:
        out += "=<n>";
        break;
      case Kind::kBool:
        break;
    }
    out += "  " + spec.help + "\n";
  }
  return out;
}

}  // namespace microrec
