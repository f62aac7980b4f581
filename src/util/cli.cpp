#include "util/cli.hpp"

#include <cstdlib>
#include <string_view>
#include <utility>

namespace canopus::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) == 0) {
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      // A flag without a value reads as "1".
      std::string value(eq == std::string_view::npos ? std::string_view("1")
                                                     : arg.substr(eq + 1));
      flags_.insert_or_assign(std::string(arg.substr(0, eq)), std::move(value));
    } else {
      positional_.emplace_back(arg);
    }
  }
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

}  // namespace canopus::util
