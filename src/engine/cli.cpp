#include "engine/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace cgra::engine {

namespace {

[[noreturn]] void bad_name(std::string_view name) {
  std::fprintf(stderr,
               "invalid --engine '%.*s' (expected interp | threaded)\n",
               static_cast<int>(name.size()), name.data());
  std::exit(2);
}

}  // namespace

EngineKind apply_engine_flag(int* argc, char** argv) {
  std::optional<EngineKind> chosen;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    const std::string_view arg = argv[r];
    std::string_view name;
    if (arg == "--engine") {
      if (r + 1 >= *argc) bad_name("");
      name = argv[++r];
    } else if (arg.starts_with("--engine=")) {
      name = arg.substr(sizeof("--engine=") - 1);
    } else {
      argv[w++] = argv[r];
      continue;
    }
    const auto parsed = engine_from_name(name);
    if (!parsed.has_value()) bad_name(name);
    chosen = *parsed;  // last one wins, like most flag parsers
  }
  for (int r = w; r < *argc; ++r) argv[r] = nullptr;
  *argc = w;
  if (chosen.has_value()) {
    use_process_engine(*chosen);
    return *chosen;
  }
  install_build_default();
  return process_engine();
}

}  // namespace cgra::engine
