#ifndef LIGHT_TOOLS_FLAGS_H_
#define LIGHT_TOOLS_FLAGS_H_

// Command-line flag lookup shared by the tools in this directory.

#include <cstdio>
#include <cstdlib>
#include <cstring>

// Accepts both "--flag value" and "--flag=value". A value-taking flag with
// no value (trailing "--flag") is a usage error, not a silent no-op: it
// prints "error: --flag requires a value" and exits 1.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      if (i + 1 < argc) return argv[i + 1];
      std::fprintf(stderr, "error: %s requires a value\n", name);
      std::exit(1);
    }
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

inline bool FlagSet(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

#endif  // LIGHT_TOOLS_FLAGS_H_
