//===- tests/shim/TestMain.cpp - Test runner for the offline gtest shim ----===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// main() for test binaries built against tests/shim/gtest/gtest.h: expands
/// deferred TEST_P instantiations, runs every registered test (or those a
/// --gtest_filter of ':'-separated '*'/'?' patterns selects), prints a
/// gtest-style report, and exits non-zero when any test fails.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstring>
#include <exception>

// gtest's glob: '*' matches any run of characters, '?' any one.
static bool globMatch(const char *Pat, const char *Str) {
  if (*Pat == '\0')
    return *Str == '\0';
  if (*Pat == '*')
    return globMatch(Pat + 1, Str) || (*Str && globMatch(Pat, Str + 1));
  return *Str && (*Pat == '?' || *Pat == *Str) && globMatch(Pat + 1, Str + 1);
}

static bool selected(const std::string &Filter, const std::string &Name) {
  size_t Begin = 0;
  while (true) {
    size_t End = Filter.find(':', Begin);
    std::string Pat = Filter.substr(Begin, End - Begin);
    if (globMatch(Pat.c_str(), Name.c_str()))
      return true;
    if (End == std::string::npos)
      return false;
    Begin = End + 1;
  }
}

int main(int argc, char **argv) {
  // Only positive patterns: gtest's "-NEGATIVE" part is not supported.
  const char *Flag = "--gtest_filter=";
  const size_t FlagLen = std::strlen(Flag);
  std::string Filter = "*";
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], Flag, FlagLen) != 0 ||
        std::strchr(argv[I] + FlagLen, '-')) {
      std::cerr << "unsupported argument: " << argv[I]
                << " (the shim takes only --gtest_filter=PATTERN[:PATTERN])\n";
      return 2;
    }
    Filter = argv[I] + FlagLen;
  }

  for (const auto &Expand : testing::internal::expanders())
    Expand();

  std::vector<testing::internal::RegisteredTest> Tests;
  for (const auto &T : testing::internal::registry())
    if (selected(Filter, T.Name))
      Tests.push_back(T);
  std::cout << "[==========] Running " << Tests.size() << " tests.\n";

  std::vector<std::string> Failures;
  for (const auto &T : Tests) {
    std::cout << "[ RUN      ] " << T.Name << "\n";
    testing::internal::currentTestFailed() = false;
    try {
      T.Run();
    } catch (const std::exception &E) {
      testing::internal::currentTestFailed() = true;
      std::cout << "Uncaught exception: " << E.what() << "\n";
    } catch (...) {
      testing::internal::currentTestFailed() = true;
      std::cout << "Uncaught non-standard exception\n";
    }
    if (testing::internal::currentTestFailed()) {
      Failures.push_back(T.Name);
      std::cout << "[  FAILED  ] " << T.Name << "\n";
    } else {
      std::cout << "[       OK ] " << T.Name << "\n";
    }
  }

  std::cout << "[==========] " << Tests.size() << " tests ran.\n";
  std::cout << "[  PASSED  ] " << (Tests.size() - Failures.size())
            << " tests.\n";
  if (!Failures.empty()) {
    std::cout << "[  FAILED  ] " << Failures.size() << " tests, listed below:\n";
    for (const auto &Name : Failures)
      std::cout << "[  FAILED  ] " << Name << "\n";
    return 1;
  }
  return 0;
}
