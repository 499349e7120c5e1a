/**
 * @file
 * Command-line checks shared by the bench drivers: an unknown flag or
 * a flag missing its value exits 2 with the usage text before any
 * work, so a typo never runs, and never becomes an output directory.
 */
#ifndef SPS_BENCH_BENCH_CLI_H
#define SPS_BENCH_BENCH_CLI_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace sps::bench {

/** Print `why` (if any) and the usage text to stderr, then exit 2. */
[[noreturn]] inline void
usageExit(const std::string &usage, const std::string &why = "")
{
    if (!why.empty())
        std::fprintf(stderr, "%s\n", why.c_str());
    std::fprintf(stderr, "usage: %s\n", usage.c_str());
    std::exit(2);
}

/** True for an argument spelled as a flag (a leading "--"). */
inline bool
isFlag(const char *arg)
{
    return std::strncmp(arg, "--", 2) == 0;
}

/** The value of the flag at argv[*i], advancing *i past it; a
 *  missing value (end of line, or another flag) is a usage error. */
inline const char *
flagValue(int argc, char **argv, int *i, const std::string &usage)
{
    if (*i + 1 >= argc || isFlag(argv[*i + 1]))
        usageExit(usage, std::string(argv[*i]) + " needs a value");
    return argv[++*i];
}

} // namespace sps::bench

#endif // SPS_BENCH_BENCH_CLI_H
