/**
 * @file
 * Logging and error-reporting primitives.
 *
 * Follows the gem5 convention: fatal() is for user errors (bad
 * configuration, invalid arguments) and exits cleanly; panic() is for
 * internal invariant violations and aborts.
 */
#ifndef SPS_COMMON_LOG_H
#define SPS_COMMON_LOG_H

#include <cstdarg>
#include <string>

namespace sps {

/** Verbosity levels for inform(). */
enum class LogLevel { Quiet = 0, Info = 1 };

/** Set the global verbosity (default: Info). */
void setLogLevel(LogLevel level);

/**
 * Print an informational message (printf-style) when verbosity allows.
 */
void inform(const char *fmt, ...);

/** Print a warning to stderr; never stops execution. */
void warn(const char *fmt, ...);

/**
 * Report an unrecoverable user-level error and exit(1).
 * Use for bad configurations and invalid arguments.
 */
[[noreturn]] void fatal(const char *fmt, ...);

/**
 * Report an internal invariant violation and abort().
 * Use for conditions that indicate a bug in this library.
 */
[[noreturn]] void panic(const char *fmt, ...);

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...);

} // namespace sps

/** Assert an internal invariant; panics with location info on failure. */
#define SPS_ASSERT(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::sps::panic("assertion '%s' failed at %s:%d: %s", #cond,      \
                         __FILE__, __LINE__,                               \
                         ::sps::strformat(__VA_ARGS__).c_str());           \
        }                                                                  \
    } while (0)

#endif // SPS_COMMON_LOG_H
