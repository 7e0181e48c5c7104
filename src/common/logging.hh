/**
 * @file
 * Status-message and error-reporting helpers in the gem5 tradition.
 *
 * panic()  -- an internal invariant of the simulator was violated; this
 *             is a bug in the library itself.  Aborts.
 * fatal()  -- the simulation cannot continue because of a user-supplied
 *             configuration or argument.  Flushes stdio and exits
 *             with status 1 without running static destructors, so
 *             it is safe on an engine worker thread.
 * warn()   -- something is not modelled as faithfully as it could be but
 *             the simulation can continue.
 */

#ifndef ARCC_COMMON_LOGGING_HH
#define ARCC_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace arcc
{

/**
 * Report an internal invariant violation and abort.  Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error, flush stdio and _Exit(1).  Never
 * returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a modelling caveat the user should be aware of. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Assert a simulator invariant.  Unlike the standard assert this is
 * active in all build types, because the cost is negligible relative to
 * the simulation work and silent corruption is far worse.
 */
#define ARCC_ASSERT(cond)                                                 \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::arcc::panic("assertion '%s' failed at %s:%d",               \
                          #cond, __FILE__, __LINE__);                     \
        }                                                                 \
    } while (0)

/** Assert with an explanatory printf-style message. */
#define ARCC_ASSERT_MSG(cond, fmt, ...)                                   \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::arcc::panic("assertion '%s' failed at %s:%d: " fmt,         \
                          #cond, __FILE__, __LINE__, __VA_ARGS__);        \
        }                                                                 \
    } while (0)

} // namespace arcc

#endif // ARCC_COMMON_LOGGING_HH
