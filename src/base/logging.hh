/**
 * @file
 * Error and status reporting, following the gem5 conventions.
 *
 * panic() is for simulator bugs (conditions that must never happen no
 * matter what the user does); it aborts. warn() reports a condition
 * on stderr without stopping the simulation.
 */

#ifndef CCSVM_BASE_LOGGING_HH
#define CCSVM_BASE_LOGGING_HH

#include <cstdarg>

namespace ccsvm
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print the failed-assertion banner (used by ccsvm_assert). */
void assertPrelude(const char *file, int line, const char *cond);

void warnImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Suppress all warn() output (used by benches). */
void setQuiet(bool quiet);

} // namespace ccsvm

#define ccsvm_panic(...) \
    ::ccsvm::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define ccsvm_warn(...) ::ccsvm::warnImpl(__VA_ARGS__)

/** panic() unless the given condition holds. */
#define ccsvm_assert(cond, ...)                                          \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::ccsvm::assertPrelude(__FILE__, __LINE__, #cond);           \
            ::ccsvm::panicImpl(__FILE__, __LINE__, __VA_ARGS__);         \
        }                                                                \
    } while (0)

#endif // CCSVM_BASE_LOGGING_HH
