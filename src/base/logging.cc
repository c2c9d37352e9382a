#include "base/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace ccsvm
{

namespace
{
// Atomic: sweep workers running concurrent machines read this while
// the main thread may still be configuring it.
std::atomic<bool> quietFlag{false};
} // namespace

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

void
assertPrelude(const char *file, int line, const char *cond)
{
    std::fprintf(stderr, "panic: %s:%d: assertion '%s' failed\n",
                 file, line, cond);
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
warnImpl(const char *fmt, ...)
{
    if (quietFlag)
        return;
    std::fprintf(stderr, "warn: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
}

} // namespace ccsvm
