/**
 * @file
 * Implementation of the message sink.
 */

#include "common/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace arcc
{

namespace
{

void
vlogMessage(const char *tag, const char *fmt, va_list args)
{
    std::fprintf(stderr, "[%s] ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

} // anonymous namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage("fatal", fmt, args);
    va_end(args);
    // Not std::exit: that runs static destructors, and the global
    // SimEngine's destructor joins its workers -- a deadlock (or an
    // abort) when fatal() is called on one of them.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage("warn", fmt, args);
    va_end(args);
}

} // namespace arcc
