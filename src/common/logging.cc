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

LogLevel g_threshold = LogLevel::Inform;

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Panic:  return "panic";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Warn:   return "warn";
      case LogLevel::Inform: return "info";
      case LogLevel::Debug:  return "debug";
    }
    return "?";
}

void
vlogMessage(LogLevel level, const char *fmt, va_list args)
{
    if (static_cast<int>(level) > static_cast<int>(g_threshold))
        return;
    std::fprintf(stderr, "[%s] ", levelTag(level));
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

} // anonymous namespace

void
setLogThreshold(LogLevel level)
{
    g_threshold = level;
}

LogLevel
logThreshold()
{
    return g_threshold;
}

void
logMessage(LogLevel level, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage(level, fmt, args);
    va_end(args);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage(LogLevel::Panic, fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage(LogLevel::Fatal, fmt, args);
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
    vlogMessage(LogLevel::Warn, fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage(LogLevel::Inform, fmt, args);
    va_end(args);
}

} // namespace arcc
