/**
 * @file
 * Chrome trace_event JSON exporter: turns a recorded trace::Tracer into
 * a file loadable in Perfetto (https://ui.perfetto.dev) or
 * chrome://tracing. Simulated cycles are exported as microseconds, so
 * one trace "us" is one machine cycle.
 */
#ifndef SPS_TRACE_CHROME_TRACE_H
#define SPS_TRACE_CHROME_TRACE_H

#include <string>

#include "trace/tracer.h"

namespace sps::trace {

/** Render a recorded tracer as Chrome trace_event JSON. */
std::string toChromeJson(const Tracer &tracer);

/** Write a recorded tracer as JSON; returns false on I/O failure. */
bool writeChromeTrace(const Tracer &tracer, const std::string &path);

} // namespace sps::trace

#endif // SPS_TRACE_CHROME_TRACE_H
