/**
 * @file
 * Chrome trace_event JSON exporter: turns a recorded trace::Tracer (or
 * a bare SimResult timeline) into a file loadable in Perfetto
 * (https://ui.perfetto.dev) or chrome://tracing. Simulated cycles are
 * exported as microseconds, so one trace "us" is one machine cycle.
 */
#ifndef SPS_TRACE_CHROME_TRACE_H
#define SPS_TRACE_CHROME_TRACE_H

#include <string>

#include "sim/stats.h"
#include "trace/tracer.h"

namespace sps::trace {

/** Render a recorded tracer as Chrome trace_event JSON. */
std::string toChromeJson(const Tracer &tracer);

/** Write a recorded tracer as JSON; returns false on I/O failure. */
bool writeChromeTrace(const Tracer &tracer, const std::string &path);

/**
 * Convert a finished simulation's op timeline into tracer events:
 * one async span per op (id = the program-order op id, so overlapping
 * intervals -- e.g. double-buffered loads with identical labels --
 * stay distinguishable), on one track per op class.
 */
void timelineToTracer(const sim::SimResult &result, Tracer &tracer);

} // namespace sps::trace

#endif // SPS_TRACE_CHROME_TRACE_H
