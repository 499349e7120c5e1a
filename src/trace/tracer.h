/**
 * @file
 * Structured event tracer for the simulator. Components record
 * begin/end ("complete") events, async spans, and counter samples in
 * *simulated* cycles; the Chrome trace_event exporter
 * (trace/chrome_trace.h) turns a recorded run into a JSON file
 * viewable in Perfetto / chrome://tracing.
 *
 * Cost model: tracing is off by default -- every hook site guards on a
 * nullable Tracer pointer (see SPS_TRACE_ENABLED), so a disabled run
 * pays one pointer test per would-be event and allocates nothing. An
 * enabled Tracer is internally mutex-protected, so one instance may be
 * shared by concurrent simulations running on the evaluation engine's
 * thread pool (the TSan CI job asserts this).
 */
#ifndef SPS_TRACE_TRACER_H
#define SPS_TRACE_TRACER_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sps::trace {

/** Well-known track (Chrome "thread") ids for simulator events. */
enum Track : int {
    kTrackHost = 0,    ///< host interface / stream-controller issue
    kTrackMem = 1,     ///< streaming memory system
    kTrackClusters = 2,///< microcontroller + cluster array
    kTrackSrf = 3,     ///< SRF occupancy counters
    kTrackPower = 4,   ///< power-over-time counter tracks (mW)
};

/** One event-argument key/value pair (numeric payloads only). */
using TraceArg = std::pair<std::string, int64_t>;

/** One recorded event. Timestamps are simulated cycles. */
struct TraceEvent
{
    std::string name;
    std::string cat;
    /** Chrome phase: 'X' complete, 'C' counter, 'b'/'e' async
     *  begin/end (distinguished by `id`). */
    char phase = 'X';
    int64_t ts = 0;
    int64_t dur = 0;
    int tid = 0;
    /** Async-event id ('b'/'e' phases): keeps overlapping spans with
     *  the same name apart (e.g. double-buffered loads). */
    int64_t id = 0;
    std::vector<TraceArg> args;
};

/**
 * Collects events from one or more simulations. All mutating entry
 * points are thread-safe; a single Tracer may be attached to many
 * concurrent runs (events interleave, distinguished by `pid`-style
 * run labels passed in event names or args by the caller).
 */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Record a complete (begin/end) event. */
    void complete(std::string cat, std::string name, int64_t start,
                  int64_t end, int tid, std::vector<TraceArg> args = {});

    /**
     * Record an async span (begin/end pair keyed by `id`). Unlike
     * complete events, spans with the same name may overlap in time on
     * one track; viewers separate them by id.
     */
    void span(std::string cat, std::string name, int64_t start,
              int64_t end, int64_t id, int tid,
              std::vector<TraceArg> args = {});

    /** Record a counter sample (rendered as a track in Perfetto). */
    void counter(std::string name, int64_t ts, int64_t value);

    /** Name a track (exported as thread_name metadata). */
    void setTrackName(int tid, std::string name);

    /** Snapshot of all recorded events (copy, in recording order). */
    std::vector<TraceEvent> events() const;

    /** Number of recorded events. */
    size_t size() const;

    /** Track-name metadata (tid -> name). */
    std::map<int, std::string> trackNames() const;

    /** Discard all recorded events (track names survive). */
    void clear();

  private:
    mutable std::mutex mu_;
    std::vector<TraceEvent> events_;
    std::map<int, std::string> trackNames_;
};

/**
 * Hook-site guard: evaluates to false (skipping argument construction
 * for the event call) when no tracer is attached.
 */
#define SPS_TRACE_ENABLED(tracer_ptr) ((tracer_ptr) != nullptr)

} // namespace sps::trace

#endif // SPS_TRACE_TRACER_H
