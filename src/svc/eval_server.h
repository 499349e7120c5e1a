/**
 * @file
 * The socket front end of the evaluation service: a Unix-domain
 * stream server speaking the svc/protocol.h frame protocol over one
 * shared svc::EvalService. Every connection gets a reader thread
 * (decode frame -> submit to the service) and a writer thread that
 * delivers responses strictly in request order, so clients may
 * pipeline; the *evaluation* of pipelined and cross-connection
 * requests is concurrent and deduplicated by the service (two clients
 * asking for the same point share one simulation through the
 * memory -> disk -> compute tiers).
 *
 * A result reply is the memory-tier entry's EvalResult frame
 * (svc::ResultEntry): the writer encodes and checksums it on the
 * entry's first delivery and writes the same bytes for every later
 * reply from that entry, on any connection. Error and metrics frames
 * are encoded per reply.
 *
 * Robustness contract: a malformed frame (truncated, bit-flipped,
 * wrong magic/version/kind, checksum mismatch) terminates only that
 * connection -- after a best-effort Error frame -- and never the
 * server; an unknown application or a simulation failure is delivered
 * to the requesting client as an Error frame. The daemon binary
 * around this class is examples/sps_evald.cpp.
 */
#ifndef SPS_SVC_EVAL_SERVER_H
#define SPS_SVC_EVAL_SERVER_H

#ifndef _WIN32

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/span.h"
#include "svc/eval_service.h"

namespace sps::svc {

/**
 * Telemetry wiring for one EvalServer. With a registry the server
 * registers its own metrics (end-to-end request latency, active
 * connections) and exposes its own counters, attaches the service's
 * metrics (the single wiring point for the request tiers),
 * creates a RequestSpan per EvalRequest, and answers MetricsRequest
 * frames with a live snapshot. Without one, every telemetry path is
 * compiled to a null check and MetricsRequest answers with an Error
 * frame.
 */
struct ServerTelemetry
{
    /** Null disables metrics; must outlive the server. */
    obs::MetricsRegistry *registry = nullptr;
    /** A finished request slower than this (microseconds, end to end)
     *  logs one structured warn() line; 0 disables. */
    uint64_t slowRequestUs = 0;
    /** Completed spans retained for export (bounded ring). */
    size_t spanCapacity = 1024;
};

class EvalServer
{
  public:
    /**
     * Bind and listen on `socketPath` (an existing socket file is
     * replaced) and start accepting. The service must outlive the
     * server. Throws std::runtime_error when the socket cannot be
     * created or bound.
     */
    EvalServer(EvalService *service, std::string socketPath,
               ServerTelemetry telemetry = {});
    ~EvalServer();

    EvalServer(const EvalServer &) = delete;
    EvalServer &operator=(const EvalServer &) = delete;

    const std::string &socketPath() const { return socketPath_; }
    EvalService &service() const { return *service_; }

    /** Stop accepting, sever live connections, join every thread,
     *  and remove the socket file. Idempotent. */
    void stop();

    struct Counters
    {
        uint64_t connections = 0;    ///< accepted connections
        uint64_t requests = 0;       ///< well-formed frames handled
        uint64_t protocolErrors = 0; ///< malformed frames/streams
        uint64_t resultEncodes = 0;  ///< EvalResult frames built
    };
    Counters counters() const;

    /** Live snapshot of the attached registry (empty without one).
     *  The same snapshot a MetricsRequest frame returns. */
    obs::MetricsSnapshot metricsSnapshot() const;

    /** The ring of recently completed request spans (always present;
     *  only populated when telemetry is enabled). */
    const obs::SpanRecorder &spanRecorder() const { return spans_; }

  private:
    void acceptLoop();
    void serveConnection(int fd);

    EvalService *service_;
    std::string socketPath_;
    ServerTelemetry telemetry_;
    obs::SpanRecorder spans_;
    /** Request-span ids (unique per server lifetime). */
    std::atomic<uint64_t> requestSeq_{0};
    /** Pre-resolved handles (null without a registry). */
    obs::Histogram *e2eUs_ = nullptr;
    obs::Gauge *activeConns_ = nullptr;
    int listenFd_ = -1;
    std::atomic<bool> stopping_{false};

    std::mutex mu_; ///< guards conns_/connFds_
    std::vector<std::thread> conns_;
    std::unordered_set<int> connFds_;

    obs::Counter connections_;
    obs::Counter requests_;
    obs::Counter protocolErrors_;
    /** EvalResult frames built: one per memory-tier entry the first
     *  time a socket delivers it, however many replies reuse it. */
    obs::Counter resultEncodes_;

    std::thread acceptor_;
};

} // namespace sps::svc

#endif // !_WIN32

#endif // SPS_SVC_EVAL_SERVER_H
