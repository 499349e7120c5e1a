/**
 * @file
 * Client side of the evaluation-service socket protocol: connects to
 * an sps_evald (svc::EvalServer) Unix-domain socket and evaluates
 * design points remotely. A decoded result is bit-identical to what
 * the server computed (the payload is the store codec's SimResult
 * encoding), so a sweep driven through a client produces CSVs byte
 * for byte equal to the same sweep run in-process.
 *
 * appPerformance() pipelines the whole Figure-15 sweep: every request
 * is written before the first response is read (from a background
 * sender thread, so neither side's socket buffer can deadlock the
 * conversation), which lets the server evaluate the full grid
 * concurrently and dedup it against other clients mid-flight.
 *
 * Failure model: the protocol has no resynchronization, so the client
 * tracks liveness explicitly. A transport or framing failure (severed
 * socket, truncated/undecodable frame, unexpected kind) marks the
 * connection *dead*: the current call throws and every later call
 * throws immediately instead of reading a stale response. An aborted
 * pipelined appPerformance() -- even one aborted by a clean server
 * Error frame -- also goes dead, because responses to the already
 * written requests may still be buffered and a later eval() would
 * otherwise silently consume one of them as its own answer. Only a
 * server Error frame answering a single *unpipelined* request leaves
 * the connection alive: exactly one response was consumed for exactly
 * one request, so the conversation is still in lockstep.
 */
#ifndef SPS_SVC_EVAL_CLIENT_H
#define SPS_SVC_EVAL_CLIENT_H

#ifndef _WIN32

#include <mutex>
#include <string>
#include <vector>

#include "svc/eval_service.h"

namespace sps::svc {

class EvalClient
{
  public:
    /** Connect to the server socket; throws std::runtime_error when
     *  the socket does not exist or refuses the connection. */
    explicit EvalClient(std::string socketPath);
    ~EvalClient();

    EvalClient(const EvalClient &) = delete;
    EvalClient &operator=(const EvalClient &) = delete;

    const std::string &socketPath() const { return socketPath_; }

    /**
     * Evaluate one point on the server (round trip). Throws
     * std::runtime_error carrying the server's message when the
     * server answers with an Error frame (e.g. unknown application),
     * or a transport message when the connection breaks.
     */
    sim::SimResult eval(const EvalPoint &pt);

    /**
     * Figure 15 through the server: same submission order and
     * assembly as EvalService::appPerformance, so the output is
     * byte-identical to the in-process sweep. Requests are pipelined.
     */
    std::vector<core::AppPoint>
    appPerformance(const std::vector<int> &c_values,
                   const std::vector<int> &n_values);

    /**
     * A live metrics snapshot from the server (MetricsRequest round
     * trip). Throws the server's Error message when the daemon runs
     * without telemetry. Render locally with obs::renderPrometheus /
     * obs::renderJson, or assert on the numbers directly.
     */
    obs::MetricsSnapshot metrics();

    /** True once the connection is unusable (every call will throw). */
    bool dead() const;

  private:
    sim::SimResult readResult();
    /** Sever the socket and latch the dead state (idempotent). */
    void markDead(const std::string &reason);
    /** Throw if a previous failure killed the connection. */
    void ensureAlive() const;

    std::string socketPath_;
    int fd_ = -1;
    mutable std::mutex mu_; ///< one conversation at a time per client
    bool dead_ = false;     ///< guarded by mu_
    std::string deadReason_;
};

} // namespace sps::svc

#endif // !_WIN32

#endif // SPS_SVC_EVAL_CLIENT_H
