#ifndef _WIN32

#include "svc/eval_client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "svc/protocol.h"

namespace sps::svc {

namespace {

std::vector<uint8_t>
requestPayload(const EvalPoint &pt)
{
    store::ByteWriter w;
    encodeEvalRequest(pt, &w);
    return w.bytes();
}

} // namespace

EvalClient::EvalClient(std::string socketPath)
    : socketPath_(std::move(socketPath))
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath_.size() >= sizeof addr.sun_path)
        throw std::runtime_error("EvalClient: socket path too long: " +
                                 socketPath_);
    std::memcpy(addr.sun_path, socketPath_.c_str(),
                socketPath_.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw std::runtime_error("EvalClient: socket() failed");
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error("EvalClient: cannot connect to " +
                                 socketPath_);
    }
}

EvalClient::~EvalClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
EvalClient::markDead(const std::string &reason)
{
    // Latch first, then sever: once dead_ is set no later call will
    // touch the socket, and the shutdown unblocks anything (e.g. a
    // pipelined sender) still inside a syscall on it.
    if (dead_)
        return;
    dead_ = true;
    deadReason_ = reason;
    ::shutdown(fd_, SHUT_RDWR);
}

void
EvalClient::ensureAlive() const
{
    if (dead_)
        throw std::runtime_error("EvalClient: connection to " +
                                 socketPath_ +
                                 " is dead: " + deadReason_);
}

bool
EvalClient::dead() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dead_;
}

sim::SimResult
EvalClient::readResult()
{
    Frame frame;
    if (readFrame(fd_, &frame) != ReadStatus::Ok) {
        markDead("connection lost or malformed frame");
        throw std::runtime_error(
            "EvalClient: connection lost or malformed frame from " +
            socketPath_);
    }
    if (frame.kind == FrameKind::Error) {
        // A clean Error frame consumed exactly one response for
        // exactly one request: the conversation is still in lockstep,
        // so the connection stays alive (a pipelined caller that
        // cannot make that claim marks it dead itself).
        std::string message;
        if (!decodeErrorString(frame.payload, &message))
            message = "unreadable server error";
        throw std::runtime_error("EvalClient: server error: " +
                                 message);
    }
    if (frame.kind != FrameKind::EvalResult) {
        markDead("unexpected response frame kind");
        throw std::runtime_error(
            "EvalClient: unexpected response frame kind");
    }
    sim::SimResult res;
    if (!store::decodeSimResult(frame.payload, &res)) {
        markDead("undecodable result payload");
        throw std::runtime_error(
            "EvalClient: undecodable result payload");
    }
    return res;
}

sim::SimResult
EvalClient::eval(const EvalPoint &pt)
{
    std::lock_guard<std::mutex> lock(mu_);
    ensureAlive();
    if (!writeFrame(fd_, FrameKind::EvalRequest, requestPayload(pt))) {
        markDead("write failed");
        throw std::runtime_error("EvalClient: cannot write to " +
                                 socketPath_);
    }
    return readResult();
}

std::vector<core::AppPoint>
EvalClient::appPerformance(const std::vector<int> &c_values,
                           const std::vector<int> &n_values)
{
    std::lock_guard<std::mutex> lock(mu_);
    ensureAlive();
    AppSweepPlan plan = appSweepPlan(c_values, n_values);

    // Pipeline: a sender thread writes every request while this
    // thread reads responses, so a sweep larger than the socket
    // buffers cannot deadlock on mutual backpressure. Responses come
    // back in request order (the server guarantees it).
    std::thread sender([&] {
        for (const auto &pt : plan.baselines)
            if (!writeFrame(fd_, FrameKind::EvalRequest,
                            requestPayload(pt)))
                return;
        for (const auto &pt : plan.grid)
            if (!writeFrame(fd_, FrameKind::EvalRequest,
                            requestPayload(pt)))
                return;
    });

    std::vector<sim::SimResult> base;
    std::vector<sim::SimResult> grid;
    try {
        base.reserve(plan.baselines.size());
        for (size_t i = 0; i < plan.baselines.size(); ++i)
            base.push_back(readResult());
        grid.reserve(plan.grid.size());
        for (size_t i = 0; i < plan.grid.size(); ++i)
            grid.push_back(readResult());
    } catch (...) {
        // *Any* abort mid-pipeline kills the connection -- even a
        // clean server Error frame. Requests already written may
        // still have responses in flight, and a later call would
        // silently consume one of those stale frames as its own
        // answer. markDead also unblocks the sender's writes.
        markDead("pipelined sweep aborted");
        sender.join();
        throw;
    }
    sender.join();
    return assembleAppPoints(plan, base, std::move(grid));
}

obs::MetricsSnapshot
EvalClient::metrics()
{
    std::lock_guard<std::mutex> lock(mu_);
    ensureAlive();
    if (!writeFrame(fd_, FrameKind::MetricsRequest, {})) {
        markDead("write failed");
        throw std::runtime_error("EvalClient: cannot write to " +
                                 socketPath_);
    }
    Frame frame;
    if (readFrame(fd_, &frame) != ReadStatus::Ok) {
        markDead("connection lost reading metrics");
        throw std::runtime_error(
            "EvalClient: connection lost reading metrics");
    }
    if (frame.kind == FrameKind::Error) {
        std::string message;
        decodeErrorString(frame.payload, &message);
        throw std::runtime_error("EvalClient: server error: " +
                                 message);
    }
    obs::MetricsSnapshot snap;
    if (frame.kind != FrameKind::MetricsReply ||
        !decodeMetricsSnapshot(frame.payload, &snap)) {
        markDead("undecodable metrics payload");
        throw std::runtime_error(
            "EvalClient: undecodable metrics payload");
    }
    return snap;
}

} // namespace sps::svc

#endif // !_WIN32
