#ifndef _WIN32

#include "svc/eval_server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/log.h"
#include "svc/protocol.h"

namespace sps::svc {

namespace {

/** One queued response: either an immediate frame (metrics, errors) or
 *  a memory-tier entry whose result frame is delivered once ready. */
struct PendingResponse
{
    bool immediate = false;
    FrameKind kind = FrameKind::Error;
    std::vector<uint8_t> payload;
    std::shared_ptr<ResultEntry> entry;
    /** Request span to close after delivery (may be null). */
    std::shared_ptr<obs::RequestSpan> span;
};

std::vector<uint8_t>
errorPayload(const std::string &message)
{
    store::ByteWriter w;
    encodeErrorString(message, &w);
    return w.bytes();
}

/** The whole EvalResult frame of `res`: header, checksum and the
 *  store-codec payload. */
std::vector<uint8_t>
resultFrame(const sim::SimResult &res)
{
    store::ByteWriter w;
    store::encodeSimResult(res, &w);
    std::vector<uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + w.bytes().size());
    encodeFrame(FrameKind::EvalResult, w.bytes(), &frame);
    return frame;
}

} // namespace

EvalServer::EvalServer(EvalService *service, std::string socketPath,
                       ServerTelemetry telemetry)
    : service_(service), socketPath_(std::move(socketPath)),
      telemetry_(telemetry),
      spans_(telemetry.spanCapacity ? telemetry.spanCapacity : 1)
{
    if (obs::MetricsRegistry *reg = telemetry_.registry) {
        // One wiring point for the whole request path: the server
        // owns its own metrics and attaches the service's, so a
        // daemon enables request-tier telemetry with one struct.
        service_->attachMetrics(reg);
        e2eUs_ = reg->histogram(
            "sps_server_request_duration_us", "",
            "End-to-end request latency incl. delivery (us)");
        activeConns_ = reg->gauge("sps_server_active_connections", "",
                                  "Connections currently being served");
        reg->expose("sps_server_connections", "", "Connections accepted",
                    &connections_);
        reg->expose("sps_server_requests", "",
                    "Well-formed frames handled", &requests_);
        reg->expose("sps_server_protocol_errors", "",
                    "Malformed frames/streams", &protocolErrors_);
        reg->expose("sps_server_result_encodes", "",
                    "EvalResult frames built (one per memory-tier "
                    "entry delivered)",
                    &resultEncodes_);
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath_.size() >= sizeof addr.sun_path)
        throw std::runtime_error("EvalServer: socket path too long: " +
                                 socketPath_);
    std::memcpy(addr.sun_path, socketPath_.c_str(),
                socketPath_.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("EvalServer: socket() failed");
    ::unlink(socketPath_.c_str()); // replace a stale socket file
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd_, 128) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("EvalServer: cannot bind " +
                                 socketPath_);
    }
    acceptor_ = std::thread([this] { acceptLoop(); });
}

EvalServer::~EvalServer()
{
    stop();
}

void
EvalServer::stop()
{
    if (stopping_.exchange(true))
        return;
    // Closing the listening socket makes the blocked accept() fail,
    // which exits the acceptor; severing live connections wakes their
    // blocked reads.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    if (acceptor_.joinable())
        acceptor_.join();
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lock(mu_);
        conns.swap(conns_);
    }
    for (auto &t : conns)
        t.join();
    ::unlink(socketPath_.c_str());
}

void
EvalServer::acceptLoop()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listening socket closed: shutting down
        }
        if (stopping_.load()) {
            ::close(fd);
            return;
        }
        connections_.inc();
        std::lock_guard<std::mutex> lock(mu_);
        connFds_.insert(fd);
        conns_.emplace_back(
            [this, fd] { serveConnection(fd); });
    }
}

void
EvalServer::serveConnection(int fd)
{
    if (activeConns_)
        activeConns_->add(1);
    std::mutex qmu;
    std::condition_variable qcv;
    std::deque<PendingResponse> queue;
    bool reader_done = false;

    auto enqueue = [&](PendingResponse r) {
        {
            std::lock_guard<std::mutex> lock(qmu);
            queue.push_back(std::move(r));
        }
        qcv.notify_one();
    };

    // Delivery thread: responses go out strictly in request order, so
    // pipelined clients can match responses to requests positionally.
    std::thread writer([&] {
        for (;;) {
            PendingResponse r;
            {
                std::unique_lock<std::mutex> lock(qmu);
                qcv.wait(lock, [&] {
                    return reader_done || !queue.empty();
                });
                if (queue.empty())
                    return; // reader finished and everything delivered
                r = std::move(queue.front());
                queue.pop_front();
            }
            bool ok;
            if (r.immediate) {
                ok = writeFrame(fd, r.kind, r.payload);
            } else {
                uint64_t tDeliver = obs::monotonicMicros();
                // The entry's frame, built here only on its first
                // delivery; an exceptional result is never kept and
                // goes out as an Error frame.
                const std::vector<uint8_t> *frame = nullptr;
                std::vector<uint8_t> error;
                try {
                    frame = &r.entry->frame(
                        [this](const sim::SimResult &res) {
                            std::vector<uint8_t> bytes = resultFrame(res);
                            resultEncodes_.inc();
                            return bytes;
                        });
                } catch (const std::exception &e) {
                    error = errorPayload(e.what());
                } catch (...) {
                    error = errorPayload("evaluation failed");
                }
                if (r.span) {
                    // frame() waited on the result's future, which
                    // synchronized with the worker's set_value, so the
                    // stages it wrote are visible here; after finish()
                    // the span is immutable.
                    // Recorded *before* the frame goes out: a scrape
                    // the client issues after receiving this reply
                    // must already include it.
                    r.span->stage("deliver", tDeliver,
                                  obs::monotonicMicros());
                    r.span->finish(&spans_);
                    if (e2eUs_)
                        e2eUs_->observe(r.span->totalUs());
                    if (telemetry_.slowRequestUs &&
                        r.span->totalUs() >= telemetry_.slowRequestUs)
                        warn("slow request: %s",
                             r.span->describe().c_str());
                }
                ok = frame ? writeFrameBytes(fd, *frame)
                           : writeFrame(fd, FrameKind::Error, error);
            }
            if (!ok) {
                // Peer vanished mid-delivery: wake the reader too.
                ::shutdown(fd, SHUT_RDWR);
                return;
            }
        }
    });

    for (;;) {
        Frame frame;
        ReadStatus st = readFrame(fd, &frame);
        if (st == ReadStatus::Eof)
            break;
        if (st == ReadStatus::Malformed) {
            // The stream cannot be resynchronized after garbage; tell
            // the peer (best effort) and drop the connection. Only
            // this connection dies -- the listener and every other
            // client keep going.
            protocolErrors_.inc();
            PendingResponse r;
            r.immediate = true;
            r.kind = FrameKind::Error;
            r.payload = errorPayload("malformed frame");
            enqueue(std::move(r));
            break;
        }
        switch (frame.kind) {
        case FrameKind::EvalRequest: {
            EvalPoint pt;
            if (!decodeEvalRequest(frame.payload, &pt)) {
                protocolErrors_.inc();
                PendingResponse r;
                r.immediate = true;
                r.kind = FrameKind::Error;
                r.payload = errorPayload("malformed eval request");
                enqueue(std::move(r));
                break;
            }
            requests_.inc();
            PendingResponse r;
            if (telemetry_.registry || telemetry_.slowRequestUs) {
                r.span = std::make_shared<obs::RequestSpan>(
                    requestSeq_.fetch_add(1,
                                          std::memory_order_relaxed) +
                        1,
                    pt.app + "/" + std::to_string(pt.size.clusters) +
                        "x" +
                        std::to_string(pt.size.alusPerCluster));
            }
            r.entry = service_->submitEntry(pt, r.span);
            enqueue(std::move(r));
            break;
        }
        case FrameKind::MetricsRequest: {
            requests_.inc();
            PendingResponse r;
            r.immediate = true;
            if (telemetry_.registry) {
                store::ByteWriter w;
                encodeMetricsSnapshot(telemetry_.registry->snapshot(),
                                      &w);
                r.kind = FrameKind::MetricsReply;
                r.payload = w.bytes();
            } else {
                // Well-formed but unanswerable: the conversation
                // stays synced, the connection stays up.
                r.kind = FrameKind::Error;
                r.payload =
                    errorPayload("metrics not enabled on this server");
            }
            enqueue(std::move(r));
            break;
        }
        default: {
            // A response kind arriving at the server is a confused
            // peer; answer with an error but keep the stream (the
            // frame itself was well-formed).
            protocolErrors_.inc();
            PendingResponse r;
            r.immediate = true;
            r.kind = FrameKind::Error;
            r.payload = errorPayload("unexpected frame kind");
            enqueue(std::move(r));
            break;
        }
        }
    }

    {
        std::lock_guard<std::mutex> lock(qmu);
        reader_done = true;
    }
    qcv.notify_all();
    writer.join();
    {
        // Unregister before close: once closed, the fd number can be
        // reused by a fresh accept, and the erase must not hit it.
        std::lock_guard<std::mutex> lock(mu_);
        connFds_.erase(fd);
    }
    ::close(fd);
    if (activeConns_)
        activeConns_->add(-1);
}

obs::MetricsSnapshot
EvalServer::metricsSnapshot() const
{
    return telemetry_.registry ? telemetry_.registry->snapshot()
                               : obs::MetricsSnapshot{};
}

EvalServer::Counters
EvalServer::counters() const
{
    return Counters{connections_.value(), requests_.value(),
                    protocolErrors_.value(), resultEncodes_.value()};
}

} // namespace sps::svc

#endif // !_WIN32
