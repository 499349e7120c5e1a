// End-to-end tests of the Unix-domain-socket front end: a client's
// result is bit-identical to an in-process evaluation, pipelined
// responses come back in request order, concurrent clients dedup
// through the shared service, each memory-tier entry's reply frame is
// built once however many replies reuse it, a garbage stream kills
// only its own connection, and errors travel back as Error frames
// instead of wedging the conversation.
#ifndef _WIN32

#include "svc/eval_server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_engine.h"
#include "svc/eval_client.h"
#include "svc/protocol.h"
#include "workloads/suite.h"

namespace sps::svc {
namespace {

/** Short socket paths: sun_path caps out around 100 bytes, so the
 *  gtest temp dir (which can nest deep) is not safe to use. */
std::string
freshSock(const char *name)
{
    std::string path = "/tmp/sps_evald_test_" +
                       std::to_string(::getpid()) + "_" + name +
                       ".sock";
    ::unlink(path.c_str());
    return path;
}

std::vector<uint8_t>
resultBytes(const sim::SimResult &res)
{
    store::ByteWriter w;
    store::encodeSimResult(res, &w);
    return w.bytes();
}

/** A raw client socket for protocol-level (mis)behavior tests. */
int
rawConnect(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    return fd;
}

/** Pipeline `n` EvalRequests for `pt` on a raw socket. */
void
sendRequests(int fd, const EvalPoint &pt, int n)
{
    store::ByteWriter w;
    encodeEvalRequest(pt, &w);
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(writeFrame(fd, FrameKind::EvalRequest, w.bytes()));
}

/** Read one reply frame, expecting `kind`; its payload. */
std::vector<uint8_t>
readReply(int fd, FrameKind kind)
{
    Frame frame;
    EXPECT_EQ(readFrame(fd, &frame), ReadStatus::Ok);
    EXPECT_EQ(frame.kind, kind);
    return frame.payload;
}

TEST(EvalServerTest, ClientResultBitIdenticalToInProcess)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("bitident");
    EvalServer server(&service, sock);

    EvalPoint pt{"DEPTH", {8, 5}, {}};
    EvalClient client(sock);
    sim::SimResult remote = client.eval(pt);
    sim::SimResult local = service.eval(pt);
    EXPECT_EQ(resultBytes(remote), resultBytes(local));

    server.stop();
    auto c = server.counters();
    EXPECT_EQ(c.connections, 1u);
    EXPECT_EQ(c.requests, 1u);
    EXPECT_EQ(c.protocolErrors, 0u);
}

TEST(EvalServerTest, PipelinedResponsesArriveInRequestOrder)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("pipeline");
    EvalServer server(&service, sock);

    // Distinct points pipelined on a raw socket; reading them back
    // must yield each point's own result, in order, even though the
    // evaluations finish in whatever order the pool picks.
    std::vector<EvalPoint> pts{{"DEPTH", {8, 5}, {}},
                               {"DEPTH", {16, 5}, {}},
                               {"DEPTH", {8, 2}, {}}};
    int fd = rawConnect(sock);
    for (const auto &pt : pts) {
        store::ByteWriter w;
        encodeEvalRequest(pt, &w);
        ASSERT_TRUE(writeFrame(fd, FrameKind::EvalRequest, w.bytes()));
    }
    for (const auto &pt : pts) {
        Frame frame;
        ASSERT_EQ(readFrame(fd, &frame), ReadStatus::Ok);
        ASSERT_EQ(frame.kind, FrameKind::EvalResult);
        EXPECT_EQ(frame.payload, resultBytes(service.eval(pt)));
    }
    ::close(fd);
    server.stop();
}

TEST(EvalServerTest, ConcurrentClientsShareOneSimulation)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("dedup");
    EvalServer server(&service, sock);

    EvalPoint pt{"DEPTH", {8, 5}, {}};
    std::vector<std::vector<uint8_t>> results(4);
    std::vector<std::thread> clients;
    for (size_t i = 0; i < results.size(); ++i)
        clients.emplace_back([&, i] {
            EvalClient client(sock);
            results[i] = resultBytes(client.eval(pt));
        });
    for (auto &t : clients)
        t.join();
    for (size_t i = 1; i < results.size(); ++i)
        EXPECT_EQ(results[i], results[0]);

    // Four requests for one point: exactly one simulation; the rest
    // resolved from the in-flight future or the completed result.
    auto vc = service.counters();
    EXPECT_EQ(vc.computed, 1u);
    EXPECT_EQ(vc.memHits + vc.inflightDedup, 3u);
    server.stop();
    EXPECT_EQ(server.counters().connections, 4u);
}

TEST(EvalServerTest, RepeatRepliesReuseOneFrame)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("oneframe");
    EvalServer server(&service, sock);

    // An in-process evaluation fills the memory tier but builds no
    // frame: only a socket delivery does.
    EvalPoint pt{"DEPTH", {8, 5}, {}};
    const std::vector<uint8_t> want = resultBytes(service.eval(pt));
    EXPECT_EQ(server.counters().resultEncodes, 0u);

    // Twelve replies from one entry over two connections: every
    // payload is the in-process result's encoding, and the frame is
    // built once.
    int a = rawConnect(sock);
    int b = rawConnect(sock);
    sendRequests(a, pt, 6);
    sendRequests(b, pt, 6);
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(readReply(a, FrameKind::EvalResult), want) << i;
        EXPECT_EQ(readReply(b, FrameKind::EvalResult), want) << i;
    }
    ::close(a);
    ::close(b);
    server.stop();
    EXPECT_EQ(server.counters().requests, 12u);
    EXPECT_EQ(server.counters().resultEncodes, 1u);
    EXPECT_EQ(service.counters().computed, 1u);
}

TEST(EvalServerTest, RacingFirstDeliveriesBuildOneFrame)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("raceframe");
    EvalServer server(&service, sock);

    // Eight connections ask for one never-seen point at once, so their
    // writers race the entry's first delivery.
    EvalPoint pt{"CONV", {16, 5}, {}};
    constexpr int kConns = 8;
    std::vector<std::vector<uint8_t>> got(kConns);
    std::latch start(kConns);
    std::vector<std::thread> clients;
    for (int i = 0; i < kConns; ++i)
        clients.emplace_back([&, i] {
            int fd = rawConnect(sock);
            start.arrive_and_wait();
            sendRequests(fd, pt, 1);
            got[i] = readReply(fd, FrameKind::EvalResult);
            ::close(fd);
        });
    for (auto &t : clients)
        t.join();
    const std::vector<uint8_t> want = resultBytes(service.eval(pt));
    for (int i = 0; i < kConns; ++i)
        EXPECT_EQ(got[i], want) << "connection " << i;
    server.stop();
    EXPECT_EQ(server.counters().resultEncodes, 1u);
    EXPECT_EQ(service.counters().computed, 1u);
}

TEST(EvalServerTest, ClearMemoryDropsTheFrame)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("clearframe");
    EvalServer server(&service, sock);

    EvalPoint pt{"DEPTH", {8, 5}, {}};
    int fd = rawConnect(sock);
    sendRequests(fd, pt, 1);
    const std::vector<uint8_t> first = readReply(fd, FrameKind::EvalResult);
    // The frame went with its entry: the next reply comes from a new
    // entry, whose frame is built again, to the same bytes.
    service.clearMemory();
    sendRequests(fd, pt, 1);
    EXPECT_EQ(readReply(fd, FrameKind::EvalResult), first);
    EXPECT_EQ(first, resultBytes(service.eval(pt)));
    ::close(fd);
    server.stop();
    EXPECT_EQ(server.counters().resultEncodes, 2u);
    EXPECT_EQ(service.counters().computed, 2u);
}

TEST(EvalServerTest, ErrorRepliesKeepNoFrame)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("errframe");
    EvalServer server(&service, sock);

    // The second request is a memory-tier hit on the failed entry: it
    // is answered with an Error frame again, and nothing is kept.
    int fd = rawConnect(sock);
    sendRequests(fd, {"NO_SUCH_APP", {8, 5}, {}}, 2);
    for (int i = 0; i < 2; ++i) {
        std::string message;
        EXPECT_TRUE(decodeErrorString(readReply(fd, FrameKind::Error),
                                      &message));
        EXPECT_NE(message.find("NO_SUCH_APP"), std::string::npos);
    }
    EXPECT_EQ(server.counters().resultEncodes, 0u);
    // The connection stays usable.
    EvalPoint pt{"DEPTH", {8, 5}, {}};
    sendRequests(fd, pt, 1);
    EXPECT_EQ(readReply(fd, FrameKind::EvalResult),
              resultBytes(service.eval(pt)));
    ::close(fd);
    server.stop();
    EXPECT_EQ(server.counters().resultEncodes, 1u);
    EXPECT_EQ(server.counters().protocolErrors, 0u);
}

TEST(EvalServerTest, GarbageStreamKillsOnlyItsConnection)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("garbage");
    EvalServer server(&service, sock);

    int fd = rawConnect(sock);
    // At least one full header of garbage: the server cannot tell a
    // bad frame from a partial one until kFrameHeaderBytes arrive.
    std::vector<uint8_t> junk(2 * kFrameHeaderBytes, 'x');
    ASSERT_GT(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL), 0);
    // The server answers with a best-effort Error frame and hangs up.
    Frame frame;
    ReadStatus st = readFrame(fd, &frame);
    if (st == ReadStatus::Ok) {
        EXPECT_EQ(frame.kind, FrameKind::Error);
    }
    EXPECT_EQ(readFrame(fd, &frame), ReadStatus::Eof);
    ::close(fd);

    // The server survived and serves fresh connections.
    EvalClient client(sock);
    EXPECT_GT(client.eval({"DEPTH", {8, 5}, {}}).cycles, 0);
    server.stop();
    EXPECT_GE(server.counters().protocolErrors, 1u);
}

TEST(EvalServerTest, UnknownAppTravelsBackAsErrorFrame)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("unknownapp");
    EvalServer server(&service, sock);

    EvalClient client(sock);
    EXPECT_THROW(client.eval({"NO_SUCH_APP", {8, 5}, {}}),
                 std::runtime_error);
    // The connection survives an Error frame: the next request on the
    // same client works.
    EXPECT_GT(client.eval({"DEPTH", {8, 5}, {}}).cycles, 0);
    server.stop();
}

TEST(EvalServerTest, UnrunnableSizeTravelsBackAsErrorFrame)
{
    // A machine with no clusters or no ALUs would trip the SRF and
    // FU-mix invariants, and an N=1 cluster has no multiplier for any
    // app's kernels; each used to abort the daemon for every client.
    // The service turns each into an Error frame for the one requester.
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("badsize");
    EvalServer server(&service, sock);

    EvalClient client(sock);
    std::vector<EvalPoint> bad;
    for (vlsi::MachineSize size : {vlsi::MachineSize{0, 5},
                                   vlsi::MachineSize{8, 0},
                                   vlsi::MachineSize{-4, 5},
                                   vlsi::MachineSize{8, -1}})
        bad.push_back({"DEPTH", size, {}});
    for (const workloads::AppEntry &app : workloads::appSuite())
        bad.push_back({app.name, {8, 1}, {}});
    ASSERT_EQ(bad.size(), 10u);
    for (const EvalPoint &pt : bad) {
        EXPECT_THROW(client.eval(pt), std::runtime_error)
            << pt.app << " C=" << pt.size.clusters
            << " N=" << pt.size.alusPerCluster;
        EXPECT_FALSE(client.dead());
    }
    EXPECT_GT(client.eval({"DEPTH", {8, 5}, {}}).cycles, 0);
    server.stop();
}

TEST(EvalServerTest, ConfigOverrideEvaluatedUnderItsOwnKey)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("override");
    EvalServer server(&service, sock);

    EvalClient client(sock);
    EvalPoint plain{"DEPTH", {8, 5}, {}};
    sim::SimConfig slow;
    slow.memConfig.latencyCycles += 200;
    EvalPoint overridden{"DEPTH", {8, 5}, slow};

    sim::SimResult a = client.eval(plain);
    sim::SimResult b = client.eval(overridden);
    // Distinct keys -> two simulations -> the override's extra memory
    // latency is visible in the result.
    EXPECT_EQ(service.counters().computed, 2u);
    EXPECT_NE(resultBytes(a), resultBytes(b));
    server.stop();
}

TEST(EvalServerTest, StopSeversLiveConnections)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("stop");
    auto *server = new EvalServer(&service, sock);
    int fd = rawConnect(sock);
    // Give the acceptor a beat to hand the fd to a connection thread.
    Frame frame;
    server->stop();
    EXPECT_NE(readFrame(fd, &frame), ReadStatus::Ok);
    ::close(fd);
    // The socket file is gone: a reconnect fails.
    EXPECT_THROW(EvalClient{sock}, std::runtime_error);
    delete server;
}

} // namespace
} // namespace sps::svc

#endif // !_WIN32
