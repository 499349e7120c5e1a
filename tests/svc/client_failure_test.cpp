// The client's failure model, pinned down: a daemon that dies
// mid-sweep surfaces as one clean exception (not a hang, not a stale
// result), an Error frame mid-pipeline kills the connection so a
// buffered stale response can never be served as a later call's
// answer, and only an Error answering a single unpipelined request
// leaves the connection alive.
#ifndef _WIN32

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_engine.h"
#include "svc/eval_client.h"
#include "svc/eval_server.h"
#include "svc/protocol.h"

namespace sps::svc {
namespace {

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

std::vector<uint8_t>
errorBytes(const std::string &message)
{
    store::ByteWriter w;
    encodeErrorString(message, &w);
    return w.bytes();
}

/**
 * A scripted stand-in for sps_evald: binds the socket, accepts one
 * connection, plays back exactly the frames the test hands it, then
 * drains the peer until EOF. Lets the tests stage failures (truncated
 * response streams, mid-pipeline errors, stale leftovers) that a real
 * server would only produce under races.
 */
class FakeServer
{
  public:
    explicit FakeServer(const std::string &path)
    {
        listen_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(listen_, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        EXPECT_EQ(::bind(listen_,
                         reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr),
                  0);
        EXPECT_EQ(::listen(listen_, 1), 0);
    }

    ~FakeServer()
    {
        join();
        ::close(listen_);
    }

    /** Accept one client, send the scripted frames, then either hang
     *  up immediately or linger reading until the peer goes away. */
    void
    play(std::vector<std::pair<FrameKind, std::vector<uint8_t>>> script,
         bool linger)
    {
        thread_ = std::thread([this, script = std::move(script),
                               linger] {
            int fd = ::accept(listen_, nullptr, nullptr);
            if (fd < 0)
                return;
            for (const auto &[kind, payload] : script)
                if (!writeFrame(fd, kind, payload))
                    break;
            if (linger) {
                // Keep the scripted frames deliverable (no RST from
                // an early close) until the client hangs up.
                Frame frame;
                while (readFrame(fd, &frame) == ReadStatus::Ok) {
                }
            }
            ::close(fd);
        });
    }

    void
    join()
    {
        if (thread_.joinable())
            thread_.join();
    }

  private:
    int listen_ = -1;
    std::thread thread_;
};

TEST(ClientFailureTest, ServerStoppedMidSweepThrowsCleanly)
{
    // The kill-the-daemon-mid-sweep regression: stop() severs the
    // connection while a pipelined Figure-15 sweep is in flight. The
    // sweep must surface one clean exception -- never hang on the
    // sender thread or hand back a partial sweep.
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("stopmidsweep");
    EvalServer server(&service, sock);

    EvalClient client(sock);
    std::exception_ptr thrown;
    std::thread sweep([&] {
        try {
            client.appPerformance({8}, {5});
        } catch (...) {
            thrown = std::current_exception();
        }
    });
    // A full-suite sweep takes far longer than this on a cold cache,
    // so the stop lands while responses are still outstanding.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    server.stop();
    sweep.join();

    ASSERT_TRUE(thrown != nullptr);
    EXPECT_THROW(std::rethrow_exception(thrown), std::runtime_error);
    EXPECT_TRUE(client.dead());
    // Every later call fails fast instead of reading a dead socket.
    EXPECT_THROW(client.eval({"DEPTH", {8, 5}, {}}),
                 std::runtime_error);
    // The daemon is gone: a reconnect fails too.
    EXPECT_THROW(EvalClient{sock}, std::runtime_error);
}

TEST(ClientFailureTest, TruncatedResponseStreamThrowsAndGoesDead)
{
    // The server hangs up after one of many pipelined responses: the
    // next read must fail the sweep, not block forever.
    std::string sock = freshSock("truncated");
    FakeServer fake(sock);
    fake.play({{FrameKind::EvalResult, resultBytes(sim::SimResult{})}},
              /*linger=*/false);

    EvalClient client(sock);
    EXPECT_THROW(client.appPerformance({8}, {5}), std::runtime_error);
    EXPECT_TRUE(client.dead());
    EXPECT_THROW(client.eval({"DEPTH", {8, 5}, {}}),
                 std::runtime_error);
    fake.join();
}

TEST(ClientFailureTest, ErrorMidPipelineNeverServesTheStaleResponse)
{
    // Response script: one good result, then an Error aborting the
    // sweep, then a leftover result that is now *stale* -- it answers
    // a request the aborted sweep wrote. A later eval() must never
    // consume it as its own answer; the dead-connection latch is what
    // guarantees that.
    std::string sock = freshSock("stale");
    FakeServer fake(sock);
    fake.play({{FrameKind::EvalResult, resultBytes(sim::SimResult{})},
               {FrameKind::Error, errorBytes("boom")},
               {FrameKind::EvalResult, resultBytes(sim::SimResult{})}},
              /*linger=*/true);

    EvalClient client(sock);
    try {
        client.appPerformance({8}, {5});
        FAIL() << "aborted sweep returned";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("boom"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(client.dead());
    try {
        client.eval({"DEPTH", {8, 5}, {}});
        FAIL() << "eval on a dead connection returned a result";
    } catch (const std::runtime_error &e) {
        // Failed on the latch, not by decoding the stale frame.
        EXPECT_NE(std::string(e.what()).find("dead"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(client.metrics(), std::runtime_error);
    fake.join();
}

TEST(ClientFailureTest, UnpipelinedErrorFrameKeepsTheConnection)
{
    // The one survivable error: an Error frame answering a single
    // lockstep request consumed exactly one response, so the
    // conversation is still synchronized.
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("lockstep");
    EvalServer server(&service, sock);

    EvalClient client(sock);
    EXPECT_THROW(client.eval({"NO_SUCH_APP", {8, 5}, {}}),
                 std::runtime_error);
    EXPECT_FALSE(client.dead());
    EXPECT_GT(client.eval({"DEPTH", {8, 5}, {}}).cycles, 0);
    EXPECT_FALSE(client.dead());
    server.stop();
}

TEST(ClientFailureTest, UndecodableResultPayloadGoesDead)
{
    // A well-framed response whose payload is not a SimResult is a
    // protocol violation, not a server error: the client cannot trust
    // anything after it.
    std::string sock = freshSock("badpayload");
    FakeServer fake(sock);
    fake.play({{FrameKind::EvalResult, {0xde, 0xad, 0xbe, 0xef}}},
              /*linger=*/true);

    EvalClient client(sock);
    EXPECT_THROW(client.eval({"DEPTH", {8, 5}, {}}),
                 std::runtime_error);
    EXPECT_TRUE(client.dead());
    fake.join();
}

TEST(ClientFailureTest, UnexpectedFrameKindGoesDead)
{
    // A MetricsReply answering an EvalRequest means the conversation
    // lost sync; the client must refuse to guess.
    std::string sock = freshSock("badkind");
    FakeServer fake(sock);
    store::ByteWriter w;
    encodeMetricsSnapshot(obs::MetricsSnapshot{}, &w);
    fake.play({{FrameKind::MetricsReply, w.bytes()}}, /*linger=*/true);

    EvalClient client(sock);
    EXPECT_THROW(client.eval({"DEPTH", {8, 5}, {}}),
                 std::runtime_error);
    EXPECT_TRUE(client.dead());
    fake.join();
}

} // namespace
} // namespace sps::svc

#endif // !_WIN32
