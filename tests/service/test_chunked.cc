/**
 * @file
 * The chunked-body decoder's two consumers — readHttpResponse (a
 * whole response) and dist::ShardStream (the coordinator's JSONL
 * line stream) — run one table of valid and adversarial bodies over
 * a socketpair, plus seeded bodies written in random 1..k-byte
 * pieces so that size lines and CRLFs straddle reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/random.hh"
#include "dist/wire.hh"
#include "service/http.hh"

using namespace elfsim;

namespace {

const std::string kHead =
    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";

/**
 * Run @a consume on one end of a socketpair of @a type while a writer
 * thread sends @a pieces (one send each) and half-closes. The writer
 * may block on a body larger than the socket buffer; a consumer that
 * stops early unblocks it by shutting its end down.
 */
void
overSocket(int type, const std::vector<std::string> &pieces,
           const std::function<void(int fd)> &consume)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, type, 0, sv), 0);
    std::thread writer([fd = sv[0], &pieces] {
        for (const std::string &p : pieces)
            if (!service::writeAll(fd, p))
                break;
        ::shutdown(fd, SHUT_WR);
    });
    consume(sv[1]);
    ::shutdown(sv[1], SHUT_RDWR);
    writer.join();
    ::close(sv[0]);
    ::close(sv[1]);
}

/** readHttpResponse's body, or nullopt when it threw IoError. */
std::optional<std::string>
responseBody(int type, const std::vector<std::string> &pieces)
{
    std::optional<std::string> body;
    overSocket(type, pieces, [&](int fd) {
        try {
            body = service::readHttpResponse(fd).body;
        } catch (const IoError &) {
        }
    });
    return body;
}

/** The lines a ShardStream delivers after the coordinator's head
 *  read, until it ends; @a failed reports how it ended. */
std::vector<std::string>
shardLines(int type, const std::vector<std::string> &pieces,
           bool &failed)
{
    std::vector<std::string> lines;
    overSocket(type, pieces, [&](int fd) {
        int status = 0;
        std::map<std::string, std::string> headers;
        std::string rest, err;
        ASSERT_TRUE(service::readHttpResponseHead(fd, status, headers,
                                                  rest, err))
            << err;
        dist::ShardStream stream(fd, std::move(rest));
        std::string line;
        while (stream.nextLine(line))
            lines.push_back(line);
        failed = stream.failed();
    });
    return lines;
}

/** The complete ('\n'-terminated) lines of @a bytes. */
std::vector<std::string>
completeLines(const std::string &bytes)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    for (std::size_t nl; (nl = bytes.find('\n', at)) != std::string::npos;
         at = nl + 1)
        out.push_back(bytes.substr(at, nl - at));
    return out;
}

/** One table row: a chunked body and what both consumers make of
 *  it. */
struct ChunkedCase
{
    std::string body;    ///< the bytes after the response head
    bool ok;             ///< valid through the terminating chunk
    std::string decoded; ///< ok: the decoded body
    /** !ok: the lines ShardStream delivers before it fails. */
    std::vector<std::string> linesBeforeFailure;
};

/** Legal chunks that never deliver a '\n' and total 17 MiB: past
 *  both the response-body cap and the pending-line cap. */
std::string
overCapBody()
{
    const std::string chunk(1u << 20, 'x');
    std::string body;
    for (int i = 0; i < 17; ++i)
        body += "100000\r\n" + chunk + "\r\n";
    return body + "0\r\n\r\n";
}

std::vector<ChunkedCase>
chunkedTable()
{
    return {
        // Strict chunk sizes decode: upper-case hex, a "00"
        // terminator, lines split across chunks.
        {"5\r\nhello\r\n0\r\n\r\n", true, "hello", {}},
        {"A\r\n0123456789\r\n00\r\n\r\n", true, "0123456789", {}},
        {"6\r\nline1\n\r\nC\r\nline2\nline3\n\r\n0\r\n\r\n", true,
         "line1\nline2\nline3\n", {}},
        // A bare strtoull once took a sign, leading blanks, "0x" and
        // extensions, and a 2^64-1 size after a first chunk wrapped
        // the body-cap check.
        {"+5\r\nhello\r\n0\r\n\r\n", false, "", {}},
        {" 5\r\nhello\r\n0\r\n\r\n", false, "", {}},
        {"0x5\r\nhello\r\n0\r\n\r\n", false, "", {}},
        {"5;ext=1\r\nhello\r\n0\r\n\r\n", false, "", {}},
        {"\r\nhello\r\n0\r\n\r\n", false, "", {}},
        {"5\r\nhello\r\nffffffffffffffff\r\n00\r\n\r\n", false, "", {}},
        {"1000001\r\nhello\r\n0\r\n\r\n", false, "", {}}, // 16 MiB + 1
        {"+6\r\nline1\n\r\n0\r\n\r\n", false, "", {}},
        {" 6\r\nline1\n\r\n0\r\n\r\n", false, "", {}},
        {"0x6\r\nline1\n\r\n0\r\n\r\n", false, "", {}},
        {"6;ext=1\r\nline1\n\r\n0\r\n\r\n", false, "", {}},
        {"6\r\nline1\n\r\nffffffffffffffff\r\nline2\n\r\n0\r\n\r\n",
         false, "", {"line1"}},
        {"1000001\r\nline1\n\r\n0\r\n\r\n", false, "", {}},
        // A size line that never ends is refused, not buffered
        // forever.
        {std::string(200, '1'), false, "", {}},
        // A chunk's data must be followed by CRLF, not by any two
        // bytes; the chunk's own lines are still delivered first.
        {"5\r\nhelloXY0\r\n\r\n", false, "", {}},
        {"5\r\nhello\n\r0\r\n\r\n", false, "", {}},
        {"6\r\nline1\nXY0\r\n\r\n", false, "", {"line1"}},
        {"6\r\nline1\n\rX0\r\n\r\n", false, "", {"line1"}},
        // Caps: the decoded body and the pending line stop at 16 MiB.
        {overCapBody(), false, "", {}},
    };
}

} // namespace

TEST(HttpChunked, TableThroughReadHttpResponse)
{
    for (const ChunkedCase &c : chunkedTable()) {
        SCOPED_TRACE(c.body.substr(0, 64));
        const std::optional<std::string> body =
            responseBody(SOCK_STREAM, {kHead + c.body});
        if (c.ok) {
            ASSERT_TRUE(body.has_value());
            EXPECT_EQ(*body, c.decoded);
        } else {
            EXPECT_FALSE(body.has_value());
        }
    }
}

TEST(HttpChunked, TableThroughShardStream)
{
    for (const ChunkedCase &c : chunkedTable()) {
        SCOPED_TRACE(c.body.substr(0, 64));
        bool failed = c.ok;
        const std::vector<std::string> lines =
            shardLines(SOCK_STREAM, {kHead + c.body}, failed);
        EXPECT_EQ(failed, !c.ok);
        EXPECT_EQ(lines, c.ok ? completeLines(c.decoded)
                              : c.linesBeforeFailure);
    }
}

TEST(HttpChunked, RandomSplitPointsDecodeIdentically)
{
    // SOCK_SEQPACKET keeps each piece a separate read, so size lines,
    // chunk data and CRLFs really do straddle reads.
    Rng rng(0x5eed);
    for (int round = 0; round < 40; ++round) {
        SCOPED_TRACE(round);
        std::string decoded;
        const std::uint64_t nLines = 1 + rng.below(12);
        for (std::uint64_t l = 0; l < nLines; ++l)
            decoded += std::string(rng.below(90), char('a' + l % 26)) +
                       "\n";
        std::string body;
        for (std::size_t at = 0; at < decoded.size();) {
            const std::size_t n = std::min<std::size_t>(
                1 + rng.below(40), decoded.size() - at);
            char size[16];
            std::snprintf(size, sizeof size,
                          rng.below(2) ? "%zx\r\n" : "%03zX\r\n", n);
            body += size + decoded.substr(at, n) + "\r\n";
            at += n;
        }
        body += "0\r\n\r\n";

        const std::string wire = kHead + body;
        const std::size_t k = 1 + rng.below(7);
        std::vector<std::string> pieces;
        for (std::size_t at = 0; at < wire.size();) {
            const std::size_t n =
                std::min<std::size_t>(1 + rng.below(k), wire.size() - at);
            pieces.push_back(wire.substr(at, n));
            at += n;
        }

        EXPECT_EQ(responseBody(SOCK_SEQPACKET, pieces), decoded);
        bool failed = true;
        EXPECT_EQ(shardLines(SOCK_SEQPACKET, pieces, failed),
                  completeLines(decoded));
        EXPECT_FALSE(failed);
    }
}
