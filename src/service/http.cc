#include "service/http.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/artifact_file.hh"
#include "common/error.hh"

namespace elfsim {
namespace service {

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;

std::string
lowered(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return char(std::tolower(c));
    });
    return s;
}

std::string
trimmed(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

sockaddr_in
loopbackAddr(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw IoError(errorf("bad listen address '%s'", host.c_str()));
    return addr;
}

/** Read up to @a n bytes; 0 on orderly close, -1 on error. */
ssize_t
readSome(int fd, char *buf, std::size_t n)
{
    for (;;) {
        const ssize_t r = ::recv(fd, buf, n, 0);
        if (r < 0 && errno == EINTR)
            continue;
        return r;
    }
}

/** Parse "Key: value" lines into a lower-cased header map. */
bool
parseHeaderLines(const std::string &head, std::size_t firstLineEnd,
                 std::map<std::string, std::string> &out)
{
    std::size_t pos = firstLineEnd;
    while (pos < head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string::npos)
            eol = head.size();
        const std::string line = head.substr(pos, eol - pos);
        pos = eol + 2;
        if (line.empty())
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            return false;
        out[lowered(trimmed(line.substr(0, colon)))] =
            trimmed(line.substr(colon + 1));
    }
    return true;
}

/** The head shared by the request and response readers: read until
 *  CRLFCRLF, hand back the first (request or status) line in
 *  @a first and the parsed headers; @a rest gets any body bytes
 *  already read. False with @a err filled on a close, an oversized
 *  head or a malformed header line. */
bool
readHead(int fd, std::string &first,
         std::map<std::string, std::string> &headers, std::string &rest,
         std::string &err)
{
    std::string buf;
    std::size_t at;
    while ((at = buf.find("\r\n\r\n")) == std::string::npos) {
        if (buf.size() > kMaxHeaderBytes || !recvInto(fd, buf, err)) {
            err = "connection closed or header block too large";
            return false;
        }
    }
    rest = buf.substr(at + 4);
    buf.resize(at);
    const std::size_t eol = std::min(buf.find("\r\n"), buf.size());
    first = buf.substr(0, eol);
    if (!parseHeaderLines(buf, eol + 2, headers)) {
        err = "malformed header line";
        return false;
    }
    return true;
}

/** A response head: status line, Content-Type, the body's
 *  @a framing header and Connection: close. */
std::string
responseHead(int status, std::string_view reason,
             std::string_view contentType, std::string_view framing)
{
    std::string head;
    head.append("HTTP/1.1 ").append(std::to_string(status));
    head.append(" ").append(reason);
    head.append("\r\nContent-Type: ").append(contentType);
    head.append("\r\n").append(framing);
    head.append("\r\nConnection: close\r\n\r\n");
    return head;
}

/** Parse a Content-Length value: decimal digits only, at most the
 *  body cap. */
bool
parseContentLength(const std::string &v, std::size_t &n)
{
    const char *end = v.data() + v.size();
    const auto [p, ec] = std::from_chars(v.data(), end, n);
    return ec == std::errc() && p == end && n <= kMaxBodyBytes;
}

/** Read until @a body (which may already hold a prefix from the
 *  header read) has @a n bytes; @a n is at most the body cap. */
bool
readBody(int fd, std::string &body, std::size_t n)
{
    std::string err;
    while (body.size() < n)
        if (!recvInto(fd, body, err))
            return false;
    body.resize(n);
    return true;
}

/** Longest chunk-size line ChunkedReader buffers before failing. */
constexpr std::size_t kMaxChunkSizeLine = 64;

/** One chunk-size line (without its CRLF): hex digits only — no
 *  sign, whitespace or chunk extension — and at most kMaxBodyBytes,
 *  so a hostile size can neither wrap a length check nor ask for an
 *  unbounded buffer. */
bool
parseChunkSize(std::string_view line, std::size_t &n)
{
    std::uint64_t v = 0;
    if (!parseHexKey(line, v) || v > kMaxBodyBytes)
        return false;
    n = std::size_t(v);
    return true;
}

} // namespace

int
listenTcp(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw IoError(errorf("socket: %s", std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = loopbackAddr(host, port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0) {
        const int e = errno;
        ::close(fd);
        throw IoError(errorf("bind %s:%u: %s", host.c_str(),
                             unsigned(port), std::strerror(e)));
    }
    if (::listen(fd, 64) != 0) {
        const int e = errno;
        ::close(fd);
        throw IoError(errorf("listen: %s", std::strerror(e)));
    }
    return fd;
}

std::uint16_t
boundPort(int fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        throw IoError(errorf("getsockname: %s", std::strerror(errno)));
    return ntohs(addr.sin_port);
}

int
connectTcp(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw IoError(errorf("socket: %s", std::strerror(errno)));
    sockaddr_in addr = loopbackAddr(host, port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const int e = errno;
        ::close(fd);
        throw IoError(errorf("connect %s:%u: %s", host.c_str(),
                             unsigned(port), std::strerror(e)));
    }
    return fd;
}

bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t w =
            ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data.remove_prefix(std::size_t(w));
    }
    return true;
}

bool
readHttpRequest(int fd, HttpRequest &out, std::string &err)
{
    std::string reqLine, rest;
    if (!readHead(fd, reqLine, out.headers, rest, err))
        return false;
    const std::size_t sp1 = reqLine.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : reqLine.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        reqLine.compare(sp2 + 1, 5, "HTTP/") != 0) {
        err = "malformed request line";
        return false;
    }
    out.method = reqLine.substr(0, sp1);
    out.path = reqLine.substr(sp1 + 1, sp2 - sp1 - 1);
    out.body = std::move(rest);
    const auto cl = out.headers.find("content-length");
    if (cl != out.headers.end()) {
        std::size_t n = 0;
        if (!parseContentLength(cl->second, n)) {
            err = "bad content-length";
            return false;
        }
        if (!readBody(fd, out.body, n)) {
            err = "short request body";
            return false;
        }
    } else if (!out.body.empty()) {
        err = "body without content-length";
        return false;
    }
    return true;
}

bool
writeHttpRequest(int fd, const std::string &host,
                 const std::string &method, const std::string &path,
                 std::string_view body,
                 const std::map<std::string, std::string> &headers)
{
    std::string head;
    head.append(method).append(" ").append(path);
    head.append(" HTTP/1.1\r\nHost: ").append(host);
    for (const auto &[k, v] : headers)
        head.append("\r\n").append(k).append(": ").append(v);
    head.append("\r\nContent-Length: ")
        .append(std::to_string(body.size()));
    head.append("\r\nConnection: close\r\n\r\n");
    return writeAll(fd, head) && writeAll(fd, body);
}

bool
writeHttpResponse(int fd, int status, std::string_view reason,
                  std::string_view contentType, std::string_view body)
{
    return writeAll(fd, responseHead(status, reason, contentType,
                                     "Content-Length: " +
                                         std::to_string(body.size()))) &&
           writeAll(fd, body);
}

bool
ChunkedResponse::header(int status, std::string_view reason,
                        std::string_view contentType)
{
    if (bad)
        return false;
    bad = !writeAll(fd, responseHead(status, reason, contentType,
                                     "Transfer-Encoding: chunked"));
    return !bad;
}

bool
ChunkedResponse::write(std::string_view data)
{
    if (bad)
        return false;
    if (data.empty())
        return true;
    char size[32];
    const int n =
        std::snprintf(size, sizeof size, "%zx\r\n", data.size());
    bad = n <= 0 ||
          !writeAll(fd, std::string_view(size, std::size_t(n))) ||
          !writeAll(fd, data) || !writeAll(fd, "\r\n");
    return !bad;
}

bool
ChunkedResponse::finish()
{
    if (bad)
        return false;
    bad = !writeAll(fd, "0\r\n\r\n");
    return !bad;
}

bool
recvInto(int fd, std::string &raw, std::string &err)
{
    char tmp[4096];
    const ssize_t r = readSome(fd, tmp, sizeof tmp);
    if (r > 0) {
        raw.append(tmp, std::size_t(r));
        return true;
    }
    if (r == 0)
        err = "connection closed mid-stream";
    else if (errno == EAGAIN || errno == EWOULDBLOCK)
        err = "receive timeout";
    else
        err = std::strerror(errno);
    return false;
}

bool
ChunkedReader::fail(std::string why)
{
    bad = true;
    err = std::move(why);
    return false;
}

bool
ChunkedReader::fill()
{
    // Compact the consumed prefix before growing the buffer.
    raw.erase(0, pos);
    pos = 0;
    std::string why;
    return rawRead(raw, why) || fail(std::move(why));
}

bool
ChunkedReader::read(std::string &out)
{
    while (!ended && !bad) {
        if (crlfDue) {
            // The chunk's CRLF, possibly split across reads.
            if (raw.size() - pos < 2) {
                if (!fill())
                    return false;
                continue;
            }
            if (raw.compare(pos, 2, "\r\n") != 0)
                return fail("chunk not followed by CRLF");
            pos += 2;
            crlfDue = false;
        } else if (chunkLeft > 0) {
            if (pos == raw.size()) {
                if (!fill())
                    return false;
                continue;
            }
            const std::size_t n = std::min(chunkLeft, raw.size() - pos);
            out.append(raw, pos, n);
            pos += n;
            chunkLeft -= n;
            crlfDue = chunkLeft == 0;
            return true;
        } else {
            // At a chunk-size line ("<hex>\r\n").
            const std::size_t eol = raw.find("\r\n", pos);
            if (eol == std::string::npos) {
                if (raw.size() - pos > kMaxChunkSizeLine)
                    return fail("malformed chunk-size line");
                if (!fill())
                    return false;
                continue;
            }
            if (!parseChunkSize(
                    std::string_view(raw).substr(pos, eol - pos),
                    chunkLeft))
                return fail("malformed chunk size");
            pos = eol + 2;
            ended = chunkLeft == 0; // trailers are ignored
        }
    }
    return false;
}

HttpResponse
readHttpResponse(int fd)
{
    HttpResponse resp;
    std::string rest, err;
    if (!readHttpResponseHead(fd, resp.status, resp.headers, rest, err))
        throw IoError(err);
    const auto te = resp.headers.find("transfer-encoding");
    if (te != resp.headers.end() &&
        lowered(te->second) == "chunked") {
        ChunkedReader body(std::move(rest),
                           [fd](std::string &raw, std::string &err) {
                               return recvInto(fd, raw, err);
                           });
        while (body.read(resp.body))
            if (resp.body.size() > kMaxBodyBytes)
                throw IoError("chunked response body exceeds the cap");
        if (body.failed())
            throw IoError("malformed chunked response body: " +
                          body.error());
        return resp;
    }
    resp.body = std::move(rest);
    const auto cl = resp.headers.find("content-length");
    if (cl != resp.headers.end()) {
        std::size_t n = 0;
        if (!parseContentLength(cl->second, n))
            throw IoError(errorf("bad content-length '%s'",
                                 cl->second.c_str()));
        if (!readBody(fd, resp.body, n))
            throw IoError("short response body");
    } else {
        // Connection: close framing — read until EOF.
        char tmp[4096];
        for (;;) {
            const ssize_t r = readSome(fd, tmp, sizeof tmp);
            if (r < 0)
                throw IoError("error reading response body");
            if (r == 0)
                break;
            resp.body.append(tmp, std::size_t(r));
        }
    }
    return resp;
}

bool
readHttpResponseHead(int fd, int &status,
                     std::map<std::string, std::string> &headers,
                     std::string &rest, std::string &err)
{
    std::string statusLine;
    if (!readHead(fd, statusLine, headers, rest, err))
        return false;
    if (std::sscanf(statusLine.c_str(), "HTTP/%*d.%*d %d",
                    &status) != 1) {
        err = "malformed status line '" + statusLine + "'";
        return false;
    }
    return true;
}

HttpResponse
httpFetch(const std::string &host, std::uint16_t port,
          const std::string &method, const std::string &path,
          std::string_view body,
          const std::map<std::string, std::string> &headers)
{
    const int fd = connectTcp(host, port);
    if (!writeHttpRequest(fd, host, method, path, body, headers)) {
        ::close(fd);
        throw IoError("error sending request");
    }
    try {
        HttpResponse resp = readHttpResponse(fd);
        ::close(fd);
        return resp;
    } catch (...) {
        ::close(fd);
        throw;
    }
}

} // namespace service
} // namespace elfsim
