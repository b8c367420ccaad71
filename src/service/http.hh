/**
 * @file
 * Minimal HTTP/1.1 framing over loopback TCP sockets — the one
 * transport of the sweep service (service/daemon.hh) and the
 * distributed fleet (dist/): request-line + headers + Content-Length
 * bodies on the way in, fixed or chunked (Transfer-Encoding: chunked)
 * responses on the way out, one request per connection (the server
 * always answers `Connection: close`).
 *
 * Writes use MSG_NOSIGNAL, so a client that disconnects mid-stream
 * surfaces as a failed write (EPIPE/ECONNRESET) instead of killing
 * the process — the daemon turns that into a cooperative sweep
 * cancellation.
 *
 * The client half serves the distributed coordinator (shard
 * dispatch, artifact uploads, health probes), the load generator and
 * the tests. Every request head is built by writeHttpRequest, and
 * every chunked body — a whole response or a shard's JSONL stream —
 * is decoded by one ChunkedReader.
 */

#ifndef ELFSIM_SERVICE_HTTP_HH
#define ELFSIM_SERVICE_HTTP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>

namespace elfsim {
namespace service {

/** Largest request body, response body or shard-stream line any
 *  reader here buffers (16 MiB). */
constexpr std::size_t kMaxBodyBytes = 16 * 1024 * 1024;

/** One parsed request (headers lower-cased). */
struct HttpRequest
{
    std::string method;
    std::string path;
    std::map<std::string, std::string> headers;
    std::string body;
};

/** One parsed response (client side; body de-chunked). */
struct HttpResponse
{
    int status = 0;
    std::map<std::string, std::string> headers;
    std::string body;
};

/** Bind + listen on host:port (port 0 = ephemeral); returns the
 *  listening fd. Throws IoError on failure. */
int listenTcp(const std::string &host, std::uint16_t port);

/** The port a listening socket actually bound (ephemeral binds). */
std::uint16_t boundPort(int fd);

/** Connect to host:port; returns the fd. Throws IoError. */
int connectTcp(const std::string &host, std::uint16_t port);

/** Write all of @a data (MSG_NOSIGNAL); false on any socket error. */
bool writeAll(int fd, std::string_view data);

/**
 * Read one request off @a fd. Returns false with @a err filled on
 * malformed framing or a closed connection; over-long requests
 * (> 16 MiB body) are rejected rather than buffered.
 */
bool readHttpRequest(int fd, HttpRequest &out, std::string &err);

/**
 * Write one request (head, then @a body) with `Host`, any extra
 * @a headers, `Content-Length` and `Connection: close` — the only
 * place a request head is built. False on any socket error.
 */
bool writeHttpRequest(int fd, const std::string &host,
                      const std::string &method, const std::string &path,
                      std::string_view body = {},
                      const std::map<std::string, std::string>
                          &headers = {});

/** Write a complete fixed-length response (Connection: close). */
bool writeHttpResponse(int fd, int status, std::string_view reason,
                       std::string_view contentType,
                       std::string_view body);

/**
 * Incremental chunked response: header() once, then any number of
 * write()s (each one chunk), then finish() (the terminating
 * zero-chunk). After the first failed write every later call is a
 * cheap no-op and failed() reports true — the caller polls it to
 * notice a client disconnect.
 */
class ChunkedResponse
{
  public:
    explicit ChunkedResponse(int fd) : fd(fd) {}

    bool header(int status, std::string_view reason,
                std::string_view contentType);
    bool write(std::string_view data);
    bool finish();

    bool failed() const { return bad; }

  private:
    int fd;
    bool bad = false;
};

/**
 * Append what one recv() on @a fd returns to @a raw; false with @a err
 * filled on an orderly close, a socket error or a receive timeout
 * (SO_RCVTIMEO). The socket half of a ChunkedReader::RawRead.
 */
bool recvInto(int fd, std::string &raw, std::string &err);

/**
 * Incremental decoder of a chunked (Transfer-Encoding: chunked) body,
 * behind both readHttpResponse and dist::ShardStream. Chunk sizes are
 * hex digits only and at most kMaxBodyBytes, a size line longer than
 * 64 bytes fails, and each chunk must be followed by CRLF; trailers
 * are ignored. read() hands back decoded bytes as they arrive, so a
 * bad CRLF fails the read *after* the chunk's bytes. There is no
 * total cap: each caller bounds what it accumulates.
 */
class ChunkedReader
{
  public:
    /** The raw-read step: append at least one more body byte to
     *  @a raw, or fill @a err and return false. Callers that inject
     *  network faults at raw-byte offsets wrap recvInto here. */
    using RawRead =
        std::function<bool(std::string &raw, std::string &err)>;

    /** @a initial holds body bytes already read past the head. */
    ChunkedReader(std::string initial, RawRead rawRead)
        : rawRead(std::move(rawRead)), raw(std::move(initial))
    {
    }

    /** Append the next decoded bytes to @a out. False at the end of
     *  the body, or on a framing or read error (failed()). */
    bool read(std::string &out);

    bool failed() const { return bad; }
    const std::string &error() const { return err; }

  private:
    bool fill();
    bool fail(std::string why);

    RawRead rawRead;
    std::string raw;          ///< undecoded bytes
    std::size_t pos = 0;      ///< decode position in raw
    std::size_t chunkLeft = 0; ///< data bytes of the current chunk due
    bool crlfDue = false;     ///< the current chunk's CRLF is next
    bool ended = false;       ///< terminating zero-size chunk seen
    bool bad = false;
    std::string err;
};

/**
 * Client convenience: one connect + request + response + close round
 * trip. Throws IoError when the server is unreachable or the
 * response is unparseable. @a headers adds extra request headers
 * (artifact uploads carry their metadata this way).
 */
HttpResponse httpFetch(const std::string &host, std::uint16_t port,
                       const std::string &method,
                       const std::string &path,
                       std::string_view body = {},
                       const std::map<std::string, std::string>
                           &headers = {});

/** Read + parse one response from an already-connected socket (the
 *  multi-request client path). Throws IoError on malformed data: a
 *  bad status line or header, a Content-Length that is not plain
 *  decimal within kMaxBodyBytes, a chunked body ChunkedReader
 *  rejects, or a body past kMaxBodyBytes. */
HttpResponse readHttpResponse(int fd);

/**
 * Read + parse only the status line and headers of a response,
 * leaving the body on the socket — the streaming-consumer path (the
 * distributed coordinator reads a shard's chunked JSONL body line by
 * line as cells complete, through dist::ShardStream). @a rest receives any body bytes already
 * buffered past the header block. Returns false with @a err filled
 * on a closed connection or malformed head.
 */
bool readHttpResponseHead(int fd, int &status,
                          std::map<std::string, std::string> &headers,
                          std::string &rest, std::string &err);

} // namespace service
} // namespace elfsim

#endif // ELFSIM_SERVICE_HTTP_HH
