#include "dist/wire.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <sys/socket.h>

#include "common/error.hh"
#include "common/export.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "service/http.hh"

namespace elfsim {
namespace dist {

namespace {

constexpr const char *kShardSchema = "elfsim-shard-v1";

} // namespace

std::string
writeShardRequest(const SweepSpec &spec,
                  const std::vector<std::size_t> &cells)
{
    // Assembled by hand so the spec document keeps its canonical
    // writeSweepSpec() serialization: workers memoize grid expansion
    // on the exact spec text, and every chunk of one sweep must hit
    // that memo.
    std::ostringstream os;
    os << "{\"schema\":\"" << kShardSchema << "\",\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            os << ',';
        os << cells[i];
    }
    os << "],\"spec\":";
    writeSweepSpec(os, spec);
    os << "}";
    return os.str();
}

ShardRequest
parseShardRequest(std::string_view body)
{
    const json::Value doc = json::parse(body);
    if (doc.at("schema").asString() != kShardSchema)
        throw ParseError(errorf("unknown shard schema '%s'",
                                doc.at("schema").asString().c_str()));
    ShardRequest req;
    const json::Value &cells = doc.at("cells");
    req.cells.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        req.cells.push_back(std::size_t(cells[i].asU64()));
    req.spec = parseSweepSpec(doc.at("spec"));
    return req;
}

ShardLine
parseShardLine(const std::string &line)
{
    const json::Value doc = json::parse(line);
    ShardLine out;
    if (doc.find("manifest")) {
        if (doc.at("manifest").asString() != "elfsim-manifest-v1")
            throw ParseError("unknown manifest schema in shard stream");
        out.kind = ShardLine::Kind::Result;
        out.entry.index = std::size_t(doc.at("index").asU64());
        out.entry.key = doc.at("key").asString();
        out.entry.result = runResultFromJson(doc.at("result"));
        return out;
    }
    if (doc.at("shard").asString() != kShardSchema)
        throw ParseError("unknown shard-event schema");
    const std::string &event = doc.at("event").asString();
    if (event == "heartbeat") {
        out.kind = ShardLine::Kind::Heartbeat;
    } else if (event == "done") {
        out.kind = ShardLine::Kind::Done;
        out.cells = doc.at("cells").asU64();
    } else {
        throw ParseError(errorf("unknown shard event '%s'",
                                event.c_str()));
    }
    return out;
}

std::string
heartbeatLine()
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("shard", kShardSchema);
    w.field("event", "heartbeat");
    w.endObject();
    os << '\n';
    return os.str();
}

std::string
doneLine(std::uint64_t cells)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("shard", kShardSchema);
    w.field("event", "done");
    w.field("cells", cells);
    w.endObject();
    os << '\n';
    return os.str();
}

bool
ShardStream::fail(const char *why)
{
    bad = true;
    err = why;
    return false;
}

bool
ShardStream::fill()
{
    if (cutPending)
        return fail("connection closed mid-stream (injected cut)");
    // Compact the consumed prefix before growing the buffer.
    if (rawPos > 0) {
        raw.erase(0, rawPos);
        rawPos = 0;
    }
    char tmp[4096];
    for (;;) {
        const ssize_t r = ::recv(fd, tmp, sizeof tmp, 0);
        if (r < 0 && errno == EINTR)
            continue;
        if (r == 0)
            return fail("connection closed mid-stream");
        if (r < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return fail("receive timeout (lease expired)");
            return fail(std::strerror(errno));
        }
        std::size_t allow = std::size_t(r);
        if (worker != kNoWorker) {
            FaultInjector &inj = FaultInjector::instance();
            if (inj.armed())
                allow = inj.netTruncAllow(worker, rawSeen,
                                          std::size_t(r));
        }
        if (allow < std::size_t(r)) {
            // 'nettrunc' fired inside this read: deliver the prefix
            // up to the cut point, then fail the next refill as a
            // torn connection so a partial line can never parse.
            cutPending = true;
            if (allow == 0)
                return fail(
                    "connection closed mid-stream (injected cut)");
        }
        raw.append(tmp, allow);
        rawSeen += allow;
        return true;
    }
}

bool
ShardStream::nextLine(std::string &line)
{
    for (;;) {
        // Resume the newline search where the last one stopped: a
        // long line arrives over many refills.
        const std::size_t nl = out.find('\n', outScanned);
        if (nl == std::string::npos) {
            outScanned = out.size();
            if (out.size() > service::kMaxBodyBytes)
                return fail("shard line exceeds the body cap");
        } else {
            // A complete line is a "droppable event" for the netdrop
            // / nethb sites: the Nth delivered line is torn away with
            // the rest of the stream, exercising the same recovery as
            // a real mid-stream disconnect or heartbeat silence.
            if (worker != kNoWorker) {
                FaultInjector &inj = FaultInjector::instance();
                if (inj.armed()) {
                    switch (inj.netEventFault(worker)) {
                      case NetEventFault::Drop:
                        return fail("connection closed mid-stream "
                                    "(injected)");
                      case NetEventFault::Timeout:
                        return fail("receive timeout (lease expired) "
                                    "(injected)");
                      case NetEventFault::None:
                        break;
                    }
                }
            }
            line = out.substr(0, nl);
            out.erase(0, nl + 1);
            outScanned = 0;
            return true;
        }
        if (final_ || bad)
            return false;

        // De-chunk whatever is buffered; fill when it runs dry.
        if (skipCrlf > 0) {
            // The chunk's trailing CRLF, possibly split across reads.
            if (rawPos == raw.size()) {
                if (!fill())
                    return false;
                continue;
            }
            if (raw[rawPos] != "\r\n"[2 - skipCrlf])
                return fail("chunk not followed by CRLF");
            ++rawPos;
            --skipCrlf;
            continue;
        }
        if (chunkLeft > 0) {
            const std::size_t avail = raw.size() - rawPos;
            if (avail == 0) {
                if (!fill())
                    return false;
                continue;
            }
            const std::size_t n = std::min(chunkLeft, avail);
            out.append(raw, rawPos, n);
            rawPos += n;
            chunkLeft -= n;
            if (chunkLeft == 0)
                skipCrlf = 2;
            continue;
        }
        // At a chunk-size line ("<hex>\r\n").
        const std::size_t eol = raw.find("\r\n", rawPos);
        if (eol == std::string::npos) {
            if (raw.size() - rawPos > service::kMaxChunkSizeLine)
                return fail("malformed chunk-size line");
            if (!fill())
                return false;
            continue;
        }
        std::size_t n = 0;
        if (!service::parseChunkSize(
                std::string_view(raw).substr(rawPos, eol - rawPos), n))
            return fail("malformed chunk size");
        rawPos = eol + 2;
        if (n == 0) {
            final_ = true; // terminator; trailers are ignored
            continue;
        }
        chunkLeft = n;
    }
}

} // namespace dist
} // namespace elfsim
