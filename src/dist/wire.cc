#include "dist/wire.hh"

#include <sstream>
#include <utility>

#include "common/error.hh"
#include "common/export.hh"
#include "common/fault.hh"
#include "common/json.hh"

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

ShardStream::ShardStream(int fd, std::string initial,
                         std::size_t worker)
    : fd(fd), worker(worker),
      body(std::move(initial), [this](std::string &raw,
                                      std::string &why) {
          return rawRead(raw, why);
      })
{
}

bool
ShardStream::fail(const char *why)
{
    bad = true;
    err = why;
    return false;
}

bool
ShardStream::rawRead(std::string &raw, std::string &why)
{
    if (cutPending) {
        why = "connection closed mid-stream (injected cut)";
        return false;
    }
    const std::size_t before = raw.size();
    if (!service::recvInto(fd, raw, why))
        return false;
    const std::size_t got = raw.size() - before;
    std::size_t allow = got;
    if (worker != kNoWorker) {
        FaultInjector &inj = FaultInjector::instance();
        if (inj.armed())
            allow = inj.netTruncAllow(worker, rawSeen, got);
    }
    if (allow < got) {
        // 'nettrunc' fired inside this read: deliver the prefix up to
        // the cut point, then fail the next read as a torn connection
        // so a partial line can never parse.
        cutPending = true;
        raw.resize(before + allow);
        if (allow == 0) {
            why = "connection closed mid-stream (injected cut)";
            return false;
        }
    }
    rawSeen += allow;
    return true;
}

bool
ShardStream::nextLine(std::string &line)
{
    for (;;) {
        // Resume the newline search where the last one stopped: a
        // long line arrives over many reads.
        const std::size_t nl = out.find('\n', outScanned);
        if (nl != std::string::npos) {
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
        outScanned = out.size();
        if (out.size() > service::kMaxBodyBytes)
            return fail("shard line exceeds the body cap");
        if (bad || !body.read(out))
            return false;
    }
}

} // namespace dist
} // namespace elfsim
