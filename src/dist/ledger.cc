#include "dist/ledger.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hh"
#include "common/export.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace elfsim {
namespace dist {

namespace {

constexpr const char *kLedgerSchema = "elfsim-ledger-v1";

void
dropOutstanding(std::vector<LeaseEvent> &outstanding, std::size_t index)
{
    outstanding.erase(
        std::remove_if(outstanding.begin(), outstanding.end(),
                       [index](const LeaseEvent &e)
                       { return e.index == index; }),
        outstanding.end());
}

} // namespace

void
writeLeaseLine(std::ostream &os, const LeaseEvent &e)
{
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("ledger", kLedgerSchema);
    w.field("event",
            e.kind == LeaseEvent::Kind::Lease ? "lease" : "expire");
    w.field("index", std::uint64_t(e.index));
    if (e.kind == LeaseEvent::Kind::Lease)
        w.field("key", e.key);
    w.field("worker", e.worker);
    if (e.kind == LeaseEvent::Kind::Lease)
        w.field("lease_seconds", e.leaseSeconds);
    if (e.hedge)
        w.field("hedge", true);
    w.endObject();
    os << '\n';
}

LedgerState
readLedger(std::istream &is)
{
    LedgerState state;
    ManifestReplay completed; // same policy as readManifest

    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        try {
            const json::Value doc = json::parse(line);
            if (const json::Value *schema = doc.find("ledger")) {
                if (schema->asString() != kLedgerSchema)
                    throw ParseError(
                        errorf("unknown ledger schema '%s'",
                               schema->asString().c_str()));
                LeaseEvent e;
                const std::string &event = doc.at("event").asString();
                e.index = std::size_t(doc.at("index").asU64());
                e.worker = doc.at("worker").asString();
                if (const json::Value *h = doc.find("hedge"))
                    e.hedge = h->asBool();
                if (event == "lease") {
                    e.kind = LeaseEvent::Kind::Lease;
                    e.key = doc.at("key").asString();
                    e.leaseSeconds = doc.at("lease_seconds").asU64();
                    ++state.leaseLines;
                    // Hedge lines never touch the outstanding set:
                    // the primary lease is the cell's scheduling
                    // truth, a hedge is a redundant racer.
                    if (e.hedge)
                        continue;
                    dropOutstanding(state.outstanding, e.index);
                    // An already-completed cell never goes back in
                    // flight: a re-lease after completion would be a
                    // writer bug, replay keeps the completion.
                    if (!completed.at.count(e.index))
                        state.outstanding.push_back(std::move(e));
                } else if (event == "expire") {
                    e.kind = LeaseEvent::Kind::Expire;
                    ++state.expireLines;
                    if (e.hedge)
                        continue;
                    dropOutstanding(state.outstanding, e.index);
                } else {
                    throw ParseError(errorf(
                        "unknown ledger event '%s'", event.c_str()));
                }
                continue;
            }

            // Anything else must be a manifest completion line.
            ManifestEntry e = manifestEntryFromJson(doc);
            dropOutstanding(state.outstanding, e.index);
            completed.add(std::move(e));
        } catch (const SimError &err) {
            ++state.skipped;
            ELFSIM_WARN("ledger line %zu skipped: %s", lineNo,
                        err.what());
        }
    }
    state.completed = std::move(completed.entries);
    return state;
}

} // namespace dist
} // namespace elfsim
