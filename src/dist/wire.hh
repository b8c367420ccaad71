/**
 * @file
 * Wire protocol of the distributed sweep layer (elfsim-shard-v1).
 *
 * A coordinator (dist/coordinator.hh) drives worker processes
 * (`elfsimd --worker`) over the same loopback HTTP/1.1 framing the
 * sweep service already speaks (service/http.hh). Three endpoints:
 *
 *   POST /shard           body = one shard request (below). The
 *                         worker responds 200 with a chunked JSONL
 *                         stream: one elfsim-manifest-v1 line per
 *                         completed cell (global index + jobKey +
 *                         full result), heartbeat event lines while
 *                         cells run, and a terminal "done" event.
 *   POST /artifact/trace  body = a raw elfsim-trace-v2 image
 *                         (CompiledTrace::serialized()); the
 *                         `x-elfsim-key` header carries the expected
 *                         content hash (16 hex digits) and
 *                         `x-elfsim-name` the display name. The
 *                         worker validates magic/key/size/checksum
 *                         and installs the trace into its TraceCache
 *                         memo — this is how each program compiles
 *                         once per fleet instead of once per host.
 *   POST /artifact/ckpt   body = a raw elfsim-ckpt-v1 file; the
 *                         `x-elfsim-name` header carries the target
 *                         file name. The worker drops it into its
 *                         checkpoint directory; the CheckpointStore's
 *                         own load path validates it (any defect
 *                         demotes to fast-forward, never a failure).
 *
 * Shard request document:
 *
 *   {"schema": "elfsim-shard-v1",
 *    "cells": [3, 4, 11],          // global grid indices to run
 *    "spec": { <elfsim-sweepspec-v1> }}
 *
 * Every worker expands the full spec (expansion is deterministic)
 * and runs only its cells with SweepRunner's subset-run path, so
 * global indices — and therefore seeds, jobKeys, and result bytes —
 * are identical to a single-process run of the whole grid.
 *
 * Shard response lines (JSONL; one JSON object per line):
 *
 *   {"manifest":"elfsim-manifest-v1","index":N,"key":"...",
 *    "status":"ok","result":{...}}               completed cell
 *   {"shard":"elfsim-shard-v1","event":"heartbeat"}      liveness
 *   {"shard":"elfsim-shard-v1","event":"done","cells":K} terminal
 *
 * Completed-cell lines reuse the resume-manifest schema verbatim:
 * the RunResult JSON round trip is byte-exact, which is what makes
 * the coordinator's merged output byte-identical to a local run.
 */

#ifndef ELFSIM_DIST_WIRE_HH
#define ELFSIM_DIST_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/http.hh"
#include "sim/export.hh"
#include "sim/sweep_spec.hh"

namespace elfsim {
namespace dist {

/** One parsed POST /shard request body. */
struct ShardRequest
{
    SweepSpec spec;
    std::vector<std::size_t> cells; ///< global grid indices to run
};

/** Serialize a shard request (the coordinator's send path). */
std::string writeShardRequest(const SweepSpec &spec,
                              const std::vector<std::size_t> &cells);

/** Parse a shard request body; throws ParseError / ConfigError. */
ShardRequest parseShardRequest(std::string_view body);

/** One parsed line of a shard response stream. */
struct ShardLine
{
    enum class Kind
    {
        Result,    ///< a completed cell (entry is valid)
        Heartbeat, ///< liveness tick
        Done,      ///< terminal event (cells = completed count)
    };

    Kind kind = Kind::Heartbeat;
    ManifestEntry entry;      ///< Result only
    std::uint64_t cells = 0;  ///< Done only
};

/** Parse one stream line; throws ParseError on junk. */
ShardLine parseShardLine(const std::string &line);

/** The heartbeat event line (newline-terminated). */
std::string heartbeatLine();

/** The terminal event line (newline-terminated). */
std::string doneLine(std::uint64_t cells);

/**
 * Incremental JSONL line reader over a shard's chunked response body
 * — the coordinator's receive path, where waiting for the whole body
 * would defeat both streaming merge and lease timeouts. The framing
 * is decoded by service::ChunkedReader; ShardStream only splits
 * lines, caps a pending line at service::kMaxBodyBytes, and hosts the
 * deterministic network fault sites.
 *
 * nextLine() returns false at the end of the stream; failed()
 * distinguishes the orderly terminal chunk from a torn connection
 * (worker death), a receive timeout (lease expiry) or bad framing —
 * each surfaces as failed() == true with error() filled. Lines of a
 * chunk are delivered before a bad CRLF after it fails the stream.
 */
class ShardStream
{
  public:
    /** Sentinel worker index: no fault-injection hooks. */
    static constexpr std::size_t kNoWorker = std::size_t(-1);

    /** @a fd stays owned by the caller; @a initial holds body bytes
     *  already read past the response head. @a worker identifies the
     *  peer for the deterministic network fault sites: 'nettrunc'
     *  counts raw socket bytes after @a initial, framing included;
     *  'netdrop' / 'nethb' count delivered lines. kNoWorker disables
     *  injection. */
    ShardStream(int fd, std::string initial,
                std::size_t worker = kNoWorker);

    ShardStream(const ShardStream &) = delete;
    ShardStream &operator=(const ShardStream &) = delete;

    bool nextLine(std::string &line);

    bool failed() const { return bad || body.failed(); }
    const std::string &error() const
    {
        return bad ? err : body.error();
    }

  private:
    bool rawRead(std::string &raw, std::string &why);
    bool fail(const char *why);

    int fd;
    std::size_t worker;         ///< peer index for fault injection
    std::uint64_t rawSeen = 0;  ///< raw bytes delivered ('nettrunc')
    bool cutPending = false;    ///< injected truncation fired
    service::ChunkedReader body;
    std::string out;            ///< decoded bytes pending '\n'
    std::size_t outScanned = 0; ///< prefix of out known '\n'-free
    bool bad = false;           ///< failed here, not in the framing
    std::string err;
};

} // namespace dist
} // namespace elfsim

#endif // ELFSIM_DIST_WIRE_HH
