#include "workload/oracle_stream.hh"

#include "workload/compiled_trace.hh"

namespace elfsim {

void
OracleGen::reset(const Program &prog)
{
    pc = prog.entryPC();
    // The call stack is capped at maxCallDepth; pre-sizing it keeps
    // deep call chains from growing the vector mid-simulation.
    callStack.clear();
    callStack.reserve(maxCallDepth);
    condCount.assign(prog.behaviors().numConds(), 0);
    indCount.assign(prog.behaviors().numIndirects(), 0);
    memCount.assign(prog.behaviors().numMems(), 0);
}

OracleInst
OracleGen::step(const Program &prog)
{
    const StaticInst *si = prog.instAt(pc);
    ELFSIM_ASSERT(si != nullptr,
                  "architectural path left the program image at 0x%llx",
                  (unsigned long long)pc);

    OracleInst oi;
    oi.si = si;
    Addr next = si->nextPC();

    if (si->isMemInst()) {
        const MemSpec &m = prog.behaviors().mem(si->behavior);
        oi.memAddr = m.address(memCount[si->behavior]++);
    }

    switch (si->branch) {
      case BranchKind::None:
        break;
      case BranchKind::CondDirect: {
        const CondSpec &c = prog.behaviors().cond(si->behavior);
        oi.taken = c.outcome(condCount[si->behavior]++);
        if (oi.taken)
            next = si->directTarget;
        break;
      }
      case BranchKind::UncondDirect:
        oi.taken = true;
        next = si->directTarget;
        break;
      case BranchKind::DirectCall:
        oi.taken = true;
        if (callStack.size() >= maxCallDepth)
            callStack.erase(callStack.begin());
        callStack.push_back(si->nextPC());
        next = si->directTarget;
        break;
      case BranchKind::IndirectJump: {
        const IndirectSpec &t = prog.behaviors().indirect(si->behavior);
        oi.taken = true;
        next = t.target(indCount[si->behavior]++);
        break;
      }
      case BranchKind::IndirectCall: {
        const IndirectSpec &t = prog.behaviors().indirect(si->behavior);
        oi.taken = true;
        if (callStack.size() >= maxCallDepth)
            callStack.erase(callStack.begin());
        callStack.push_back(si->nextPC());
        next = t.target(indCount[si->behavior]++);
        break;
      }
      case BranchKind::Return:
        oi.taken = true;
        if (callStack.empty()) {
            next = prog.entryPC();
        } else {
            next = callStack.back();
            callStack.pop_back();
        }
        break;
    }

    oi.nextPC = next;
    pc = next;
    return oi;
}

OracleStream::OracleStream(const Program &prog, std::size_t window_cap,
                           std::shared_ptr<const CompiledTrace> trace)
    : prog(prog), windowCap(window_cap), window(window_cap),
      trace(std::move(trace))
{
    gen.reset(prog);
    setAnchor();
}

OracleStream::~OracleStream() = default;

const OracleInst &
OracleStream::at(SeqNum idx)
{
    ELFSIM_ASSERT(idx >= baseIdx,
                  "oracle index %llu older than window base %llu",
                  (unsigned long long)idx, (unsigned long long)baseIdx);
    while (idx >= baseIdx + window.size())
        generateOne();
    return window.at(idx - baseIdx);
}

void
OracleStream::retireUpTo(SeqNum idx)
{
    while (!window.empty() && baseIdx <= idx) {
        window.dropFront();
        ++baseIdx;
    }
    if (window.empty() && baseIdx <= idx)
        baseIdx = idx + 1;
}

void
OracleStream::seekTo(SeqNum next_idx, const OracleGen *state)
{
    ELFSIM_ASSERT(window.empty(),
                  "oracle seek with %zu unretired instructions",
                  window.size());
    ELFSIM_ASSERT(next_idx >= 1, "oracle seek to index 0");
    const InstCount pos = next_idx - 1;
    baseIdx = next_idx;
    genCursor = pos;
    // Inside the compiled prefix the arrays are authoritative; the
    // generator re-adopts the trace end state at the edge.
    tailAdopted = false;
    if (trace && pos <= trace->size())
        return;
    if (state) {
        gen = *state;
    } else {
        ELFSIM_ASSERT(pos == 0, "oracle seek past the compiled prefix "
                                "needs a generator state");
        gen.reset(prog);
    }
    tailAdopted = trace != nullptr;
    setAnchor();
}

std::shared_ptr<const CompiledTrace>
OracleStream::compileNext(InstCount n)
{
    const InstCount pos = baseIdx - 1;
    ELFSIM_ASSERT(!trace || pos >= trace->size(),
                  "stream chunk inside the compiled prefix");
    CompiledTrace::Builder chunk(prog, n);
    InstCount fed = 0;
    if (window.size() <= n) {
        // The window (if any) is generated-ahead work of a detailed
        // run: reuse it, then keep stepping the live generator.
        window.forEach([&chunk](const OracleInst &oi) { chunk.add(oi); });
        fed = window.size();
        if (trace && !tailAdopted) {
            gen = trace->endState();
            tailAdopted = true;
        }
    } else {
        // The live generator already ran past the chunk end, which it
        // cannot rewind: replay from the anchor up to the chunk start.
        ELFSIM_ASSERT(anchorPos <= pos, "oracle anchor ahead of chunk");
        gen = anchor;
        for (InstCount i = anchorPos; i < pos; ++i)
            gen.step(prog);
    }
    while (!window.empty())
        window.dropFront();
    for (; fed < n; ++fed)
        chunk.add(gen.step(prog));
    baseIdx += n;
    genCursor = pos + n;
    setAnchor();
    return chunk.finish(gen);
}

void
OracleStream::setAnchor()
{
    anchor = gen;
    anchorPos = genCursor;
}

void
OracleStream::generateOne()
{
    ELFSIM_ASSERT(window.size() < windowCap,
                  "oracle window overflow (%zu insts unretired)",
                  window.size());

    if (trace) {
        if (genCursor < trace->size()) {
            // Hot path with a compiled backing store: four linear
            // reads from the shared immutable buffer, no spec
            // evaluation and no hashing.
            OracleInst oi;
            oi.si = &prog.instructions()[trace->siIndex(genCursor)];
            oi.taken = trace->taken(genCursor);
            oi.nextPC = trace->nextPC(genCursor);
            oi.memAddr = trace->memAddr(genCursor);
            window.push(oi);
            ++genCursor;
            return;
        }
        if (!tailAdopted) {
            // Fell off the compiled prefix (fetch runs a little ahead
            // of the instruction budget the trace was sized for):
            // resume the lazy generator from the trace's end state.
            gen = trace->endState();
            tailAdopted = true;
            setAnchor();
        }
    }

    window.push(gen.step(prog));
    ++genCursor;
}

} // namespace elfsim
