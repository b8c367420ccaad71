/**
 * @file
 * Simplified out-of-order back-end: rename/dispatch delay pipe, ROB,
 * issue queue with FU pools, load/store queue with speculative
 * memory disambiguation, and in-order commit.
 *
 * Renaming is idealized (the PRF bounds in-flight producers, WAR/WAW
 * never stall); dependencies flow through architectural registers via
 * a producer scoreboard that is rebuilt exactly on squash. Select is
 * event-driven: producers wake their consumers at completion, and
 * issue walks a ready bitmap over ROB slots in age order.
 */

#ifndef ELFSIM_BACKEND_BACKEND_HH
#define ELFSIM_BACKEND_BACKEND_HH

#include <functional>
#include <vector>

#include "backend/mem_dep.hh"
#include "cache/hierarchy.hh"
#include "common/queue.hh"
#include "common/types.hh"
#include "frontend/pipeline_types.hh"

namespace elfsim {

/** Back-end parameters (defaults = paper Table II). */
struct BackendParams
{
    unsigned robEntries = 256;
    unsigned iqEntries = 128;
    unsigned lsqEntries = 128;
    unsigned dispatchWidth = 8;  ///< fetch-through-rename width
    unsigned issueWidth = 9;
    unsigned commitWidth = 9;
    unsigned numAlu = 4;        ///< incl. the 2 mul/div-capable ones
    unsigned numMulDiv = 2;
    unsigned numLdSt = 2;
    unsigned numSimd = 2;
    unsigned numStData = 1;
    Cycle decodeToDispatch = 3;  ///< DEC -> IQ insertion (REN/REN/DISP)
    Cycle issueToExec = 3;       ///< issue selection -> EXE stage
    Cycle mulLatency = 3;
    Cycle divLatency = 12;
    Cycle fpLatency = 3;
};

/** Back-end statistics. */
struct BackendStats
{
    std::uint64_t committed = 0;        ///< committed instructions
    std::uint64_t committedBranches = 0;
    std::uint64_t condMispredicts = 0;  ///< committed direction misses
    std::uint64_t targetMispredicts = 0;
    std::uint64_t memOrderFlushes = 0;
    std::uint64_t robFullCycles = 0;
    std::uint64_t coupledCommitted = 0; ///< committed insts fetched in
                                        ///< coupled mode
};

/**
 * The out-of-order back-end. The core pushes decoded instructions in
 * program order; the back-end reports branch resolutions and memory
 * order violations as redirect requests and retires instructions
 * through a commit callback.
 */
class Backend
{
  public:
    /** Called once per committed instruction, in program order. */
    using CommitHook = std::function<void(const DynInst &)>;

    Backend(const BackendParams &params, MemHierarchy &mem,
            MemDepPredictor &mdp);

    /** @return true iff the back-end can accept @a n more insts. */
    bool canAccept(unsigned n) const;

    /** Accept one decoded instruction (program order). */
    void accept(DynInst di, Cycle now);

    /**
     * Advance one cycle: dispatch, issue, execute completions, and
     * commit. Branch mispredictions / order violations discovered
     * this cycle are merged into @a redirect if older than what it
     * already holds.
     */
    void tick(Cycle now, Redirect &redirect);

    /**
     * Squash every instruction younger than @a survivor_seq, rebuild
     * the producer scoreboard and unlink squashed consumers from the
     * surviving producers' wake lists.
     */
    void squashYoungerThan(SeqNum survivor_seq);

    /** Program-order scan of in-flight instructions (for history
     *  replay on flush). Includes the rename pipe. */
    template <typename Fn>
    void
    forEachInFlight(Fn &&fn) const
    {
        rob.forEach([&](const DynInst &di) { fn(di); });
        renamePipe.forEach([&](const DynInst &di) { fn(di); });
    }

    /** Set the commit callback. */
    void setCommitHook(CommitHook hook) { commitHook = std::move(hook); }

    /** @return true iff a redirect for @a seq may be applied now
     *  (ELF: checkpoint payload pending delays it unless the
     *  instruction reached the ROB head). */
    bool atRobHead(SeqNum seq) const;

    /** Mutable lookup across the ROB and the rename pipe (used to
     *  apply ELF prediction patches and pending-flush marks). */
    DynInst *findInFlightMutable(SeqNum seq);

    std::size_t robSize() const { return rob.size() + renamePipe.size(); }
    bool empty() const { return rob.empty() && renamePipe.empty(); }

    /** Oldest in-flight instruction, or nullptr. */
    const DynInst *robHead() const { return rob.empty() ? nullptr : &rob.front(); }
    std::size_t iqSize() const { return iqCount; }
    std::size_t lsqSize() const { return lsq.size(); }
    std::size_t renamePipeSize() const { return renamePipe.size(); }

    const BackendStats &stats() const { return st; }
    const BackendParams &config() const { return params; }

    /** Overwrite the cumulative statistics (warm-state restore; the
     *  pipeline itself is empty at every checkpoint boundary). */
    void restoreStats(const BackendStats &stats) { st = stats; }

  private:
    /**
     * LSQ entry: the instruction's seq plus its stable ROB ring
     * position — the O(1) seq→slot index that replaces a binary
     * search over the ROB. An LSQ entry leaves at commit or squash,
     * together with its ROB slot, so the position is always live.
     */
    struct SeqSlot
    {
        SeqNum seq = 0;
        std::uint32_t pos = 0;
    };

    /**
     * Scheduled completion of an issued instruction. Events are kept
     * in a min-heap on @a cycle so complete() touches only the
     * instructions finishing this cycle instead of scanning the whole
     * ROB. Squashes leave stale events behind; an event is validated
     * against the live ROB slot (position liveness + seq identity +
     * completeCycle) before it fires, so ghosts of squashed — or
     * squashed-and-replayed — instructions are simply dropped.
     */
    struct CompletionEvent
    {
        Cycle cycle = 0;
        SeqNum seq = 0;
        std::uint32_t pos = 0;
    };

    /** Heap comparator: std::*_heap max-heaps on it, so "later cycle
     *  sorts down" yields a min-heap on completion cycle. */
    static bool laterCycle(const CompletionEvent &a,
                           const CompletionEvent &b);

    void dispatch(Cycle now);
    void issue(Cycle now);
    void complete(Cycle now, Redirect &redirect);
    void commit(Cycle now);
    void wake(std::uint32_t producer_pos);
    void setReady(std::size_t pos);
    void clearReady(std::size_t pos);

    DynInst *findBySeq(SeqNum seq);
    const DynInst *findBySeq(SeqNum seq) const;
    Cycle execLatency(const DynInst &di, Cycle now);

    BackendParams params;
    MemHierarchy &mem;
    MemDepPredictor &mdp;
    CommitHook commitHook;

    BoundedQueue<DynInst> renamePipe; ///< decode -> dispatch delay
    BoundedQueue<DynInst> rob;        ///< program order, stable slots
    BoundedQueue<SeqSlot> lsq;        ///< loads+stores in flight

    /**
     * Wakeup state, indexed by ROB ring position and sized at
     * construction. Each consumer owns three link nodes (3 * pos + s:
     * sources 0 and 1, and s == 2 for the awaited store); a node is
     * linked onto its producer's list at dispatch iff that producer
     * had not completed. Lists run newest consumer first, so the
     * consumers a squash removes are always a prefix.
     */
    std::vector<std::int32_t> wakeHead;  ///< per producer slot, -1 = none
    std::vector<std::int32_t> wakeNext;  ///< per link node, -1 = end
    std::vector<std::uint8_t> pendingSrcs; ///< unresolved sources per slot
    /** Dispatched, unissued slots with every source resolved. */
    std::vector<std::uint64_t> readyBits;
    std::size_t iqCount = 0;             ///< dispatched and unissued

    /** Pending completions, min-heap on cycle (std::*_heap). */
    std::vector<CompletionEvent> compHeap;
    /** Events due this cycle, sorted to ROB (seq) order. Member so
     *  the per-tick batch never allocates in steady state. */
    std::vector<CompletionEvent> compDue;

    /** Producer scoreboard per architectural register: seq and ROB
     *  ring position of the last writer. */
    std::vector<SeqNum> lastProducer;
    std::vector<std::uint32_t> lastProducerPos;

    BackendStats st;
};

} // namespace elfsim

#endif // ELFSIM_BACKEND_BACKEND_HH
