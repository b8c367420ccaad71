/**
 * The FAQ-directed prefetch scan resumes from a memo instead of
 * rescanning the FAQ. These tests drive it and a full rescan (the
 * reference: the scan as it was before the memo existed) through
 * seeded random mixes of FAQ and L0I operations and require the same
 * first-absent index after every operation.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "common/random.hh"
#include "core/elf_controller.hh"
#include "frontend/faq.hh"

using namespace elfsim;

namespace {

/** Reference: oldest-to-youngest scan for the first queued block
 *  whose line is not in the L0I; faq.size() when every line is. */
std::size_t
rescanFirstAbsent(const Faq &faq, const Cache &l0i)
{
    for (std::size_t i = 0; i < faq.size(); ++i) {
        if (!l0i.present(faq.at(i).startPC))
            return i;
    }
    return faq.size();
}

constexpr Addr codeBase = 0x400000;
constexpr unsigned lineBytes = 64;
constexpr unsigned numLines = 8;   ///< code lines the sequences touch
constexpr unsigned lineInsts = lineBytes / instBytes;

/** 2 sets x 3 ways of 64B lines: 8 code lines, 4 per set, conflict. */
CacheParams
tinyL0i()
{
    CacheParams p;
    p.name = "l0i";
    p.sizeBytes = 2 * 3 * lineBytes;
    p.assoc = 3;
    p.lineBytes = lineBytes;
    p.hitLatency = 1;
    p.interleaves = 2;
    return p;
}

/** Any instruction address in one of the code lines. */
Addr
randomPc(Rng &rng)
{
    return codeBase + rng.below(numLines) * lineBytes +
           instsToBytes(rng.below(lineInsts));
}

FaqEntry
randomEntry(Rng &rng)
{
    FaqEntry e;
    e.startPC = randomPc(rng);
    e.numInsts = static_cast<std::uint8_t>(1 + rng.below(lineInsts));
    e.nextPC = e.startPC + instsToBytes(e.numInsts);
    return e;
}

void
runSequence(std::uint64_t seed, unsigned ops)
{
    Rng rng(seed);
    FixedLatencyMemory below("mem", 20);
    Cache l0i(tinyL0i(), &below);
    Faq faq(8);
    FaqPrefetchScan scan;
    std::optional<std::vector<std::uint8_t>> snapshot;
    Cycle now = 0;

    for (unsigned k = 0; k < ops; ++k) {
        now += 1 + rng.below(3);
        const std::uint64_t op = rng.below(100);
        if (op < 18) {
            if (!faq.full())
                faq.push(randomEntry(rng));
        } else if (op < 28) {
            if (!faq.empty())
                faq.pop();
        } else if (op < 31) {
            faq.clear();
        } else if (op < 41) {
            // ELF resynchronization: drop the head block's first n
            // instructions (crossing into the next line or not), and
            // pop it once nothing is left, as switchToDecoupled does.
            if (!faq.empty()) {
                const unsigned n =
                    1 + unsigned(rng.below(faq.front().numInsts));
                scan.advanceHead(faq, n);
                if (faq.front().numInsts == 0)
                    faq.pop();
            }
        } else if (op < 61) {
            // Demand fetch anywhere in a line: hits, in-flight hits and
            // misses whose fill evicts a queued block's line.
            l0i.access(randomPc(rng), false, now);
        } else if (op < 69) {
            l0i.prefetch(randomPc(rng), now);
        } else if (op < 84) {
            // What prefetchTick does with the scan's answer.
            const std::size_t i = scan.firstAbsent(faq, l0i);
            if (i < faq.size())
                l0i.prefetch(faq.at(i).startPC, now);
        } else if (op < 87) {
            l0i.invalidateAll();
        } else if (op < 93) {
            Serializer s;
            l0i.saveState(s);
            snapshot = s.data();
        } else if (snapshot) {
            Deserializer d(*snapshot);
            l0i.loadState(d);
        }

        ASSERT_EQ(scan.firstAbsent(faq, l0i), rescanFirstAbsent(faq, l0i))
            << "seed " << seed << ", operation " << k << " (kind " << op
            << "), FAQ size " << faq.size();
    }
}

} // namespace

TEST(FaqPrefetchScan, MatchesFullRescanOnRandomSequences)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        runSequence(seed, 4000);
        if (HasFatalFailure())
            return;
    }
}

TEST(FaqPrefetchScan, EmptyFaqAndAllPresent)
{
    FixedLatencyMemory below("mem", 20);
    Cache l0i(tinyL0i(), &below);
    Faq faq(4);
    FaqPrefetchScan scan;
    EXPECT_EQ(scan.firstAbsent(faq, l0i), 0u);

    FaqEntry e;
    e.numInsts = 4;
    for (Addr pc : {codeBase, codeBase + lineBytes}) {
        e.startPC = pc;
        faq.push(e);
    }
    EXPECT_EQ(scan.firstAbsent(faq, l0i), 0u);
    l0i.access(codeBase, false, 0);
    EXPECT_EQ(scan.firstAbsent(faq, l0i), 1u);
    l0i.access(codeBase + lineBytes, false, 1);
    EXPECT_EQ(scan.firstAbsent(faq, l0i), 2u);
    // Nothing changed: the memo answers without touching the cache.
    EXPECT_EQ(scan.firstAbsent(faq, l0i), 2u);
    faq.pop();
    EXPECT_EQ(scan.firstAbsent(faq, l0i), 1u);
}

TEST(FaqPrefetchScan, AdvanceIntoAnAbsentLineIsSeen)
{
    FixedLatencyMemory below("mem", 20);
    Cache l0i(tinyL0i(), &below);
    Faq faq(4);
    FaqPrefetchScan scan;

    FaqEntry e;
    e.startPC = codeBase + lineBytes - instBytes; // last inst of a line
    e.numInsts = 4;
    faq.push(e);
    l0i.access(e.startPC, false, 0);
    EXPECT_EQ(scan.firstAbsent(faq, l0i), 1u);

    // The head now starts in the next line, which is not cached; the
    // cache did not change, so only the advance can reveal it.
    scan.advanceHead(faq, 1);
    EXPECT_EQ(faq.front().startPC, codeBase + lineBytes);
    EXPECT_EQ(scan.firstAbsent(faq, l0i), 0u);
}
