#include <gtest/gtest.h>

#include "common/queue.hh"

using namespace elfsim;

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, FullAndFree)
{
    BoundedQueue<int> q(2);
    EXPECT_EQ(q.freeSlots(), 2u);
    q.push(1);
    q.push(2);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.freeSlots(), 0u);
}

TEST(BoundedQueue, WrapsAround)
{
    BoundedQueue<int> q(3);
    for (int round = 0; round < 10; ++round) {
        q.push(round);
        q.push(round + 100);
        EXPECT_EQ(q.pop(), round);
        EXPECT_EQ(q.pop(), round + 100);
    }
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, IndexedAccess)
{
    BoundedQueue<int> q(4);
    q.push(10);
    q.push(20);
    q.push(30);
    q.pop();
    q.push(40); // storage wrapped
    EXPECT_EQ(q.at(0), 20);
    EXPECT_EQ(q.at(1), 30);
    EXPECT_EQ(q.at(2), 40);
    EXPECT_EQ(q.front(), 20);
    EXPECT_EQ(q.back(), 40);
}

TEST(BoundedQueue, PopBackSquashesYoungest)
{
    BoundedQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.push(i);
    q.popBack(4);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.back(), 1);
    // Pushing after a squash reuses the space.
    q.push(99);
    EXPECT_EQ(q.back(), 99);
}

TEST(BoundedQueue, ClearEmpties)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push(7);
    EXPECT_EQ(q.front(), 7);
}

TEST(BoundedQueue, LowerBoundSeqAcrossWrap)
{
    struct Entry
    {
        unsigned seq;
    };
    BoundedQueue<Entry> q(4);
    EXPECT_EQ(lowerBoundSeq(q, 1u), 0u);
    q.push({1});
    q.push({2});
    q.dropFront();
    q.dropFront();
    for (unsigned s : {10u, 20u, 30u, 40u}) // wraps the ring
        q.push({s});
    EXPECT_EQ(lowerBoundSeq(q, 5u), 0u);
    EXPECT_EQ(lowerBoundSeq(q, 20u), 1u);
    EXPECT_EQ(lowerBoundSeq(q, 21u), 2u);
    EXPECT_EQ(lowerBoundSeq(q, 41u), 4u);
    ASSERT_NE(findSeqInQueue(q, 30u), nullptr);
    EXPECT_EQ(findSeqInQueue(q, 30u)->seq, 30u);
    EXPECT_EQ(findSeqInQueue(q, 31u), nullptr);
}
