/**
 * @file
 * Unit tests for the per-thread buffers behind every telemetry sink:
 * PerThread's attach order and single-instance rule, and BoundedLog's
 * cap, drop count and clear. Each test uses its own item type,
 * because a PerThread's thread pointer belongs to its type.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "telemetry/per_thread.hh"

using ariadne::telemetry::BoundedLog;
using ariadne::telemetry::PerThread;

namespace
{

struct DropItem
{
    int thread = 0;
    int seq = 0;
};

struct ClearItem
{
    int value = 0;
};

struct Slot
{
    int id = 0;
};

struct Twice
{
};

} // namespace

TEST(BoundedLog, KeepsEachThreadsFirstItemsAndCountsDrops)
{
    BoundedLog<DropItem, 4> log;
    auto pusher = [&log](int thread) {
        for (int seq = 0; seq < 6; ++seq)
            log.push(DropItem{thread, seq});
    };
    std::thread a(pusher, 1), b(pusher, 2);
    a.join();
    b.join();

    EXPECT_EQ(log.dropped(), 4u);
    std::vector<DropItem> items = log.items();
    ASSERT_EQ(items.size(), 8u);
    for (int thread : {1, 2}) {
        std::vector<int> seqs;
        for (const DropItem &item : items)
            if (item.thread == thread)
                seqs.push_back(item.seq);
        EXPECT_EQ(seqs, (std::vector<int>{0, 1, 2, 3})) << thread;
    }
}

TEST(BoundedLog, ClearEmptiesItemsAndDrops)
{
    BoundedLog<ClearItem, 4> log;
    for (int v = 0; v < 5; ++v)
        log.push(ClearItem{v});
    EXPECT_EQ(log.items().size(), 4u);
    EXPECT_EQ(log.dropped(), 1u);

    log.clear();
    EXPECT_TRUE(log.items().empty());
    EXPECT_EQ(log.dropped(), 0u);

    // The cap counts afresh after a clear.
    for (int v = 0; v < 4; ++v)
        log.push(ClearItem{v});
    EXPECT_EQ(log.items().size(), 4u);
    EXPECT_EQ(log.dropped(), 0u);
}

TEST(PerThread, ForEachVisitsOneSlotPerThreadInAttachOrder)
{
    PerThread<Slot> slots;
    Slot &mine = slots.local();
    mine.id = 1;
    for (int id : {2, 3}) {
        std::thread t([&slots, id] {
            slots.local().id = id;
            slots.local().id += 10; // the same slot on every call
        });
        t.join();
    }
    EXPECT_EQ(&slots.local(), &mine);

    std::vector<int> ids;
    slots.forEach([&](const Slot &s) { ids.push_back(s.id); });
    EXPECT_EQ(ids, (std::vector<int>{1, 12, 13}));
}

TEST(PerThreadDeath, SecondInstanceForOneTypePanics)
{
    PerThread<Twice> first;
    EXPECT_DEATH(PerThread<Twice>{}, "second PerThread");
}
