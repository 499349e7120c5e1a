#include "mem/dram.h"

#include <gtest/gtest.h>

namespace sps::mem {
namespace {

TEST(DramTest, SequentialAccessHitsOpenRow)
{
    DramChannel chan;
    DramAddr first = chan.decode(0);
    int cold = chan.service(first);
    EXPECT_GT(cold, chan.tCol()); // activate cost
    DramAddr second = chan.decode(1);
    EXPECT_TRUE(chan.isRowHit(second));
    EXPECT_EQ(chan.service(second), chan.tCol());
}

TEST(DramTest, RowMissPaysPrechargeAndActivate)
{
    DramChannel chan;
    chan.service(chan.decode(0));
    // Same bank, different row: addr + rowWords*banks.
    int64_t far = static_cast<int64_t>(chan.timing().rowWords) *
                  chan.timing().banks;
    DramAddr miss = chan.decode(far);
    EXPECT_FALSE(chan.isRowHit(miss));
    EXPECT_EQ(chan.service(miss), chan.tCol() +
                                      chan.timing().tPre +
                                      chan.timing().tRas);
}

TEST(DramTest, BanksInterleaveAtRowGranularity)
{
    DramChannel chan;
    int words = chan.timing().rowWords;
    EXPECT_EQ(chan.decode(0).bank, 0);
    EXPECT_EQ(chan.decode(words).bank, 1);
    EXPECT_EQ(chan.decode(2LL * words).bank, 2);
    EXPECT_EQ(chan.decode(static_cast<int64_t>(words) *
                          chan.timing().banks)
                  .bank,
              0);
}

TEST(DramTest, DifferentBanksKeepRowsOpenIndependently)
{
    DramChannel chan;
    int words = chan.timing().rowWords;
    chan.service(chan.decode(0));     // bank 0
    chan.service(chan.decode(words)); // bank 1
    // Bank 0's row is still open.
    EXPECT_TRUE(chan.isRowHit(chan.decode(1)));
    EXPECT_TRUE(chan.isRowHit(chan.decode(words + 1)));
}

TEST(DramTest, ResetClosesAllRows)
{
    DramChannel chan;
    chan.service(chan.decode(0));
    chan.reset();
    EXPECT_FALSE(chan.isRowHit(chan.decode(1)));
}

TEST(DramTest, StepMatchesDecodeOfNextAddress)
{
    // The memory system decodes a run's first address and steps
    // through the rest; stepping must land where decoding would,
    // across row and bank wraps and for row sizes that are not powers
    // of two.
    DramTiming t;
    t.banks = 3;
    t.rowWords = 7;
    DramChannel chan(t);
    DramAddr a = chan.decode(5);
    for (int64_t addr = 6; addr < 200; ++addr) {
        chan.step(a);
        DramAddr want = chan.decode(addr);
        EXPECT_EQ(a.row, want.row) << addr;
        EXPECT_EQ(a.bank, want.bank) << addr;
        EXPECT_EQ(a.col, want.col) << addr;
    }
    EXPECT_EQ(chan.decode(3 * 7 * 2 + 7 + 4).row, 2);
    EXPECT_EQ(chan.decode(3 * 7 * 2 + 7 + 4).bank, 1);
    EXPECT_EQ(chan.decode(3 * 7 * 2 + 7 + 4).col, 4);
}

} // namespace
} // namespace sps::mem
