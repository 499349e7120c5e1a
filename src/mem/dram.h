/**
 * @file
 * A small DRAM channel model in the spirit of the Rambus channels the
 * paper assumes (Section 5: eight channels, 16 GB/s total): per-bank
 * row buffers with activate/precharge/column timing. Used by the
 * access scheduler to derive sustained bandwidth for stream transfers.
 */
#ifndef SPS_MEM_DRAM_H
#define SPS_MEM_DRAM_H

#include <cstdint>
#include <vector>

#include "common/fields.h"

namespace sps::mem {

/** Timing parameters of one DRAM channel (cycles at the core clock). */
struct DramTiming
{
    /** Cycles to activate a row (RAS). */
    int tRas = 8;
    /** Cycles to precharge a bank. */
    int tPre = 6;
    /** Cycles per column (word) access once the row is open. */
    int tCol = 1;
    /** Banks per channel. */
    int banks = 8;
    /** Words per row. */
    int rowWords = 512;
};

template <FieldsOf<DramTiming> S, typename F>
void
forEachField(S &t, F &&f)
{
    f("t_ras", t.tRas);
    f("t_pre", t.tPre);
    f("t_col", t.tCol);
    f("banks", t.banks);
    f("row_words", t.rowWords);
}

/** One memory request: a word address (word granularity). */
struct MemRequest
{
    int64_t wordAddr = 0;
    bool write = false;
};

/**
 * One DRAM channel: tracks open rows per bank and charges timing for
 * a request stream presented in service order. Counts row hits and
 * misses so the memory system can report row-hit rate.
 */
class DramChannel
{
  public:
    explicit DramChannel(DramTiming timing = DramTiming{});

    const DramTiming &timing() const { return timing_; }

    int bankOf(int64_t word_addr) const;
    int64_t rowOf(int64_t word_addr) const;

    /** True if the request hits the currently open row of its bank. */
    bool isRowHit(const MemRequest &req) const;

    /** True if the request's bank has any row open (a miss here is a
     *  bank conflict: the open row must be precharged first). */
    bool isBankOpen(const MemRequest &req) const;

    /**
     * Service one request now; returns the cycles the channel's data
     * pins are busy (row hits cost tCol; misses add precharge and
     * activate time).
     */
    int service(const MemRequest &req);

    /** Requests serviced that hit an open row. */
    int64_t rowHits() const { return rowHits_; }

    /** Requests serviced that missed (activate, maybe precharge). */
    int64_t rowMisses() const { return rowMisses_; }

    /** Close all rows (e.g. between independent transfers); the
     *  hit/miss counters keep accumulating across resets. */
    void reset();

  private:
    DramTiming timing_;
    std::vector<int64_t> openRow_; // -1 = closed
    int64_t rowHits_ = 0;
    int64_t rowMisses_ = 0;
};

} // namespace sps::mem

#endif // SPS_MEM_DRAM_H
