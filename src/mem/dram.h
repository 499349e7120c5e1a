/**
 * @file
 * A small DRAM channel model in the spirit of the Rambus channels the
 * paper assumes (Section 5: eight channels, 16 GB/s total): per-bank
 * row buffers with activate/precharge/column timing. Used by the
 * access scheduler to derive sustained bandwidth for stream transfers.
 *
 * The column time is not part of the configured timing: the memory
 * system (mem/stream_mem.h) derives it from its aggregate peak
 * bandwidth and hands it to each channel, so the peak is the one leaf
 * that sets it.
 */
#ifndef SPS_MEM_DRAM_H
#define SPS_MEM_DRAM_H

#include <bit>
#include <cstddef>
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
    f("banks", t.banks);
    f("row_words", t.rowWords);
}

/**
 * Division of a non-negative address or count by a fixed positive
 * divisor: a shift and a mask when the divisor is a power of two (the
 * default channel count, bank count and row size all are), the
 * hardware divide otherwise. Exact either way; it saves the divides
 * the memory system makes once per transfer.
 */
class Divisor
{
  public:
    explicit Divisor(int64_t d = 1)
        : d_(d), shift_(std::has_single_bit(static_cast<uint64_t>(d))
                            ? std::countr_zero(static_cast<uint64_t>(d))
                            : -1)
    {
    }

    int64_t value() const { return d_; }
    int64_t quot(int64_t x) const
    {
        return shift_ >= 0 ? x >> shift_ : x / d_;
    }
    int64_t rem(int64_t x) const
    {
        return shift_ >= 0 ? x & (d_ - 1) : x % d_;
    }

  private:
    int64_t d_;
    /** log2(d_), or -1 when d_ is not a power of two. */
    int shift_;
};

/**
 * A channel-local word address decoded into the channel's DRAM
 * coordinates. Banks interleave at row granularity, so sequential
 * addresses fill a row, then move to the next bank, and wrap to the
 * next row index after the last bank.
 */
struct DramAddr
{
    int64_t row = 0;
    int bank = 0;
    /** Word within the row. */
    int col = 0;
};

/**
 * One DRAM channel: tracks open rows per bank and charges timing for
 * a request stream presented in service order. Requests arrive
 * decoded (decode() once, then step() to the following address), so
 * the per-request checks are a bank-table lookup and no division.
 */
class DramChannel
{
  public:
    /** `t_col` is the cycles per column (word) access once a row is
     *  open. Throws std::invalid_argument unless banks and rowWords
     *  are at least 1 (the geometry can come from a client's config). */
    explicit DramChannel(DramTiming timing = DramTiming{}, int t_col = 1);

    const DramTiming &timing() const { return timing_; }
    int tCol() const { return tCol_; }

    /** Decode a channel-local word address. */
    DramAddr decode(int64_t word_addr) const
    {
        int64_t rows = rowWords_.quot(word_addr);
        DramAddr a;
        a.col = static_cast<int>(word_addr - rows * timing_.rowWords);
        a.row = banks_.quot(rows);
        a.bank = static_cast<int>(rows - a.row * timing_.banks);
        return a;
    }

    /** Advance `a` to the next channel-local word address. */
    void step(DramAddr &a) const
    {
        if (++a.col == timing_.rowWords) {
            a.col = 0;
            if (++a.bank == timing_.banks) {
                a.bank = 0;
                ++a.row;
            }
        }
    }

    /** True if the request hits the currently open row of its bank. */
    bool isRowHit(const DramAddr &a) const
    {
        return openRow_[static_cast<std::size_t>(a.bank)] == a.row;
    }

    /** True if the request's bank has any row open (a miss here is a
     *  bank conflict: the open row must be precharged first). */
    bool isBankOpen(const DramAddr &a) const
    {
        return openRow_[static_cast<std::size_t>(a.bank)] >= 0;
    }

    /**
     * Cycles the channel's data pins would be busy servicing the
     * request now: row hits cost tCol; misses add precharge (when
     * another row is open) and activate time.
     */
    int cycles(const DramAddr &a) const
    {
        if (isRowHit(a))
            return tCol_;
        return tCol_ + (isBankOpen(a) ? timing_.tPre : 0) + timing_.tRas;
    }

    /** Service one request now, leaving its row open; returns
     *  cycles(a) as it was before the service. */
    int service(const DramAddr &a)
    {
        int c = cycles(a);
        openRow_[static_cast<std::size_t>(a.bank)] = a.row;
        return c;
    }

    /** Close all rows (e.g. between independent transfers). */
    void reset();

  private:
    DramTiming timing_;
    int tCol_;
    /** decode()'s divisors: the row size and the bank count. */
    Divisor rowWords_;
    Divisor banks_;
    std::vector<int64_t> openRow_; // -1 = closed
};

} // namespace sps::mem

#endif // SPS_MEM_DRAM_H
