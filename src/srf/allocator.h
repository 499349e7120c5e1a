/**
 * @file
 * SRF space allocator: tracks which streams are resident in the SRF
 * during application execution. The strip-miner sizes batches so that
 * the working set fits; the allocator enforces that invariant at
 * simulation time and reports high-water occupancy.
 */
#ifndef SPS_SRF_ALLOCATOR_H
#define SPS_SRF_ALLOCATOR_H

#include <cstdint>
#include <vector>

#include "srf/srf.h"

namespace sps::srf {

/**
 * First-fit-free bump allocator over SRF capacity. Stream ids are a
 * program's dense stream indices, so residency is a flat table indexed
 * by id that grows to the largest id allocated; a negative id panics.
 */
class Allocator
{
  public:
    explicit Allocator(int64_t capacity_words)
        : capacity_(capacity_words)
    {}

    int64_t capacity() const { return capacity_; }
    int64_t used() const { return used_; }
    int64_t highWater() const { return highWater_; }

    /** True if `words` more would fit right now. */
    bool fits(int64_t words) const { return used_ + words <= capacity_; }

    /**
     * Reserve space for a stream; returns false (without side effects)
     * when the stream does not fit.
     */
    bool allocate(int64_t stream_id, int64_t words);

    /**
     * Reserve space even when over capacity (the simulator uses this
     * to keep running after warning about an overflow; highWater()
     * then exceeds capacity()).
     */
    void forceAllocate(int64_t stream_id, int64_t words);

    /** Release a stream's space; returns false and does nothing if it
     *  holds none. */
    bool release(int64_t stream_id);

    /** True if the stream currently holds SRF space (possibly 0 words). */
    bool resident(int64_t stream_id) const;

  private:
    /** live_ entry of a stream that holds no space. */
    static constexpr int64_t kAbsent = -1;

    /** The stream's words, or kAbsent; a negative id panics. */
    int64_t held(int64_t stream_id) const;
    /** Record `words` for a stream that holds no space. */
    void hold(int64_t stream_id, int64_t words);

    int64_t capacity_;
    int64_t used_ = 0;
    int64_t highWater_ = 0;
    /** Words held per stream id; kAbsent when not resident. */
    std::vector<int64_t> live_;
};

} // namespace sps::srf

#endif // SPS_SRF_ALLOCATOR_H
