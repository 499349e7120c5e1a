/**
 * @file
 * Strip-mining arithmetic: applications process one batch of the
 * dataset at a time so the working set fits in the SRF (Section 2.2:
 * "Programs are strip-mined so that the processor reads only one
 * batch of the input dataset at a time"). Workload builders use these
 * helpers to size batches per machine.
 */
#ifndef SPS_STREAM_STRIPMINE_H
#define SPS_STREAM_STRIPMINE_H

#include <cstdint>

#include "srf/srf.h"

namespace sps::stream {

/** A batching decision. */
struct BatchPlan
{
    int64_t recordsPerBatch = 0;
    int64_t batches = 0;
};

/**
 * Size batches for a working set of `words_per_record` SRF words per
 * processed record (inputs + outputs + intermediates, including
 * double-buffering if the caller wants overlap).
 *
 * @param total_records dataset size
 * @param words_per_record SRF words needed per in-flight record
 * @param srf the machine's SRF
 * @param align batch sizes are rounded to a multiple of this
 *        (usually the cluster count)
 * @param srf_fraction fraction of SRF capacity usable for data
 */
BatchPlan planBatches(int64_t total_records, int64_t words_per_record,
                      const srf::SrfModel &srf, int64_t align,
                      double srf_fraction = 0.9);

} // namespace sps::stream

#endif // SPS_STREAM_STRIPMINE_H
