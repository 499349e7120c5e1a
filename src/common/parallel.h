/**
 * @file
 * A persistent pool of worker threads executing index-space jobs
 * (forEach over [0, n)). This is the concurrency substrate of the
 * design-space evaluation engine (core::EvalEngine), whose pool the
 * VLSI sweeps borrow: results stay deterministic regardless of the
 * worker count because each index owns its output slot -- the pool
 * only changes *when* an index runs, never *what* it computes. There
 * is no process-wide pool of its own; the engine's is the one.
 */
#ifndef SPS_COMMON_PARALLEL_H
#define SPS_COMMON_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sps {

class ThreadPool
{
  public:
    /**
     * threads == 0 picks the hardware concurrency; threads == 1 runs
     * every job inline on the calling thread (the serial reference
     * configuration the equivalence tests compare against).
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Threads applied to a job: workers plus the calling thread. */
    int threadCount() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * Run fn(i) for every i in [0, n), blocking until all indices
     * complete. The calling thread participates in the work. Calls
     * made from inside a running job (nested parallelism) execute
     * inline to avoid deadlock. The first exception thrown by fn is
     * rethrown here after the job drains.
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn);

  private:
    void workerLoop();
    void drain(const std::function<void(size_t)> &fn, size_t n);

    std::vector<std::thread> workers_;

    /** Guards the job hand-off state below. */
    std::mutex mu_;
    std::condition_variable wake_;
    std::condition_variable done_;
    uint64_t generation_ = 0;
    int active_ = 0; ///< workers currently inside drain()
    bool stop_ = false;
    const std::function<void(size_t)> *fn_ = nullptr;
    size_t jobSize_ = 0;

    std::atomic<size_t> next_{0};
    std::atomic<size_t> completed_{0};

    std::mutex errorMu_;
    std::exception_ptr error_;

    /** Serializes concurrent forEach() callers. */
    std::mutex jobMu_;
};

} // namespace sps

#endif // SPS_COMMON_PARALLEL_H
