#include "common/parallel.h"

namespace sps {

namespace {

/** True while this thread is executing indices of some pool job. */
thread_local bool tl_in_pool_job = false;

struct InJobScope
{
    bool saved;
    InJobScope() : saved(tl_in_pool_job) { tl_in_pool_job = true; }
    ~InJobScope() { tl_in_pool_job = saved; }
};

} // namespace

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw > 0 ? static_cast<int>(hw) : 1;
    }
    workers_.reserve(static_cast<size_t>(threads - 1));
    for (int i = 1; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::drain(const std::function<void(size_t)> &fn, size_t n)
{
    InJobScope scope;
    for (;;) {
        size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        try {
            fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMu_);
            if (!error_)
                error_ = std::current_exception();
        }
        if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            n) {
            std::lock_guard<std::mutex> lock(mu_);
            done_.notify_all();
        }
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        const std::function<void(size_t)> *fn = nullptr;
        size_t n = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            fn = fn_;
            n = jobSize_;
            ++active_;
        }
        drain(*fn, n);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--active_ == 0)
                done_.notify_all();
        }
    }
}

void
ThreadPool::forEach(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    // Inline paths: a serial pool, a nested call from inside a job
    // (parallelizing it could deadlock on jobMu_), or a single index.
    if (workers_.empty() || tl_in_pool_job || n == 1) {
        InJobScope scope;
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::lock_guard<std::mutex> job(jobMu_);
    {
        std::unique_lock<std::mutex> lock(mu_);
        // Wait out stragglers of the previous job: a worker that woke
        // late may still be inside drain() with the old job pointer.
        done_.wait(lock, [&] { return active_ == 0; });
        fn_ = &fn;
        jobSize_ = n;
        next_.store(0, std::memory_order_relaxed);
        completed_.store(0, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> elock(errorMu_);
            error_ = nullptr;
        }
        ++generation_;
    }
    wake_.notify_all();
    drain(fn, n);
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [&] {
            return completed_.load(std::memory_order_acquire) >= n;
        });
    }
    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> elock(errorMu_);
        err = error_;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace sps
