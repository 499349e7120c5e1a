#include "sched/schedule_cache.h"

#include "common/fnv.h"
#include "kernel/fingerprint.h"
#include "store/result_store.h"

namespace sps::sched {

uint64_t
machineConfigHash(const MachineModel &m)
{
    Fnv f;
    f.mix(static_cast<uint64_t>(m.size().clusters));
    f.mix(static_cast<uint64_t>(m.size().alusPerCluster));
    // Every class with issue slots, in enum order.
    for (int c = 0; c < static_cast<int>(isa::FuClass::None); ++c)
        f.mix(static_cast<uint64_t>(
            m.unitCount(static_cast<isa::FuClass>(c))));
    f.mix(static_cast<uint64_t>(m.intraExtraStages()));
    f.mix(static_cast<uint64_t>(m.commLatency()));
    return f.h;
}

uint64_t
kernelFingerprint(const kernel::Kernel &k)
{
    return kernel::fingerprint(k);
}

uint64_t
compileOptionsHash()
{
    Fnv f;
    f.mix(static_cast<uint64_t>(kUnrollFactors.size()));
    for (int u : kUnrollFactors)
        f.mix(static_cast<uint64_t>(u));
    f.mix(static_cast<uint64_t>(kMaxUnrolledOps));
    return f.h;
}

const CompiledKernel &
ScheduleCache::get(const kernel::Kernel &k, const MachineModel &m)
{
    Key key{kernelFingerprint(k), machineConfigHash(m)};
    std::shared_ptr<Entry> entry;
    store::ResultStore *disk = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &slot = map_[key];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
        disk = store_;
    }
    // Compile outside the map lock so distinct keys compile in
    // parallel; call_once makes concurrent same-key requests block on
    // the single winner. The winner consults the disk tier first: a
    // verified store entry decodes instead of compiling, and a fresh
    // compilation is written back for future processes.
    enum { kMemory, kCompiled, kDisk } outcome = kMemory;
    std::call_once(entry->once, [&] {
        store::Key skey{store::Kind::Schedule, key.kernelHash,
                        key.machineHash, compileOptionsHash()};
        if (disk && disk->loadSchedule(skey, &entry->ck)) {
            outcome = kDisk;
            return;
        }
        uint64_t t0 = obs::monotonicMicros();
        try {
            std::shared_ptr<const PlanEntry> plan =
                planFor(k, key.kernelHash);
            entry->ck = compileKernel(k, plan->plan, m);
        } catch (...) {
            entry->error = std::current_exception();
            return;
        }
        if (obs::Histogram *h =
                compileUs_.load(std::memory_order_relaxed))
            h->observe(obs::monotonicMicros() - t0);
        outcome = kCompiled;
        if (disk)
            disk->storeSchedule(skey, entry->ck);
    });
    if (entry->error)
        std::rethrow_exception(entry->error);
    switch (outcome) {
    case kCompiled:
        misses_.inc();
        break;
    case kDisk:
        diskHits_.inc();
        break;
    case kMemory:
        hits_.inc();
        break;
    }
    return entry->ck;
}

std::shared_ptr<const ScheduleCache::PlanEntry>
ScheduleCache::planFor(const kernel::Kernel &k, uint64_t kernel_hash)
{
    std::shared_ptr<PlanEntry> entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &slot = plans_[kernel_hash];
        if (!slot)
            slot = std::make_shared<PlanEntry>();
        entry = slot;
    }
    std::call_once(entry->once, [&] {
        try {
            entry->plan = planKernel(k);
        } catch (...) {
            entry->error = std::current_exception();
        }
    });
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry;
}

void
ScheduleCache::attachStore(store::ResultStore *s)
{
    std::lock_guard<std::mutex> lock(mu_);
    store_ = s;
}

void
ScheduleCache::attachMetrics(obs::MetricsRegistry *registry)
{
    if (!registry) {
        compileUs_.store(nullptr, std::memory_order_relaxed);
        return;
    }
    compileUs_.store(
        registry->histogram("sps_sched_compile_duration_us", "",
                            "Kernel compilation latency (us)"),
        std::memory_order_relaxed);
    registry->expose("sps_sched_cache_hits", "",
                     "Schedule cache in-memory hits", &hits_);
    registry->expose("sps_sched_cache_disk_hits", "",
                     "Schedules decoded from the result store",
                     &diskHits_);
    registry->expose("sps_sched_cache_compiles", "",
                     "Kernel schedules compiled", &misses_);
}

ScheduleCache::Counters
ScheduleCache::counters() const
{
    return Counters{hits_.value(), misses_.value(), diskHits_.value()};
}

size_t
ScheduleCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

void
ScheduleCache::clear()
{
    PlanMap plans; // freed after the lock is released
    std::lock_guard<std::mutex> lock(mu_);
    // Retire the map instead of destroying it: entries (and the
    // CompiledKernel references handed out from them) stay alive
    // until the cache itself is destroyed, so clear() cannot race
    // in-flight get() calls or invalidate outstanding references.
    retired_.push_back(std::move(map_));
    map_ = Map{};
    // A compile in flight holds its own plan.
    plans.swap(plans_);
    hits_.reset();
    misses_.reset();
    diskHits_.reset();
}

ScheduleCache &
ScheduleCache::global()
{
    static ScheduleCache cache;
    return cache;
}

} // namespace sps::sched
