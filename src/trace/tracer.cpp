#include "trace/tracer.h"

namespace sps::trace {

void
Tracer::complete(std::string cat, std::string name, int64_t start,
                 int64_t end, int tid, std::vector<TraceArg> args)
{
    TraceEvent ev;
    ev.name = std::move(name);
    ev.cat = std::move(cat);
    ev.phase = 'X';
    ev.ts = start;
    ev.dur = end - start;
    ev.tid = tid;
    ev.args = std::move(args);
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(ev));
}

void
Tracer::span(std::string cat, std::string name, int64_t start,
             int64_t end, int64_t id, int tid,
             std::vector<TraceArg> args)
{
    TraceEvent begin;
    begin.name = name;
    begin.cat = cat;
    begin.phase = 'b';
    begin.ts = start;
    begin.tid = tid;
    begin.id = id;
    begin.args = std::move(args);
    TraceEvent finish;
    finish.name = std::move(name);
    finish.cat = std::move(cat);
    finish.phase = 'e';
    finish.ts = end;
    finish.tid = tid;
    finish.id = id;
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(begin));
    events_.push_back(std::move(finish));
}

void
Tracer::counter(std::string name, int64_t ts, int64_t value)
{
    TraceEvent ev;
    ev.name = std::move(name);
    ev.cat = "counter";
    ev.phase = 'C';
    ev.ts = ts;
    ev.tid = kTrackSrf;
    ev.args.emplace_back("value", value);
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(ev));
}

void
Tracer::setTrackName(int tid, std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    trackNames_[tid] = std::move(name);
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::map<int, std::string>
Tracer::trackNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return trackNames_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
}

} // namespace sps::trace
