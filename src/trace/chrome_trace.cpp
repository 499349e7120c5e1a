#include "trace/chrome_trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace sps::trace {

namespace {

/** Escape a string for inclusion in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeEvent(std::ostringstream &os, const TraceEvent &ev, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"name\":\"" << jsonEscape(ev.name) << "\",\"cat\":\""
       << jsonEscape(ev.cat) << "\",\"ph\":\"" << ev.phase
       << "\",\"ts\":" << ev.ts << ",\"pid\":0,\"tid\":" << ev.tid;
    if (ev.phase == 'X')
        os << ",\"dur\":" << ev.dur;
    if (ev.phase == 'b' || ev.phase == 'e')
        os << ",\"id\":" << ev.id;
    if (!ev.args.empty()) {
        os << ",\"args\":{";
        for (size_t i = 0; i < ev.args.size(); ++i) {
            if (i)
                os << ",";
            os << "\"" << jsonEscape(ev.args[i].first)
               << "\":" << ev.args[i].second;
        }
        os << "}";
    }
    os << "}";
}

} // namespace

std::string
toChromeJson(const Tracer &tracer)
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const auto &[tid, name] : tracer.trackNames()) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << tid << ",\"args\":{\"name\":\""
           << jsonEscape(name) << "\"}}";
    }
    for (const TraceEvent &ev : tracer.events())
        writeEvent(os, ev, first);
    os << "\n]}\n";
    return os.str();
}

bool
writeChromeTrace(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toChromeJson(tracer);
    return static_cast<bool>(out);
}

} // namespace sps::trace
