#include "obs/metrics.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/log.h"

namespace sps::obs {

uint64_t
MetricSample::quantile(double q) const
{
    if (count == 0 || buckets.empty())
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the target observation (1-based, ceil): the smallest
    // bucket whose cumulative count reaches it bounds the quantile.
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
    if (rank == 0)
        rank = 1;
    uint64_t cum = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        cum += buckets[i];
        if (cum >= rank)
            return Histogram::upperBound(static_cast<int>(i));
    }
    return Histogram::upperBound(static_cast<int>(buckets.size()) - 1);
}

const MetricSample *
MetricsSnapshot::find(const std::string &name,
                      const std::string &labels) const
{
    for (const auto &m : metrics)
        if (m.name == name && m.labels == labels)
            return &m;
    return nullptr;
}

int64_t
MetricsSnapshot::value(const std::string &name,
                       const std::string &labels) const
{
    const MetricSample *m = find(name, labels);
    return m ? m->value : 0;
}

MetricsRegistry::Entry *
MetricsRegistry::findOrNull(const std::string &name,
                            const std::string &labels, MetricKind kind)
{
    for (auto &e : entries_)
        if (e->name == name && e->labels == labels) {
            SPS_ASSERT(e->kind == kind,
                       "metric %s re-registered with a different kind",
                       name.c_str());
            return e.get();
        }
    return nullptr;
}

MetricsRegistry::Entry *
MetricsRegistry::add(const std::string &name, const std::string &labels,
                     const std::string &help, MetricKind kind)
{
    auto e = std::make_unique<Entry>();
    e->name = name;
    e->labels = labels;
    e->help = help;
    e->kind = kind;
    entries_.push_back(std::move(e));
    return entries_.back().get();
}

void
MetricsRegistry::expose(const std::string &name,
                        const std::string &labels,
                        const std::string &help, const Counter *c)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Entry *e = findOrNull(name, labels, MetricKind::Counter)) {
        SPS_ASSERT(e->c == c, "metric %s is already registered",
                   name.c_str());
        return;
    }
    add(name, labels, help, MetricKind::Counter)->c = c;
}

Gauge *
MetricsRegistry::gauge(const std::string &name,
                       const std::string &labels,
                       const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry *e = findOrNull(name, labels, MetricKind::Gauge);
    if (!e) {
        e = add(name, labels, help, MetricKind::Gauge);
        e->g = std::make_unique<Gauge>();
    }
    return e->g.get();
}

Histogram *
MetricsRegistry::histogram(const std::string &name,
                           const std::string &labels,
                           const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry *e = findOrNull(name, labels, MetricKind::Histogram);
    if (!e) {
        e = add(name, labels, help, MetricKind::Histogram);
        e->h = std::make_unique<Histogram>();
    }
    return e->h.get();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    snap.metrics.reserve(entries_.size());
    for (const auto &e : entries_) {
        MetricSample m;
        m.name = e->name;
        m.labels = e->labels;
        m.help = e->help;
        m.kind = e->kind;
        switch (e->kind) {
        case MetricKind::Counter:
            m.value = static_cast<int64_t>(e->c->value());
            break;
        case MetricKind::Gauge:
            m.value = e->g->value();
            break;
        case MetricKind::Histogram: {
            // Buckets first (acquire), then count/sum: observe() adds
            // to count before it releases the bucket, so every bucket
            // increment read here brings its count increment along,
            // and sum-of-buckets <= count holds in every snapshot.
            m.buckets.resize(Histogram::kBuckets);
            for (int i = 0; i < Histogram::kBuckets; ++i)
                m.buckets[static_cast<size_t>(i)] =
                    e->h->buckets_[i].load(std::memory_order_acquire);
            m.count = e->h->count();
            m.sum = e->h->sum();
            break;
        }
        }
        snap.metrics.push_back(std::move(m));
    }
    return snap;
}

size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

namespace {

void
appendSampleLine(std::string *out, const std::string &name,
                 const std::string &labels, const char *suffix,
                 const std::string &extraLabel, int64_t value)
{
    *out += name;
    *out += suffix;
    if (!labels.empty() || !extraLabel.empty()) {
        *out += '{';
        *out += labels;
        if (!labels.empty() && !extraLabel.empty())
            *out += ',';
        *out += extraLabel;
        *out += '}';
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, " %" PRId64 "\n", value);
    *out += buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

std::string
renderPrometheus(const MetricsSnapshot &snap)
{
    std::string out;
    std::string lastTyped; // emit HELP/TYPE once per metric family
    for (const auto &m : snap.metrics) {
        const char *type = m.kind == MetricKind::Counter ? "counter"
                           : m.kind == MetricKind::Gauge ? "gauge"
                                                         : "histogram";
        if (m.name != lastTyped) {
            if (!m.help.empty())
                out += "# HELP " + m.name + " " + m.help + "\n";
            out += "# TYPE " + m.name + " " + type + "\n";
            lastTyped = m.name;
        }
        if (m.kind != MetricKind::Histogram) {
            appendSampleLine(&out, m.name, m.labels, "", "", m.value);
            continue;
        }
        // Cumulative le-buckets; every histogram ends in +Inf whose
        // value equals _count (what the CI line-format check parses).
        uint64_t cum = 0;
        for (size_t i = 0; i < m.buckets.size(); ++i) {
            if (m.buckets[i] == 0 && i + 1 != m.buckets.size())
                continue; // sparse: zero buckets add nothing
            cum += m.buckets[i];
            std::string le;
            if (i + 1 == m.buckets.size()) {
                le = "le=\"+Inf\"";
                cum = m.count; // fold any in-flight count drift
            } else {
                char buf[40];
                std::snprintf(
                    buf, sizeof buf, "le=\"%" PRIu64 "\"",
                    Histogram::upperBound(static_cast<int>(i)));
                le = buf;
            }
            appendSampleLine(&out, m.name, m.labels, "_bucket", le,
                             static_cast<int64_t>(cum));
        }
        appendSampleLine(&out, m.name, m.labels, "_sum", "",
                         static_cast<int64_t>(m.sum));
        appendSampleLine(&out, m.name, m.labels, "_count", "",
                         static_cast<int64_t>(m.count));
    }
    return out;
}

std::vector<std::string>
counterLines(const MetricsSnapshot &snap)
{
    std::vector<std::string> lines;
    for (const auto &m : snap.metrics) {
        if (m.kind != MetricKind::Counter)
            continue;
        std::string line;
        appendSampleLine(&line, m.name, m.labels, "", "", m.value);
        line.pop_back(); // the newline
        lines.push_back(std::move(line));
    }
    return lines;
}

std::string
renderJson(const MetricsSnapshot &snap)
{
    std::string out = "{\n  \"metrics\": [";
    bool first = true;
    for (const auto &m : snap.metrics) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"name\": \"" + jsonEscape(m.name) + "\"";
        if (!m.labels.empty())
            out += ", \"labels\": \"" + jsonEscape(m.labels) + "\"";
        char buf[64];
        switch (m.kind) {
        case MetricKind::Counter:
        case MetricKind::Gauge:
            std::snprintf(buf, sizeof buf,
                          ", \"type\": \"%s\", \"value\": %" PRId64,
                          m.kind == MetricKind::Counter ? "counter"
                                                        : "gauge",
                          m.value);
            out += buf;
            break;
        case MetricKind::Histogram: {
            std::snprintf(buf, sizeof buf,
                          ", \"type\": \"histogram\", \"count\": %" PRIu64
                          ", \"sum\": %" PRIu64,
                          m.count, m.sum);
            out += buf;
            std::snprintf(buf, sizeof buf,
                          ", \"p50\": %" PRIu64 ", \"p95\": %" PRIu64
                          ", \"p99\": %" PRIu64,
                          m.quantile(0.50), m.quantile(0.95),
                          m.quantile(0.99));
            out += buf;
            out += ", \"buckets\": [";
            // Sparse pairs [upper_bound, count]; +Inf rides as -1.
            bool bfirst = true;
            for (size_t i = 0; i < m.buckets.size(); ++i) {
                if (m.buckets[i] == 0)
                    continue;
                if (!bfirst)
                    out += ", ";
                bfirst = false;
                if (i + 1 == m.buckets.size())
                    std::snprintf(buf, sizeof buf, "[-1, %" PRIu64 "]",
                                  m.buckets[i]);
                else
                    std::snprintf(
                        buf, sizeof buf, "[%" PRIu64 ", %" PRIu64 "]",
                        Histogram::upperBound(static_cast<int>(i)),
                        m.buckets[i]);
                out += buf;
            }
            out += "]";
            break;
        }
        }
        out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

uint64_t
monotonicMicros()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace sps::obs
