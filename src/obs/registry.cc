#include "obs/registry.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/version.hh"
#include "support/logging.hh"

namespace lbp
{
namespace obs
{

void
Registry::checkFresh(const std::string &name, const void *self) const
{
    // A name must not exist under a different metric type.
    int holders = 0;
    if (counters_.count(name) &&
        static_cast<const void *>(&counters_) != self)
        ++holders;
    if (intGauges_.count(name) &&
        static_cast<const void *>(&intGauges_) != self)
        ++holders;
    if (gauges_.count(name) &&
        static_cast<const void *>(&gauges_) != self)
        ++holders;
    if (hists_.count(name) &&
        static_cast<const void *>(&hists_) != self)
        ++holders;
    LBP_ASSERT(holders == 0, "metric '", name,
               "' already registered with a different type");
}

Counter &
Registry::counter(const std::string &name)
{
    if (!counters_.count(name))
        checkFresh(name, &counters_);
    return counters_[name];
}

IntGauge &
Registry::intGauge(const std::string &name)
{
    if (!intGauges_.count(name))
        checkFresh(name, &intGauges_);
    return intGauges_[name];
}

Gauge &
Registry::gauge(const std::string &name)
{
    if (!gauges_.count(name))
        checkFresh(name, &gauges_);
    return gauges_[name];
}

Histogram &
Registry::histogram(const std::string &name)
{
    if (!hists_.count(name))
        checkFresh(name, &hists_);
    return hists_[name];
}

void
Registry::info(const std::string &name, const std::string &value)
{
    infos_[name] = value;
}

const Counter *
Registry::findCounter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
}

const std::string *
Registry::findInfo(const std::string &name) const
{
    auto it = infos_.find(name);
    return it == infos_.end() ? nullptr : &it->second;
}

bool
Registry::empty() const
{
    return counters_.empty() && intGauges_.empty() &&
           gauges_.empty() && hists_.empty() && infos_.empty();
}

Json
Registry::toJson() const
{
    Json root = Json::object();
    root.set("schema_version",
             Json::integer(kRegistrySchemaVersion));
    stampVersion(root);

    Json meta = Json::object();
    for (const auto &kv : infos_)
        meta.set(kv.first, Json::str(kv.second));
    root.set("meta", std::move(meta));

    // Merge the three scalar maps into one name-ordered object.
    Json metrics = Json::object();
    auto ci = counters_.begin();
    auto ii = intGauges_.begin();
    auto gi = gauges_.begin();
    while (ci != counters_.end() || ii != intGauges_.end() ||
           gi != gauges_.end()) {
        // Pick the lexicographically smallest pending name.
        const std::string *best = nullptr;
        int which = -1;
        if (ci != counters_.end()) {
            best = &ci->first;
            which = 0;
        }
        if (ii != intGauges_.end() &&
            (!best || ii->first < *best)) {
            best = &ii->first;
            which = 1;
        }
        if (gi != gauges_.end() && (!best || gi->first < *best)) {
            best = &gi->first;
            which = 2;
        }
        switch (which) {
          case 0:
            metrics.set(ci->first, Json::uinteger(ci->second.value()));
            ++ci;
            break;
          case 1:
            metrics.set(ii->first, Json::integer(ii->second.value()));
            ++ii;
            break;
          default:
            metrics.set(gi->first, Json::number(gi->second.value()));
            ++gi;
            break;
        }
    }
    root.set("metrics", std::move(metrics));

    Json hists = Json::object();
    for (const auto &kv : hists_) {
        Json h = Json::object();
        h.set("total", Json::number(kv.second.total()));
        h.set("mean", Json::number(kv.second.mean()));
        // Percentiles of a never-observed histogram are undefined,
        // not 0: serialize them as null so the diff gate's
        // NaN-poison rule flags any consumer that treats them as a
        // real observation.
        const bool empty = kv.second.bins().empty();
        auto pct = [&](double q) {
            return empty ? Json::null()
                         : Json::integer(kv.second.percentile(q));
        };
        h.set("p50", pct(0.50));
        h.set("p95", pct(0.95));
        h.set("p99", pct(0.99));
        Json bins = Json::array();
        for (const auto &bw : kv.second.bins()) {
            Json bin = Json::array();
            bin.push(Json::integer(bw.first));
            bin.push(Json::number(bw.second));
            bins.push(std::move(bin));
        }
        h.set("bins", std::move(bins));
        hists.set(kv.first, std::move(h));
    }
    root.set("histograms", std::move(hists));
    return root;
}

void
Registry::writeCsv(std::ostream &os) const
{
    os << "kind,name,value\n";
    for (const auto &kv : infos_)
        os << "info," << kv.first << "," << kv.second << "\n";
    for (const auto &kv : counters_)
        os << "counter," << kv.first << "," << kv.second.value()
           << "\n";
    for (const auto &kv : intGauges_)
        os << "intgauge," << kv.first << "," << kv.second.value()
           << "\n";
    for (const auto &kv : gauges_)
        os << "gauge," << kv.first << "," << kv.second.value() << "\n";
    for (const auto &kv : hists_) {
        // Undefined percentiles render as explicit null, never 0.
        auto pct = [&](double q) -> std::string {
            return kv.second.bins().empty()
                       ? "null"
                       : std::to_string(kv.second.percentile(q));
        };
        os << "histp50," << kv.first << "," << pct(0.50) << "\n";
        os << "histp95," << kv.first << "," << pct(0.95) << "\n";
        os << "histp99," << kv.first << "," << pct(0.99) << "\n";
        for (const auto &bw : kv.second.bins())
            os << "histbin," << kv.first << "." << bw.first << ","
               << bw.second << "\n";
    }
}

void
Registry::writeTable(std::ostream &os) const
{
    size_t w = 0;
    for (const auto &kv : counters_)
        w = std::max(w, kv.first.size());
    for (const auto &kv : intGauges_)
        w = std::max(w, kv.first.size());
    for (const auto &kv : gauges_)
        w = std::max(w, kv.first.size());
    const Json dump = toJson();
    const Json *metrics = dump.find("metrics");
    for (const auto &kv : metrics->members()) {
        os << std::left << std::setw(static_cast<int>(w) + 2)
           << kv.first << kv.second.dump() << "\n";
    }
    for (const auto &kv : hists_) {
        os << kv.first << "  histogram total=" << kv.second.total()
           << " mean=" << kv.second.mean();
        if (kv.second.bins().empty()) {
            os << " p50=null p95=null p99=null";
        } else {
            os << " p50=" << kv.second.percentile(0.50)
               << " p95=" << kv.second.percentile(0.95)
               << " p99=" << kv.second.percentile(0.99);
        }
        os << " max=" << kv.second.maxValue() << "\n";
    }
}

namespace
{

void
diffSection(const Json &a, const Json &b, const char *section,
            std::vector<DiffEntry> &out)
{
    const Json *sa = a.find(section);
    const Json *sb = b.find(section);
    static const Json kEmpty = Json::object();
    if (!sa)
        sa = &kEmpty;
    if (!sb)
        sb = &kEmpty;

    std::vector<std::string> keys;
    for (const auto &kv : sa->members())
        keys.push_back(kv.first);
    for (const auto &kv : sb->members())
        if (!sa->find(kv.first))
            keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());

    for (const auto &k : keys) {
        const Json *va = sa->find(k);
        const Json *vb = sb->find(k);
        // A NaN/inf metric is poison: it serializes as `null`, an
        // in-memory dump still holds the non-finite double, and NaN
        // never equals anything (itself included) — so either form
        // always diffs. Missing keys stay a distinct condition
        // ("<absent>").
        auto nonFinite = [](const Json *v) {
            if (!v)
                return false;
            if (v->kind() == Json::Kind::Null)
                return true;
            return v->isNumber() && !std::isfinite(v->asDouble());
        };
        const bool poison = nonFinite(va) || nonFinite(vb);
        if (va && vb && *va == *vb && !poison)
            continue;
        auto render = [&](const Json *v) {
            if (!v)
                return std::string("<absent>");
            if (nonFinite(v))
                return std::string("null (non-finite)");
            return v->dump();
        };
        DiffEntry d;
        d.key = k;
        d.a = render(va);
        d.b = render(vb);
        out.push_back(std::move(d));
    }
}

} // namespace

std::vector<DiffEntry>
diffRegistries(const Json &a, const Json &b)
{
    std::vector<DiffEntry> out;
    diffSection(a, b, "metrics", out);
    diffSection(a, b, "histograms", out);
    return out;
}

} // namespace obs
} // namespace lbp
