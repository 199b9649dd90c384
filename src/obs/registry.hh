/**
 * @file
 * Named, hierarchical metrics registry in the spirit of gem5's stat
 * registries: benches, tools, and tests publish counters into one
 * structure and share one serialization path (JSON with a versioned
 * schema, CSV for spreadsheets) instead of each binary hand-printing
 * its own fields.
 *
 * Hierarchy is by dotted name ("sim.loop.003.iterations"); metrics
 * are created on first access and iterate in name order, so dumps are
 * deterministic. Four metric types:
 *
 *  - Counter:  monotonically-accumulated uint64 (cycles, ops);
 *  - IntGauge: signed 64-bit level (deltas, addresses, return values);
 *  - Gauge:    double level (fractions, milliseconds, nanojoules);
 *  - Histogram: weighted integer-binned distribution
 *    (lbp::Histogram, support/stats.hh).
 *
 * Free-form string annotations ("info") carry identity metadata
 * (workload, engine, machine) and land in the dump's "meta" block.
 */

#ifndef LBP_OBS_REGISTRY_HH
#define LBP_OBS_REGISTRY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "support/stats.hh"

namespace lbp
{
namespace obs
{

/** Registry dump format version (bump on layout changes). History:
 *    1  meta/metrics/histograms sections
 *    2  adds the "git_sha" build-identity stamp (obs/version.hh)
 */
constexpr int kRegistrySchemaVersion = 2;

class Counter
{
  public:
    void inc(std::uint64_t d = 1) { v_ += d; }
    void set(std::uint64_t v) { v_ = v; }
    std::uint64_t value() const { return v_; }

  private:
    std::uint64_t v_ = 0;
};

class IntGauge
{
  public:
    void set(std::int64_t v) { v_ = v; }
    void add(std::int64_t d) { v_ += d; }
    std::int64_t value() const { return v_; }

  private:
    std::int64_t v_ = 0;
};

class Gauge
{
  public:
    void set(double v) { v_ = v; }
    void add(double d) { v_ += d; }
    double value() const { return v_; }

  private:
    double v_ = 0;
};

class Registry
{
  public:
    /** Find-or-create. A name is bound to one type for its lifetime. */
    Counter &counter(const std::string &name);
    IntGauge &intGauge(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** String annotation for the dump's "meta" block. */
    void info(const std::string &name, const std::string &value);

    /** Lookup without creation (nullptr when absent). */
    const Counter *findCounter(const std::string &name) const;
    const std::string *findInfo(const std::string &name) const;

    bool empty() const;

    /**
     * Serialize: {"schema_version", "meta": {...}, "metrics": {...},
     * "histograms": {...}}. Metric values keep their exact integer
     * width through obs::Json.
     */
    Json toJson() const;

    /** CSV rows: kind,name,value (histogram bins flattened). */
    void writeCsv(std::ostream &os) const;

    /** Human-oriented aligned table of every metric. */
    void writeTable(std::ostream &os) const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, IntGauge> intGauges_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> hists_;
    std::map<std::string, std::string> infos_;

    void checkFresh(const std::string &name, const void *self) const;
};

/** One differing key between two registry dumps. */
struct DiffEntry
{
    std::string key;
    std::string a;   ///< rendering in the first dump ("<absent>" if missing)
    std::string b;   ///< rendering in the second dump
};

/**
 * Field-by-field diff of two registry JSON dumps (as produced by
 * Registry::toJson or parsed back from disk). Compares the union of
 * "metrics" and "histograms" keys; "meta" and "git_sha" are identity,
 * not data, and are ignored. Returns differing keys in name order.
 *
 * Null policy: a non-finite gauge serializes as JSON `null`
 * (json.cc's writeDouble), and NaN never compares equal to anything —
 * including itself. A metric that is `null` in either dump is
 * therefore ALWAYS reported as a diff, even when both sides are
 * `null`, so a NaN can never silently pass a regression gate. A
 * missing key is a separate condition ("<absent>") and is reported as
 * such; the two are never conflated.
 */
std::vector<DiffEntry> diffRegistries(const Json &a, const Json &b);

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_REGISTRY_HH
