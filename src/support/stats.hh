/**
 * @file
 * Lightweight statistics helpers: weighted histograms and cumulative
 * distributions, used to reproduce the paper's Figure 3 CDFs and to
 * aggregate simulator counters.
 */

#ifndef LBP_SUPPORT_STATS_HH
#define LBP_SUPPORT_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lbp
{

/** A weighted histogram over integer bins. */
class Histogram
{
  public:
    /** Add @p weight observations of value @p v. */
    void add(std::int64_t v, double weight = 1.0);

    /** Total weight across all bins. */
    double total() const;

    /** Weighted mean; 0 if empty. */
    double mean() const;

    /** Largest observed value; 0 if empty. */
    std::int64_t maxValue() const;

    /** Fraction of weight at values <= v (a CDF sample point). */
    double cumulativeAt(std::int64_t v) const;

    /**
     * Weighted nearest-rank quantile: the smallest bin value whose
     * cumulative weight reaches q * total (q in [0, 1]). Empty
     * histograms yield 0.
     */
    std::int64_t percentile(double q) const;

    /**
     * Emit CDF rows (value, cumulative fraction) at each distinct
     * observed value.
     */
    std::vector<std::pair<std::int64_t, double>> cdf() const;

    const std::map<std::int64_t, double> &bins() const { return bins_; }

    bool empty() const { return bins_.empty(); }

  private:
    std::map<std::int64_t, double> bins_;
};

/** Render a fraction as a fixed-width percentage string. */
std::string pct(double fraction, int decimals = 1);

/** Render a double with fixed decimals. */
std::string fixed(double v, int decimals = 2);

/** Geometric mean of a vector of positive values; 0 if empty. */
double geomean(const std::vector<double> &vals);

} // namespace lbp

#endif // LBP_SUPPORT_STATS_HH
