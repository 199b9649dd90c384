#include "support/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/logging.hh"

namespace lbp
{

void
Histogram::add(std::int64_t v, double weight)
{
    bins_[v] += weight;
}

double
Histogram::total() const
{
    double t = 0;
    for (const auto &[v, w] : bins_)
        t += w;
    return t;
}

double
Histogram::mean() const
{
    double t = 0, acc = 0;
    for (const auto &[v, w] : bins_) {
        t += w;
        acc += static_cast<double>(v) * w;
    }
    return t > 0 ? acc / t : 0.0;
}

std::int64_t
Histogram::maxValue() const
{
    return bins_.empty() ? 0 : bins_.rbegin()->first;
}

double
Histogram::cumulativeAt(std::int64_t v) const
{
    const double t = total();
    if (t <= 0)
        return 0.0;
    double acc = 0;
    for (const auto &[val, w] : bins_) {
        if (val > v)
            break;
        acc += w;
    }
    return acc / t;
}

std::int64_t
Histogram::percentile(double q) const
{
    if (bins_.empty())
        return 0;
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * total();
    double cum = 0;
    for (const auto &[val, w] : bins_) {
        cum += w;
        if (cum >= target)
            return val;
    }
    return bins_.rbegin()->first;
}

std::vector<std::pair<std::int64_t, double>>
Histogram::cdf() const
{
    std::vector<std::pair<std::int64_t, double>> rows;
    const double t = total();
    double acc = 0;
    for (const auto &[val, w] : bins_) {
        acc += w;
        rows.emplace_back(val, t > 0 ? acc / t : 0.0);
    }
    return rows;
}

std::string
pct(double fraction, int decimals)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(decimals);
    os << fraction * 100.0 << "%";
    return os.str();
}

std::string
fixed(double v, int decimals)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(decimals);
    os << v;
    return os.str();
}

double
geomean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0.0;
    double acc = 0;
    for (double v : vals) {
        LBP_ASSERT(v > 0, "geomean of non-positive value");
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(vals.size()));
}

} // namespace lbp
