/**
 * @file
 * In-memory span recorder for the benchmark's traced run. A span
 * brackets one call into a layer's public entry point from the
 * benchmark's own code: name, start, end, the span that caused it,
 * and the id of the configuration it belongs to. Spans stay in memory
 * until the run ends; selfTimes() then charges every span its
 * duration minus the part its children cover.
 *
 * When the recorder is disabled a ScopedSpan is a single predicted
 * branch, so the untraced end-to-end run records no spans.
 */

#ifndef LBP_PERFBENCH_SPANS_HH
#define LBP_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = nullptr; ///< static string: the layer
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;   ///< index into the span list
    std::int32_t config = -1;   ///< shared by all spans of a config
};

class SpanRecorder
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Start a new configuration: later spans carry its id. */
    void nextConfig() { ++config_; }

    int open(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.config = config_;
        s.startNs = nowNs();
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int idx)
    {
        spans_[static_cast<size_t>(idx)].endNs = nowNs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span (duration minus children), in ns. */
    std::vector<std::int64_t> selfTimes() const
    {
        std::vector<std::int64_t> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].endNs - spans_[i].startNs;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<size_t>(s.parent)] -=
                    s.endNs - s.startNs;
        return self;
    }

    /** Write every span as one JSON object per line. */
    bool write(const char *path) const
    {
        std::FILE *f = std::fopen(path, "w");
        if (!f)
            return false;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"id\":%zu,\"name\":\"%s\",\"config\":%d,"
                         "\"parent\":%d,\"start_ns\":%lld,"
                         "\"end_ns\":%lld}\n",
                         i, s.name, s.config, s.parent,
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs));
        }
        return std::fclose(f) == 0;
    }

  private:
    bool enabled_ = false;
    std::int32_t config_ = -1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; no-op while the recorder is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &r, const char *name)
        : r_(r), idx_(r.enabled() ? r.open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (idx_ >= 0)
            r_.close(idx_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &r_;
    int idx_;
};

} // namespace perfbench

#endif // LBP_PERFBENCH_SPANS_HH
