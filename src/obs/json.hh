/**
 * @file
 * Minimal JSON document model for the observability layer: one value
 * type that every emitter (registry dumps, bench results, Chrome
 * traces) builds and one writer/parser pair so serialization lives in
 * exactly one place. Integer values are kept as 64-bit integers end
 * to end — checksums and cycle counters must round-trip exactly, not
 * through a double.
 *
 * Objects preserve insertion order (emitters control their layout);
 * lookup is linear, which is fine at registry-dump sizes.
 */

#ifndef LBP_OBS_JSON_HH
#define LBP_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace lbp
{
namespace obs
{

class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,    ///< int64 payload
        Uint,   ///< uint64 payload (values above int64 max)
        Double,
        String,
        Array,
        Object,
    };

    Json() = default;

    static Json null() { return Json(); }
    static Json boolean(bool v);
    static Json integer(std::int64_t v);
    static Json uinteger(std::uint64_t v);
    static Json number(double v);
    static Json str(std::string v);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Uint ||
               kind_ == Kind::Double;
    }

    bool asBool() const { return b_; }
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    double asDouble() const;
    const std::string &asString() const { return s_; }

    /** Array access. */
    void push(Json v);
    const std::vector<Json> &items() const { return arr_; }

    /** Object access. `set` replaces an existing key in place. */
    void set(const std::string &key, Json v);
    const Json *find(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &members() const
    { return obj_; }

    /**
     * Deep structural equality. Numbers compare by value across
     * Int/Uint (a Double only equals a Double).
     */
    bool operator==(const Json &o) const;
    bool operator!=(const Json &o) const { return !(*this == o); }

    /** Compact single-value rendering (for diagnostics). */
    std::string dump() const;

    /** Pretty-print with two-space indentation. */
    void write(std::ostream &os, int indent = 0) const;

    /**
     * Single-line rendering with no inter-element whitespace (the
     * form dump() returns).
     */
    void writeCompact(std::ostream &os) const;

    /**
     * Parse a JSON document. Returns a Null value and sets @p error
     * on malformed input (error stays empty on success).
     */
    static Json parse(const std::string &text, std::string &error);

  private:
    Kind kind_ = Kind::Null;
    bool b_ = false;
    std::int64_t i_ = 0;
    std::uint64_t u_ = 0;
    double d_ = 0;
    std::string s_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/** Escape a string for inclusion in JSON output (no quotes added). */
std::string jsonEscape(const std::string &s);

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_JSON_HH
