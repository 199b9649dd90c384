/**
 * @file
 * Structural contract of the self-contained HTML flight-recorder
 * report: every section anchor present, no external fetches, escaped
 * metric text, and the prof/pmu sections' diagnostics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/report.hh"

namespace lbp
{
namespace
{

using obs::Json;

TEST(ObsReport, HtmlIsSelfContainedWithAllSections)
{
    obs::Registry reg;
    reg.info("workload", "unit");
    reg.counter("sim.cycles").set(123);
    reg.gauge("compile.phase.01_profile.ms").set(1.25);
    reg.gauge("compile.total.ms").set(2.5);
    reg.histogram("sim.loop.bodyOps").add(34, 2.0);

    obs::ReportData data;
    data.workload = "unit";
    data.registryDoc = reg.toJson();

    std::ostringstream os;
    obs::writeHtmlReport(os, data);
    const std::string html = os.str();

    for (const char *anchor :
         {"id=\"meta\"", "id=\"metrics\"", "id=\"histograms\"",
          "id=\"scorecard\"", "id=\"phases\"", "id=\"pmu\"", "<svg"})
        EXPECT_NE(html.find(anchor), std::string::npos) << anchor;
    // No pmu data in this document: the section renders an explicit
    // placeholder, never silently disappears.
    EXPECT_NE(html.find("no host counters in this document"),
              std::string::npos);

    // Self-contained: no external fetches of any kind.
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("<script src"), std::string::npos);

    // Metric values pass through htmlEscape on the way in.
    EXPECT_EQ(obs::htmlEscape("a<b&\"c\""), "a&lt;b&amp;&quot;c&quot;");
}

TEST(ObsReport, ProfAndPmuSectionsCarryDiagnostics)
{
    obs::Registry reg;
    obs::ReportData data;
    data.workload = "unit";
    data.registryDoc = reg.toJson();

    // Profiler snapshot with lost samples: the subtitle must surface
    // the drop count (the split under-counts whatever was dropped).
    Json prof = Json::object();
    prof.set("samples", Json::uinteger(90));
    prof.set("untracked", Json::uinteger(5));
    prof.set("dropped", Json::uinteger(10));
    prof.set("attributed_fraction", Json::number(0.85));
    Json profRegions = Json::object();
    profRegions.set("bench", Json::uinteger(85));
    prof.set("regions", std::move(profRegions));
    data.prof = std::move(prof);

    // An available pmu snapshot renders share bars with derived rates.
    Json row = Json::object();
    row.set("cycles", Json::uinteger(900));
    row.set("ipc", Json::number(2.5));
    row.set("branchMissPct", Json::number(1.25));
    Json pmuRegions = Json::object();
    pmuRegions.set("simDispatch", std::move(row));
    Json total = Json::object();
    total.set("cycles", Json::uinteger(1000));
    Json pmu = Json::object();
    pmu.set("available", Json::boolean(true));
    pmu.set("attributedCycleFraction", Json::number(0.9));
    pmu.set("regions", std::move(pmuRegions));
    pmu.set("total", std::move(total));
    data.pmu = std::move(pmu);

    std::ostringstream os;
    obs::writeHtmlReport(os, data);
    const std::string html = os.str();
    EXPECT_NE(html.find("samples dropped"), std::string::npos);
    EXPECT_NE(html.find("simDispatch"), std::string::npos);
    EXPECT_NE(html.find("ipc 2.5"), std::string::npos);
    EXPECT_NE(html.find("br-miss 1.25"), std::string::npos);

    // An unavailable snapshot renders its recorded reason verbatim.
    Json off = Json::object();
    off.set("available", Json::boolean(false));
    off.set("reason", Json::str("perf_event_open: unit test"));
    data.pmu = std::move(off);
    std::ostringstream os2;
    obs::writeHtmlReport(os2, data);
    EXPECT_NE(os2.str().find(
                  "host pmu unavailable: perf_event_open: unit test"),
              std::string::npos);
}

} // namespace
} // namespace lbp
