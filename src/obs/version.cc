#include "obs/version.hh"

#include <sstream>

#include "obs/json.hh"
#include "obs/registry.hh"

#ifndef LBP_GIT_SHA
#define LBP_GIT_SHA "unknown"
#endif

namespace lbp
{
namespace obs
{

const char *
gitSha()
{
    return LBP_GIT_SHA;
}

std::string
versionString()
{
    std::ostringstream os;
    os << "lbp " << gitSha() << " (registry schema "
       << kRegistrySchemaVersion << ", bench schema "
       << kBenchSchemaVersion << ")";
    return os.str();
}

void
stampVersion(Json &doc)
{
    doc.set("git_sha", Json::str(gitSha()));
}

} // namespace obs
} // namespace lbp
