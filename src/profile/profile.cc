#include "profile/profile.hh"

#include "obs/prof.hh"

namespace lbp
{

ExecResult
profileProgram(Program &prog, const std::vector<std::int64_t> &args)
{
    Interpreter interp(prog);
    ExecResult result;
    {
        obs::prof::ScopedRegion region(obs::prof::Region::Interpret);
        result = interp.run(args);
    }
    for (auto &fn : prog.functions) {
        const std::vector<std::uint64_t> &counts =
            interp.blockCounts(fn.id);
        for (auto &bb : fn.blocks) {
            if (!bb.dead)
                bb.weight = static_cast<double>(counts[bb.id]);
        }
    }
    return result;
}

} // namespace lbp
