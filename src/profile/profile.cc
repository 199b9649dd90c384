#include "profile/profile.hh"

#include "obs/prof.hh"

namespace lbp
{

void
Profile::onBlock(FuncId f, BlockId b)
{
    blocks_[{f, b}] += 1.0;
    ++totalBlocks_;
}

void
Profile::onBranch(FuncId f, BlockId b, OpId opId, bool taken)
{
    (void)b;
    brExec_[{f, opId}] += 1.0;
    if (taken)
        brTaken_[{f, opId}] += 1.0;
}

double
Profile::blockWeight(FuncId f, BlockId b) const
{
    auto it = blocks_.find({f, b});
    return it == blocks_.end() ? 0.0 : it->second;
}

double
Profile::branchExec(FuncId f, OpId opId) const
{
    auto it = brExec_.find({f, opId});
    return it == brExec_.end() ? 0.0 : it->second;
}

double
Profile::branchTaken(FuncId f, OpId opId) const
{
    auto it = brTaken_.find({f, opId});
    return it == brTaken_.end() ? 0.0 : it->second;
}

double
Profile::takenProb(FuncId f, OpId opId) const
{
    const double e = branchExec(f, opId);
    return e > 0 ? branchTaken(f, opId) / e : 0.0;
}

void
Profile::annotate(Program &prog) const
{
    for (auto &fn : prog.functions) {
        for (auto &bb : fn.blocks) {
            if (!bb.dead)
                bb.weight = blockWeight(fn.id, bb.id);
        }
    }
}

ProfiledRun
profileProgram(Program &prog, const std::vector<std::int64_t> &args)
{
    ProfiledRun out;
    Interpreter interp(prog);
    interp.setProfileSink(&out.profile);
    {
        obs::prof::ScopedRegion region(obs::prof::Region::Interpret);
        out.result = interp.run(args);
    }
    out.profile.annotate(prog);
    return out;
}

} // namespace lbp
