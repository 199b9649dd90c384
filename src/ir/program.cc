#include "ir/program.hh"

#include "ir/semantics.hh"
#include "support/logging.hh"

namespace lbp
{

FuncId
Program::newFunction(const std::string &fname)
{
    Function f;
    f.id = static_cast<FuncId>(functions.size());
    f.name = fname;
    functions.push_back(std::move(f));
    return functions.back().id;
}

FuncId
Program::findFunction(const std::string &fname) const
{
    for (const auto &f : functions)
        if (f.name == fname)
            return f.id;
    return kNoFunc;
}

std::int64_t
Program::allocData(std::int64_t bytes, std::int64_t align)
{
    LBP_ASSERT(bytes >= 0 && align > 0, "bad allocData request");
    std::int64_t base = static_cast<std::int64_t>(memory.size());
    base = (base + align - 1) / align * align;
    memory.resize(static_cast<size_t>(base + bytes), 0);
    return base;
}

void
Program::poke8(std::int64_t addr, std::uint8_t v)
{
    LBP_ASSERT(addr >= 0 &&
               static_cast<size_t>(addr) < memory.size(), "poke8 oob");
    memory[static_cast<size_t>(addr)] = v;
}

void
Program::poke16(std::int64_t addr, std::int16_t v)
{
    poke8(addr, static_cast<std::uint8_t>(v & 0xff));
    poke8(addr + 1, static_cast<std::uint8_t>((v >> 8) & 0xff));
}

void
Program::poke32(std::int64_t addr, std::int32_t v)
{
    for (int i = 0; i < 4; ++i)
        poke8(addr + i, static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

std::int32_t
Program::peek32(std::int64_t addr) const
{
    LBP_ASSERT(addr >= 0 &&
               static_cast<size_t>(addr) + 3 < memory.size(), "peek32 oob");
    return static_cast<std::int32_t>(
        loadValue(Opcode::LD_W, memory.data() + addr));
}

int
Program::sizeOps() const
{
    int n = 0;
    for (const auto &f : functions)
        n += f.sizeOps();
    return n;
}

} // namespace lbp
