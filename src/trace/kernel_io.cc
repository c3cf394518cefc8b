#include "trace/kernel_io.hh"

#include <climits>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/format.hh"
#include "common/log.hh"
#include "common/parse.hh"

namespace mtp {

namespace {

/** Write one address pattern as its five-or-eight field tail. */
void
writePattern(std::ostream &os, const AddressPattern &p)
{
    os << " 0x" << std::hex << p.base << std::dec << ' '
       << p.threadStride << ' ' << p.iterStride << ' ' << p.elemBytes;
    if (p.scatterFrac > 0.0)
        os << ' ' << formatNumber(p.scatterFrac) << ' ' << p.scatterSpan
           << ' ' << p.scatterSalt;
}

/** Parse a value slot: -1 (none) or a register slot index. */
std::int8_t
parseSlot(const std::string &tok, const std::string &ctx)
{
    return static_cast<std::int8_t>(
        parseInt(ctx, tok, INT8_MIN, INT8_MAX));
}

/**
 * Parse the pattern fields starting at @p idx of @p toks; advances idx
 * past the consumed fields.
 */
AddressPattern
parsePattern(const std::vector<std::string> &toks, std::size_t &idx,
             const std::string &ctx)
{
    if (idx + 4 > toks.size())
        MTP_FATAL(ctx, ": truncated address pattern");
    AddressPattern p;
    p.base = parseUint(ctx, toks[idx++], 0, UINT64_MAX);
    p.threadStride = parseInt(ctx, toks[idx++], INT64_MIN, INT64_MAX);
    p.iterStride = parseInt(ctx, toks[idx++], INT64_MIN, INT64_MAX);
    p.elemBytes =
        static_cast<unsigned>(parseUint(ctx, toks[idx++], 0, UINT_MAX));
    // Optional scatter triple: detect by a leading numeric token that
    // parses as a fraction.
    if (idx + 3 <= toks.size() && !toks[idx].empty() &&
        (std::isdigit(toks[idx][0]) || toks[idx][0] == '.')) {
        p.scatterFrac = parseReal(ctx, toks[idx++], 0.0,
                                  std::numeric_limits<double>::max());
        p.scatterSpan = parseUint(ctx, toks[idx++], 0, UINT64_MAX);
        p.scatterSalt = parseUint(ctx, toks[idx++], 0, UINT64_MAX);
    }
    return p;
}

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> toks;
    std::istringstream ss(line);
    std::string tok;
    while (ss >> tok) {
        if (tok[0] == '#')
            break;
        toks.push_back(tok);
    }
    return toks;
}

} // namespace

void
writeKernel(std::ostream &os, const KernelDesc &kernel)
{
    os << "# mtprefetch kernel description\n";
    os << "kernel " << kernel.name << '\n';
    os << "grid " << kernel.warpsPerBlock << ' ' << kernel.numBlocks
       << ' ' << kernel.maxBlocksPerCore << '\n';
    for (const auto &seg : kernel.segments) {
        os << "segment " << seg.trips << '\n';
        for (const auto &inst : seg.insts) {
            switch (inst.op) {
              case Opcode::Comp:
                os << "  comp " << inst.repeat;
                if (inst.srcSlots[0] >= 0)
                    os << ' ' << int(inst.srcSlots[0]) << ' '
                       << int(inst.srcSlots[1]);
                break;
              case Opcode::Imul:
                os << "  imul";
                if (inst.srcSlots[0] >= 0)
                    os << ' ' << int(inst.srcSlots[0]) << ' '
                       << int(inst.srcSlots[1]);
                break;
              case Opcode::Fdiv:
                os << "  fdiv";
                if (inst.srcSlots[0] >= 0)
                    os << ' ' << int(inst.srcSlots[0]) << ' '
                       << int(inst.srcSlots[1]);
                break;
              case Opcode::Branch:
                os << "  branch";
                break;
              case Opcode::Load:
                os << "  load " << int(inst.destSlot);
                writePattern(os, inst.pattern);
                if (!inst.swPrefetchable)
                    os << " noswp";
                if (inst.regPrefetch)
                    os << " regpref";
                if (inst.srcSlots[0] >= 0)
                    os << " src=" << int(inst.srcSlots[0]);
                break;
              case Opcode::Store:
                os << "  store " << int(inst.srcSlots[0]);
                writePattern(os, inst.pattern);
                break;
              case Opcode::Prefetch:
                os << "  pref";
                writePattern(os, inst.pattern);
                break;
            }
            os << '\n';
        }
        os << "end\n";
    }
}

KernelDesc
readKernel(std::istream &is, const std::string &source)
{
    KernelDesc k;
    Segment *seg = nullptr;
    std::string line;
    unsigned lineno = 0;
    bool saw_grid = false;

    while (std::getline(is, line)) {
        ++lineno;
        std::string ctx = source + ":" + std::to_string(lineno);
        auto toks = tokenize(line);
        if (toks.empty())
            continue;
        const std::string &cmd = toks[0];

        if (cmd == "kernel") {
            if (toks.size() != 2)
                MTP_FATAL(ctx, ": 'kernel' needs a name");
            k.name = toks[1];
        } else if (cmd == "grid") {
            if (toks.size() != 4)
                MTP_FATAL(ctx, ": 'grid' needs 3 fields");
            k.warpsPerBlock =
                static_cast<unsigned>(parseUint(ctx, toks[1], 0, UINT_MAX));
            k.numBlocks = parseUint(ctx, toks[2], 0, UINT64_MAX);
            k.maxBlocksPerCore =
                static_cast<unsigned>(parseUint(ctx, toks[3], 0, UINT_MAX));
            saw_grid = true;
        } else if (cmd == "segment") {
            if (toks.size() != 2)
                MTP_FATAL(ctx, ": 'segment' needs a trip count");
            k.segments.emplace_back();
            seg = &k.segments.back();
            seg->trips = static_cast<std::uint32_t>(
                parseUint(ctx, toks[1], 0, UINT32_MAX));
        } else if (cmd == "end") {
            seg = nullptr;
        } else {
            if (!seg)
                MTP_FATAL(ctx, ": instruction outside a segment");
            if ((cmd == "comp" || cmd == "load" || cmd == "store") &&
                toks.size() < 2)
                MTP_FATAL(ctx, ": '", cmd, "' needs an operand");
            StaticInst inst;
            std::size_t idx = 1;
            if (cmd == "comp") {
                inst = StaticInst::comp(static_cast<unsigned>(
                    parseUint(ctx, toks[1], 0, UINT16_MAX)));
                idx = 2;
                if (idx + 2 <= toks.size())
                    inst.srcSlots = {parseSlot(toks[idx], ctx),
                                     parseSlot(toks[idx + 1], ctx)};
            } else if (cmd == "imul" || cmd == "fdiv") {
                inst = cmd == "imul" ? StaticInst::imul()
                                     : StaticInst::fdiv();
                if (toks.size() >= 3)
                    inst.srcSlots = {parseSlot(toks[1], ctx),
                                     parseSlot(toks[2], ctx)};
            } else if (cmd == "branch") {
                inst = StaticInst::branch();
            } else if (cmd == "load") {
                std::int8_t dest = parseSlot(toks[1], ctx);
                idx = 2;
                AddressPattern p = parsePattern(toks, idx, ctx);
                inst = StaticInst::load(p, dest);
                for (; idx < toks.size(); ++idx) {
                    if (toks[idx] == "noswp")
                        inst.swPrefetchable = false;
                    else if (toks[idx] == "regpref")
                        inst.regPrefetch = true;
                    else if (toks[idx].rfind("src=", 0) == 0)
                        inst.srcSlots[0] =
                            parseSlot(toks[idx].substr(4), ctx);
                    else
                        MTP_FATAL(ctx, ": unknown load flag '",
                                  toks[idx], "'");
                }
            } else if (cmd == "store") {
                std::int8_t src = parseSlot(toks[1], ctx);
                idx = 2;
                AddressPattern p = parsePattern(toks, idx, ctx);
                inst = StaticInst::store(p, src);
            } else if (cmd == "pref") {
                idx = 1;
                AddressPattern p = parsePattern(toks, idx, ctx);
                inst = StaticInst::prefetch(p);
            } else {
                MTP_FATAL(ctx, ": unknown directive '", cmd, "'");
            }
            seg->insts.push_back(inst);
        }
    }
    if (k.name.empty())
        MTP_FATAL(source, ": missing 'kernel <name>'");
    if (!saw_grid)
        MTP_FATAL(source, ": missing 'grid' line");
    k.finalize();
    return k;
}

KernelDesc
readKernelFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        MTP_FATAL("cannot open kernel file '", path, "'");
    return readKernel(in, path);
}

} // namespace mtp
