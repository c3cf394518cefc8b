#include "trace/kernel_io.hh"

#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace mtp {

namespace {

/** Write one address pattern as its five-or-eight field tail. */
void
writePattern(std::ostream &os, const AddressPattern &p)
{
    os << " 0x" << std::hex << p.base << std::dec << ' '
       << p.threadStride << ' ' << p.iterStride << ' ' << p.elemBytes;
    if (p.scatterFrac > 0.0)
        os << ' ' << p.scatterFrac << ' ' << p.scatterSpan << ' '
           << p.scatterSalt;
}

/** Parse an unsigned (decimal or 0x hex) token. */
std::uint64_t
parseNum(const std::string &tok, const std::string &ctx)
{
    try {
        std::size_t pos = 0;
        std::uint64_t v = std::stoull(tok, &pos, 0);
        if (pos != tok.size())
            throw std::invalid_argument(tok);
        return v;
    } catch (const std::exception &) {
        MTP_FATAL(ctx, ": bad number '", tok, "'");
    }
}

std::int64_t
parseSigned(const std::string &tok, const std::string &ctx)
{
    try {
        std::size_t pos = 0;
        std::int64_t v = std::stoll(tok, &pos, 0);
        if (pos != tok.size())
            throw std::invalid_argument(tok);
        return v;
    } catch (const std::exception &) {
        MTP_FATAL(ctx, ": bad number '", tok, "'");
    }
}

double
parseDouble(const std::string &tok, const std::string &ctx)
{
    try {
        std::size_t pos = 0;
        double v = std::stod(tok, &pos);
        if (pos != tok.size())
            throw std::invalid_argument(tok);
        return v;
    } catch (const std::exception &) {
        MTP_FATAL(ctx, ": bad number '", tok, "'");
    }
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
    p.base = parseNum(toks[idx++], ctx);
    p.threadStride = parseSigned(toks[idx++], ctx);
    p.iterStride = parseSigned(toks[idx++], ctx);
    p.elemBytes = static_cast<unsigned>(parseNum(toks[idx++], ctx));
    // Optional scatter triple: detect by a leading numeric token that
    // parses as a fraction.
    if (idx + 3 <= toks.size() && !toks[idx].empty() &&
        (std::isdigit(toks[idx][0]) || toks[idx][0] == '.')) {
        p.scatterFrac = parseDouble(toks[idx++], ctx);
        p.scatterSpan = parseNum(toks[idx++], ctx);
        p.scatterSalt = parseNum(toks[idx++], ctx);
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
                static_cast<unsigned>(parseNum(toks[1], ctx));
            k.numBlocks = parseNum(toks[2], ctx);
            k.maxBlocksPerCore =
                static_cast<unsigned>(parseNum(toks[3], ctx));
            saw_grid = true;
        } else if (cmd == "segment") {
            if (toks.size() != 2)
                MTP_FATAL(ctx, ": 'segment' needs a trip count");
            k.segments.emplace_back();
            seg = &k.segments.back();
            seg->trips =
                static_cast<std::uint32_t>(parseNum(toks[1], ctx));
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
                    parseNum(toks[1], ctx)));
                idx = 2;
                if (idx + 2 <= toks.size()) {
                    inst.srcSlots = {
                        static_cast<std::int8_t>(
                            parseSigned(toks[idx], ctx)),
                        static_cast<std::int8_t>(
                            parseSigned(toks[idx + 1], ctx))};
                }
            } else if (cmd == "imul" || cmd == "fdiv") {
                inst = cmd == "imul" ? StaticInst::imul()
                                     : StaticInst::fdiv();
                if (toks.size() >= 3) {
                    inst.srcSlots = {
                        static_cast<std::int8_t>(parseSigned(toks[1],
                                                             ctx)),
                        static_cast<std::int8_t>(parseSigned(toks[2],
                                                             ctx))};
                }
            } else if (cmd == "branch") {
                inst = StaticInst::branch();
            } else if (cmd == "load") {
                int dest = static_cast<int>(parseSigned(toks[1], ctx));
                idx = 2;
                AddressPattern p = parsePattern(toks, idx, ctx);
                inst = StaticInst::load(p, dest);
                for (; idx < toks.size(); ++idx) {
                    if (toks[idx] == "noswp")
                        inst.swPrefetchable = false;
                    else if (toks[idx] == "regpref")
                        inst.regPrefetch = true;
                    else if (toks[idx].rfind("src=", 0) == 0)
                        inst.srcSlots[0] = static_cast<std::int8_t>(
                            parseSigned(toks[idx].substr(4), ctx));
                    else
                        MTP_FATAL(ctx, ": unknown load flag '",
                                  toks[idx], "'");
                }
            } else if (cmd == "store") {
                int src = static_cast<int>(parseSigned(toks[1], ctx));
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
