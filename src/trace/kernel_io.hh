/**
 * @file
 * Textual serialization of kernel descriptors. Lets users define
 * workloads in a small line-oriented format (and the simulator dump
 * its synthetic kernels) without recompiling — the moral equivalent of
 * feeding the paper's simulator a new trace file.
 *
 * Format (one directive per line; '#' starts a comment):
 *
 *   kernel  <name>
 *   grid    <warpsPerBlock> <numBlocks> <maxBlocksPerCore>
 *   segment <trips>
 *     comp   <repeat> [src_a src_b]
 *     imul   [src_a src_b]
 *     fdiv   [src_a src_b]
 *     branch
 *     load   <dest> <base> <threadStride> <iterStride> <elemBytes>
 *            [scatterFrac scatterSpan scatterSalt] [noswp] [regpref]
 *            [src=<slot>]
 *     store  <src> <base> <threadStride> <iterStride> <elemBytes>
 *     pref   <base> <threadStride> <iterStride> <elemBytes>
 *   end
 *
 * `segment`/`end` pairs repeat. Numbers follow common/parse.hh
 * (decimal or 0x-prefixed hex, `-` only on strides and slots); a
 * number outside its field's range is a `file:line` error.
 */

#ifndef MTP_TRACE_KERNEL_IO_HH
#define MTP_TRACE_KERNEL_IO_HH

#include <iosfwd>
#include <string>

#include "trace/kernel.hh"

namespace mtp {

/** Serialize @p kernel to @p os in the format above. */
void writeKernel(std::ostream &os, const KernelDesc &kernel);

/**
 * Parse a kernel description from @p is.
 * @param source name used in error messages (e.g. the file path)
 * @return the finalized kernel; fatal error on malformed input.
 */
KernelDesc readKernel(std::istream &is,
                      const std::string &source = "<stream>");

/** Convenience: read a kernel from a file path. */
KernelDesc readKernelFile(const std::string &path);

} // namespace mtp

#endif // MTP_TRACE_KERNEL_IO_HH
