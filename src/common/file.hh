/**
 * @file
 * The one checked file writer.  Every document the library writes to
 * disk — a Chrome trace, a run report, a bench's --json output — goes
 * through writeFileOrDie(), so a failed open, a short write or a
 * failed close (where a full disk usually shows) is fatal instead of
 * a silently truncated file.
 */

#ifndef HSIPC_COMMON_FILE_HH
#define HSIPC_COMMON_FILE_HH

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.hh"

namespace hsipc
{

/** Write @p bytes to @p path, replacing it; fatal on any I/O error. */
inline void
writeFileOrDie(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        hsipc_fatal("cannot open " + path + ": " + std::strerror(errno));
    const bool written =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (std::fclose(f) != 0 || !written)
        hsipc_fatal("cannot write " + path + ": " + std::strerror(errno));
}

} // namespace hsipc

#endif // HSIPC_COMMON_FILE_HH
