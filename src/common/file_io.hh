/**
 * @file
 * Status-returning, fault-injectable file I/O for the durability
 * layer (result-store objects, result output). Every byte moved here
 * passes through the FaultInjector seam, and every function reports
 * failure as a SimStatus instead of fatal()ing -- the callers decide
 * between graceful degradation (a store object that will not load is
 * a miss; one that will not publish is dropped with a warning) and a
 * classified exit.
 *
 * Integrity framing is not this file's job: store objects carry one
 * CRC-32 record frame (common/crc_frame.hh) inside the bytes moved
 * here.
 */

#ifndef UNISON_COMMON_FILE_IO_HH
#define UNISON_COMMON_FILE_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"

namespace unison {

/** True when `path` exists (any type). */
bool fileExists(const std::string &path);

/** Size in bytes, or 0 when the file is missing. */
std::uint64_t fileSizeOrZero(const std::string &path);

/** Read the whole file. A missing file is an Io failure; the caller
 *  that treats "missing" as "empty" checks fileExists() first. */
SimStatus readFileBytes(const std::string &path,
                        std::vector<std::uint8_t> &out);

/** Create-or-truncate write of the whole buffer, flushed and fsynced.
 */
SimStatus writeFileBytes(const std::string &path,
                         const std::vector<std::uint8_t> &bytes);

/** fsync a directory, making the entries created or renamed in it
 *  durable (a rename is only crash-safe once its directory is). */
SimStatus syncDirectory(const std::string &dir);

} // namespace unison

#endif // UNISON_COMMON_FILE_IO_HH
