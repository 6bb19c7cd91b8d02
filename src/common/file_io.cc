#include "common/file_io.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault_injection.hh"

namespace unison {

namespace {

std::string
errnoText()
{
    return std::strerror(errno);
}

/** One injector-mediated write of `len` bytes to an open fd, starting
 *  at absolute file offset `begin`. Returns a status; executes kill
 *  decisions (the SIGKILL-faithful _exit). */
SimStatus
injectedWrite(int fd, const std::string &path, std::uint64_t begin,
              const void *data, std::size_t len)
{
    auto &injector = FaultInjector::instance();
    injector.armFromEnv();
    const auto decision = injector.onWrite(path, begin, len);

    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::vector<std::uint8_t> mutated;
    if (decision.corruptAt != SIZE_MAX) {
        mutated.assign(bytes, bytes + len);
        mutated[decision.corruptAt] ^= 0xFF;
        bytes = mutated.data();
    }

    std::size_t put = 0;
    while (put < decision.persist) {
        const ssize_t n =
            ::write(fd, bytes + put, decision.persist - put);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return SimStatus::failure(
                SimErrc::Io,
                "write to " + path + " failed: " + errnoText());
        }
        put += static_cast<std::size_t>(n);
    }

    if (decision.kill) {
        // Simulated SIGKILL at an exact byte: flush what the kernel
        // already has (the partial bytes are the point) and die
        // without running any cleanup.
        ::fsync(fd);
        ::_exit(137);
    }
    if (decision.fail)
        return SimStatus::failure(SimErrc::Io,
                                  "write to " + path +
                                      " failed: injected I/O fault");
    return SimStatus::success();
}

} // namespace

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t
fileSizeOrZero(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

SimStatus
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    out.clear();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return SimStatus::failure(SimErrc::Io, "cannot read " + path +
                                                   ": " + errnoText());
    auto &injector = FaultInjector::instance();
    injector.armFromEnv();

    std::uint8_t buf[1 << 16];
    std::uint64_t at = 0;
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const std::string msg = errnoText();
            ::close(fd);
            out.clear();
            return SimStatus::failure(
                SimErrc::Io, "read of " + path + " failed: " + msg);
        }
        if (n == 0)
            break;
        const auto decision =
            injector.onRead(path, at, static_cast<std::size_t>(n));
        at += static_cast<std::uint64_t>(n);
        if (decision.corruptAt != SIZE_MAX)
            buf[decision.corruptAt] ^= 0xFF;
        if (decision.fail) {
            ::close(fd);
            out.clear();
            return SimStatus::failure(SimErrc::Io,
                                      "read of " + path +
                                          " failed: injected I/O "
                                          "fault");
        }
        out.insert(out.end(), buf, buf + n);
    }
    ::close(fd);
    return SimStatus::success();
}

SimStatus
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return SimStatus::failure(SimErrc::Io, "cannot open " + path +
                                                   " for writing: " +
                                                   errnoText());
    SimStatus status =
        injectedWrite(fd, path, 0, bytes.data(), bytes.size());
    if (status.ok() && ::fsync(fd) != 0)
        status = SimStatus::failure(SimErrc::Io, "fsync of " + path +
                                                     " failed: " +
                                                     errnoText());
    ::close(fd);
    return status;
}

SimStatus
syncDirectory(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return SimStatus::failure(SimErrc::Io, "cannot open directory " +
                                                   dir + ": " +
                                                   errnoText());
    SimStatus status = SimStatus::success();
    if (::fsync(fd) != 0)
        status = SimStatus::failure(SimErrc::Io, "fsync of directory " +
                                                     dir + " failed: " +
                                                     errnoText());
    ::close(fd);
    return status;
}

} // namespace unison
