/**
 * @file
 * The SimError taxonomy: classified, catchable failures for everything
 * that used to be a bare fatal()/abort()/unchecked-I/O exit.
 *
 * Three classes, each with its own process exit code so scripts and CI
 * can tell failure kinds apart without parsing messages:
 *
 *  - Usage (exit 2): the caller asked for something malformed --
 *    contradictory flags, a bad shard expression, --store without
 *    --figure or --spec. Retrying without fixing the invocation
 *    cannot help.
 *  - Io (exit 3): the environment failed us -- unreadable spec file,
 *    an output that cannot be written. The input may be fine;
 *    retrying after fixing the environment can.
 *  - Corrupt (exit 4): data failed its own integrity contract -- bad
 *    JSON, schema mismatch, a snapshot that fails its shape checks,
 *    mismatched shard fingerprints. Retrying reproduces it; the file
 *    itself is the problem.
 *
 * Recoverable callers catch SimError and classify via code(); process
 * edges (main) catch it and exit with exitCodeFor(code()). fatal()
 * remains for unclassified configuration errors (exit 1) and panic()
 * for internal invariants (abort).
 *
 * structuredWarn() is the one-line machine-greppable warning format
 * the crash-safety paths emit when they degrade gracefully instead of
 * failing ("warn: [store-rejected] path=... reason=..."); tests and CI
 * grep for the bracketed event tokens.
 */

#ifndef UNISON_COMMON_ERROR_HH
#define UNISON_COMMON_ERROR_HH

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace unison {

/** Failure class; the numeric value IS the process exit code. */
enum class SimErrc
{
    Ok = 0,
    Usage = 2,   //!< malformed invocation
    Io = 3,      //!< environment/filesystem failure
    Corrupt = 4, //!< data failed an integrity check
};

/** Exit code for a failure class (identity, kept as a function so the
 *  mapping is greppable and the enum values stay an implementation
 *  detail). */
int exitCodeFor(SimErrc code);

/** Short lowercase token for a failure class ("usage", "io",
 *  "corrupt-input"); used in messages and structured warnings. */
const char *simErrcName(SimErrc code);

/** A classified, catchable failure. */
class SimError : public std::runtime_error
{
  public:
    SimError(SimErrc code, const std::string &what)
        : std::runtime_error(what), code_(code)
    {
    }

    SimErrc code() const { return code_; }

  private:
    SimErrc code_;
};

/** @name Throw helpers (stream-composed messages, like fatal()) */
/**@{*/
template <typename... Args>
[[noreturn]] void
throwUsage(Args &&...args)
{
    throw SimError(SimErrc::Usage,
                   detail::composeMessage(std::forward<Args>(args)...));
}

template <typename... Args>
[[noreturn]] void
throwIo(Args &&...args)
{
    throw SimError(SimErrc::Io,
                   detail::composeMessage(std::forward<Args>(args)...));
}

template <typename... Args>
[[noreturn]] void
throwCorrupt(Args &&...args)
{
    throw SimError(SimErrc::Corrupt,
                   detail::composeMessage(std::forward<Args>(args)...));
}
/**@}*/

/** Print "error: <msg>" and exit with the class's code. For contexts
 *  that cannot let an exception propagate (worker threads, C mains
 *  without a catch frame). */
[[noreturn]] void exitWith(SimErrc code, const std::string &msg);

/**
 * Lightweight status for APIs where failure is expected and handled
 * inline (file loads that fall back) rather than propagated as an
 * exception. ok() must be checked before trusting any output the call
 * produced.
 */
struct SimStatus
{
    SimErrc code = SimErrc::Ok;
    std::string message;

    bool ok() const { return code == SimErrc::Ok; }

    static SimStatus success() { return {}; }

    static SimStatus
    failure(SimErrc code, std::string message)
    {
        SimStatus s;
        s.code = code;
        s.message = std::move(message);
        return s;
    }

    /** Convert to an exception (no-op when ok). */
    void
    throwIfFailed() const
    {
        if (!ok())
            throw SimError(code, message);
    }
};

/**
 * One-line structured warning: "warn: [event] key=value key=value".
 * Values with spaces are single-quoted so the line stays splittable.
 * The crash-safety paths use it wherever they degrade gracefully, so
 * tests and CI can assert the *reason* for a fallback, not just that
 * one happened.
 */
void structuredWarn(
    const std::string &event,
    const std::vector<std::pair<std::string, std::string>> &fields);

} // namespace unison

#endif // UNISON_COMMON_ERROR_HH
