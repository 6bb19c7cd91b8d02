/**
 * @file
 * Flat byte-stream (de)serialization for warm-state checkpoints.
 *
 * A checkpoint is a snapshot of every piece of *simulation* state that
 * the measurement phase's behaviour depends on -- cache tag words, LRU
 * stamps, predictor tables, RNG streams, DRAM bank timing, scheduler
 * clocks -- so a run forked from it is byte-identical to one that
 * re-simulated the warmup. Statistics are never serialized: the warm
 * boundary resets them anyway.
 *
 * The format is deliberately dumb: raw little-endian PODs in component
 * order, vectors prefixed by their element count. On its own it has no
 * header or checksum -- when a snapshot goes to disk it travels as a
 * result-store object (store/result_store.hh) inside one CRC record
 * frame, which catches truncation and bit-flips before any byte
 * reaches a reader here. StateReader restores vectors *in place* (components are
 * sized by configuration before loading, and keeping the buffers'
 * addresses stable matters because the timing loop holds raw pointers
 * into some of them -- System's scheduler keys).
 *
 * Failure contract: a reader never fatals and never leaves stale bytes
 * behind. Any underrun, shape mismatch or trailing-bytes condition
 * makes the reader *sticky-failed*: the offending and all subsequent
 * reads zero-fill their destinations, and status()/throwIfFailed()
 * report the first failure. Callers check the status after the last
 * read and discard the half-loaded component tree (the resume paths
 * rebuild the System and fall back to a cold warm-up run).
 */

#ifndef UNISON_COMMON_STATE_IO_HH
#define UNISON_COMMON_STATE_IO_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace unison {

/** Append-only writer producing a checkpoint byte buffer. */
class StateWriter
{
  public:
    template <typename T>
    void
    pod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "checkpoint fields must be trivially copyable");
        const std::size_t at = bytes_.size();
        bytes_.resize(at + sizeof(T));
        std::memcpy(bytes_.data() + at, &value, sizeof(T));
    }

    template <typename T>
    void
    podVector(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "checkpoint fields must be trivially copyable");
        pod(static_cast<std::uint64_t>(v.size()));
        const std::size_t at = bytes_.size();
        bytes_.resize(at + v.size() * sizeof(T));
        if (!v.empty())
            std::memcpy(bytes_.data() + at, v.data(),
                        v.size() * sizeof(T));
    }

    /** `n` elements in podVector's layout (count, then the elements),
     *  element i being `at(i)`: a vector image of state that is held
     *  in some other shape, without building the vector. */
    template <typename T, typename Fn>
    void
    podSequence(std::size_t n, Fn &&at)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "checkpoint fields must be trivially copyable");
        pod(static_cast<std::uint64_t>(n));
        const std::size_t base = bytes_.size();
        bytes_.resize(base + n * sizeof(T));
        for (std::size_t i = 0; i < n; ++i) {
            const T value = at(i);
            std::memcpy(bytes_.data() + base + i * sizeof(T), &value,
                        sizeof(T));
        }
    }

    std::vector<std::uint8_t> take() && { return std::move(bytes_); }
    std::size_t size() const { return bytes_.size(); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Sequential reader over a checkpoint buffer. Sticky-failing: the
 * first underrun/mismatch records a status, and from then on every
 * read zero-fills its destination instead of consuming bytes, so a
 * load over a damaged buffer terminates quickly and predictably.
 * Check ok()/status() (or throwIfFailed()) after the final read.
 */
class StateReader
{
  public:
    explicit StateReader(const std::vector<std::uint8_t> &bytes)
        : bytes_(bytes)
    {
    }

    template <typename T>
    void
    pod(T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "checkpoint fields must be trivially copyable");
        if (failed_ || at_ + sizeof(T) > bytes_.size()) {
            recordFailure("checkpoint underrun: need " +
                          std::to_string(sizeof(T)) + " bytes at " +
                          std::to_string(at_) + " of " +
                          std::to_string(bytes_.size()));
            // Zero-fill without memset: checkpointed structs may have
            // default member initializers (-Wclass-memaccess), and
            // plain assignment would reject array fields.
            if constexpr (std::is_array_v<T>)
                std::fill(std::begin(value), std::end(value),
                          std::remove_extent_t<T>{});
            else
                value = T{};
            return;
        }
        std::memcpy(&value, bytes_.data() + at_, sizeof(T));
        at_ += sizeof(T);
    }

    /**
     * Restore a vector whose size is already correct (the component
     * was configured identically before loading). In-place fill, no
     * reallocation: pointers into the vector stay valid -- also on
     * failure, where the vector is zero-filled at its current size.
     */
    template <typename T>
    void
    podVectorExact(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "checkpoint fields must be trivially copyable");
        if (!vectorHeader(v.size(), sizeof(T))) {
            // Value-init (not memset): some checkpointed structs have
            // default member initializers, making raw byte-clearing a
            // -Wclass-memaccess complaint.
            std::fill(v.begin(), v.end(), T{});
            return;
        }
        if (!v.empty())
            std::memcpy(v.data(), bytes_.data() + at_,
                        v.size() * sizeof(T));
        at_ += v.size() * sizeof(T);
    }

    /** Read back a podSequence of exactly `n` elements, handing
     *  element i to `put(i, value)`. Failure follows podVectorExact:
     *  every element is handed over as T{}. */
    template <typename T, typename Fn>
    void
    podSequenceExact(std::size_t n, Fn &&put)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "checkpoint fields must be trivially copyable");
        const bool whole = vectorHeader(n, sizeof(T));
        for (std::size_t i = 0; i < n; ++i) {
            T value{};
            if (whole)
                std::memcpy(&value, bytes_.data() + at_ + i * sizeof(T),
                            sizeof(T));
            put(i, value);
        }
        if (whole)
            at_ += n * sizeof(T);
    }

    /** Restore a vector whose saved size is authoritative (hash-map
     *  style state with data-dependent size). May reallocate. The
     *  bounds check runs *before* the resize, so a corrupt element
     *  count cannot trigger a huge allocation. */
    template <typename T>
    void
    podVectorResize(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "checkpoint fields must be trivially copyable");
        std::uint64_t n = 0;
        pod(n);
        if (!failed_ && at_ + n * sizeof(T) > bytes_.size())
            recordFailure("checkpoint underrun: need " +
                          std::to_string(n * sizeof(T)) + " bytes at " +
                          std::to_string(at_) + " of " +
                          std::to_string(bytes_.size()));
        if (failed_) {
            v.clear();
            return;
        }
        v.resize(n);
        if (n != 0)
            std::memcpy(v.data(), bytes_.data() + at_, n * sizeof(T));
        at_ += n * sizeof(T);
    }

    /** Require the whole buffer consumed (catches component lists
     *  that drifted between save and load, and payload tails a
     *  corruption glued on). */
    void
    expectEnd()
    {
        if (!failed_ && at_ != bytes_.size())
            recordFailure("checkpoint has " +
                          std::to_string(bytes_.size() - at_) +
                          " trailing bytes: save/load component lists "
                          "differ");
    }

    bool ok() const { return !failed_; }

    /** The first recorded failure (Ok status while ok()). */
    SimStatus
    status() const
    {
        if (!failed_)
            return SimStatus::success();
        return SimStatus::failure(SimErrc::Corrupt, error_);
    }

    /** Throw SimError(Corrupt) carrying the first failure, if any. */
    void
    throwIfFailed() const
    {
        status().throwIfFailed();
    }

  private:
    /** Consume a vector's element count and check that it is `n` and
     *  that all `n` elements of `elem_bytes` follow; false (failed)
     *  otherwise. */
    bool
    vectorHeader(std::uint64_t n, std::size_t elem_bytes)
    {
        std::uint64_t saved = 0;
        pod(saved);
        if (!failed_ && saved != n)
            recordFailure("checkpoint shape mismatch: saved vector "
                          "has " +
                          std::to_string(saved) +
                          " elements, component expects " +
                          std::to_string(n));
        if (!failed_ && at_ + n * elem_bytes > bytes_.size())
            recordFailure("checkpoint underrun: need " +
                          std::to_string(n * elem_bytes) + " bytes at " +
                          std::to_string(at_) + " of " +
                          std::to_string(bytes_.size()));
        return !failed_;
    }

    void
    recordFailure(const std::string &why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = why;
        }
    }

    const std::vector<std::uint8_t> &bytes_;
    std::size_t at_ = 0;
    bool failed_ = false;
    std::string error_;
};

} // namespace unison

#endif // UNISON_COMMON_STATE_IO_HH
