/**
 * @file
 * The one CRC-32 record frame every durable object in the tree uses:
 * the content-addressed result store (store/result_store.cc) wraps
 * each published object -- a result or a warm snapshot -- in exactly
 * one frame:
 *
 *     u32 magic       caller-chosen object tag
 *     u32 payloadLen
 *     u32 payloadCrc  CRC-32 of the payload bytes
 *     u8  payload[]
 *
 * appendRecordFrame encodes; FrameWalker decodes a buffer of
 * consecutive frames, stopping at the first damaged one and
 * classifying the damage (torn header, bad magic, implausible length,
 * truncated payload, CRC mismatch). A torn or flipped object is an
 * *expected* outcome on a lying disk, so the walker reports it
 * instead of failing: validBytes() is the byte length of the clean
 * frame prefix, and everything after it must not be trusted.
 */

#ifndef UNISON_COMMON_CRC_FRAME_HH
#define UNISON_COMMON_CRC_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace unison {

/** Record-frame header size (magic + length + CRC). */
inline constexpr std::size_t kRecordFrameHeaderBytes = 4 + 4 + 4;

/** Sanity bound on one record frame's payload; a corrupt length field
 *  must classify as damage, not turn into a multi-gigabyte
 *  allocation. Writers must refuse larger payloads up front: the
 *  reader rejects every frame over the bound. */
inline constexpr std::uint64_t kMaxRecordFrameBytes = 64ull << 20;

/** Append one record frame (header + payload) to `out`; `len` must
 *  not exceed kMaxRecordFrameBytes (checked: a bigger frame could
 *  never be read back). */
void appendRecordFrame(std::vector<std::uint8_t> &out,
                       std::uint32_t magic, const void *payload,
                       std::size_t len);

/**
 * Sequential decoder over a buffer of record frames. next() yields
 * payloads until the buffer ends cleanly or a damaged frame stops the
 * walk; the summary accessors then say how far the clean prefix
 * reached and why the walk stopped. The walker never throws and never
 * yields a payload whose CRC did not verify.
 */
class FrameWalker
{
  public:
    FrameWalker(const std::uint8_t *data, std::size_t size,
                std::uint32_t magic,
                std::uint64_t max_payload = kMaxRecordFrameBytes);

    /** Advance to the next intact frame; false at end-of-buffer or at
     *  the first damaged frame. */
    bool next(const std::uint8_t *&payload, std::size_t &len);

    /** True when the walk stopped at damage rather than a clean end. */
    bool torn() const { return torn_; }
    /** Classification of the damage ("" when not torn). */
    const std::string &tornReason() const { return tornReason_; }
    /** Byte length of the clean frame prefix consumed so far. */
    std::uint64_t validBytes() const { return at_; }

  private:
    void tear(std::string why);

    const std::uint8_t *data_;
    std::size_t size_;
    std::uint32_t magic_;
    std::uint64_t maxPayload_;
    std::uint64_t at_ = 0;
    bool torn_ = false;
    std::string tornReason_;
};

} // namespace unison

#endif // UNISON_COMMON_CRC_FRAME_HH
