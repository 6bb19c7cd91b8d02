#include "common/crc_frame.hh"

#include <cstring>

#include "common/crc32.hh"
#include "common/logging.hh"

namespace unison {

namespace {

template <typename T>
void
putLe(std::vector<std::uint8_t> &out, T value)
{
    const std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
T
getLe(const std::uint8_t *data, std::size_t at)
{
    T value;
    std::memcpy(&value, data + at, sizeof(T));
    return value;
}

} // namespace

// ------------------------------------------------------ record frames

void
appendRecordFrame(std::vector<std::uint8_t> &out, std::uint32_t magic,
                  const void *payload, std::size_t len)
{
    UNISON_ASSERT(len <= kMaxRecordFrameBytes, "record frame payload of ",
                  len, " bytes exceeds the ", kMaxRecordFrameBytes,
                  "-byte bound its reader enforces");
    out.reserve(out.size() + kRecordFrameHeaderBytes + len);
    putLe(out, magic);
    putLe(out, static_cast<std::uint32_t>(len));
    putLe(out, crc32(payload, len));
    const auto *bytes = static_cast<const std::uint8_t *>(payload);
    out.insert(out.end(), bytes, bytes + len);
}

FrameWalker::FrameWalker(const std::uint8_t *data, std::size_t size,
                         std::uint32_t magic, std::uint64_t max_payload)
    : data_(data), size_(size), magic_(magic), maxPayload_(max_payload)
{
}

void
FrameWalker::tear(std::string why)
{
    torn_ = true;
    tornReason_ = std::move(why);
}

bool
FrameWalker::next(const std::uint8_t *&payload, std::size_t &len)
{
    if (torn_ || at_ >= size_)
        return false;

    const std::size_t remaining = size_ - at_;
    if (remaining < kRecordFrameHeaderBytes) {
        tear("partial record header (" + std::to_string(remaining) +
             " bytes) at offset " + std::to_string(at_));
        return false;
    }
    if (getLe<std::uint32_t>(data_, at_) != magic_) {
        tear("bad record magic at offset " + std::to_string(at_));
        return false;
    }
    const std::uint64_t payload_len =
        getLe<std::uint32_t>(data_, at_ + 4);
    const std::uint32_t stored_crc =
        getLe<std::uint32_t>(data_, at_ + 8);
    if (payload_len > maxPayload_) {
        tear("implausible record length " +
             std::to_string(payload_len) + " at offset " +
             std::to_string(at_));
        return false;
    }
    if (remaining - kRecordFrameHeaderBytes < payload_len) {
        tear("truncated record payload (" +
             std::to_string(remaining - kRecordFrameHeaderBytes) +
             " of " + std::to_string(payload_len) +
             " bytes) at offset " + std::to_string(at_));
        return false;
    }
    const std::uint8_t *bytes = data_ + at_ + kRecordFrameHeaderBytes;
    if (crc32(bytes, payload_len) != stored_crc) {
        tear("record CRC mismatch at offset " + std::to_string(at_));
        return false;
    }

    payload = bytes;
    len = static_cast<std::size_t>(payload_len);
    at_ += kRecordFrameHeaderBytes + payload_len;
    return true;
}

} // namespace unison
