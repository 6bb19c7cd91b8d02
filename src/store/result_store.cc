#include "store/result_store.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc_frame.hh"
#include "common/file_io.hh"
#include "common/json.hh"
#include "common/state_io.hh"

namespace unison {

namespace {

constexpr std::uint32_t kResultMagic = 0x43525355u; // 'USRC'
constexpr std::uint32_t kWarmMagic = 0x53575355u;   // 'USWS'

const std::string kTempPrefix = ".tmp.";

std::string
objectPayload(const std::string &spec_fp, const std::string &code_version,
              const ExperimentSpec &spec, const SimResult &result)
{
    json::Value out{json::Object{}};
    out.set("storeRecord", std::int64_t{1});
    out.set("specFingerprint", spec_fp);
    out.set("codeVersion", code_version);
    out.set("spec", specToJson(spec));
    out.set("result", resultToJson(result));
    return json::write(out);
}

std::vector<std::uint8_t>
bytesOf(const std::string &text)
{
    return {text.begin(), text.end()};
}

bool
endsWith(const std::string &name, const std::string &suffix)
{
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** True when `name` is a temp file whose publisher is gone: the
 *  `<pid>` of `.tmp.<pid>.<seq>` names no live process. */
bool
orphanedTemp(const std::string &name)
{
    const char *begin = name.data() + kTempPrefix.size();
    const char *end = name.data() + name.size();
    pid_t pid = 0;
    const auto r = std::from_chars(begin, end, pid);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != '.' || pid <= 0)
        return false; // not a name this store writes: leave it alone
    return ::kill(pid, 0) != 0 && errno == ESRCH;
}

/** Read the one-frame object at `path` into `payload`; "" on success,
 *  else why its bytes cannot be trusted. */
std::string
readObject(const std::string &path, std::uint32_t magic,
           std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> bytes;
    const SimStatus read = readFileBytes(path, bytes);
    if (!read.ok())
        return read.message;

    FrameWalker walker(bytes.data(), bytes.size(), magic);
    const std::uint8_t *data = nullptr;
    std::size_t len = 0;
    if (!walker.next(data, len))
        return walker.torn() ? walker.tornReason() : "empty object file";
    if (walker.validBytes() != bytes.size())
        return "trailing bytes after object record";
    payload.assign(data, data + len);
    return "";
}

} // namespace

ResultStore::ResultStore(std::string dir, std::string code_version)
    : dir_(std::move(dir)), codeVersion_(std::move(code_version)),
      versionTag_(gridFingerprint(codeVersion_))
{
    if (!dir_.empty() && dir_.back() == '/')
        dir_.pop_back();
    // Best-effort create (store root, then the objects level); a
    // failure surfaces as save warnings, never as a run failure. The
    // root's fsync makes the objects/ entry itself durable.
    ::mkdir(dir_.c_str(), 0777);
    ::mkdir((dir_ + "/objects").c_str(), 0777);
    const SimStatus synced = syncDirectory(dir_);
    if (!synced.ok())
        structuredWarn("store-save-failed",
                       {{"path", dir_}, {"reason", synced.message}});
}

std::string
ResultStore::objectPath(const std::string &spec_fp) const
{
    return dir_ + "/objects/" + spec_fp + "." + versionTag_ + ".res";
}

std::string
ResultStore::warmObjectPath(const std::string &warm_key) const
{
    return dir_ + "/objects/" + gridFingerprint(warm_key) + "." +
           versionTag_ + ".ckpt";
}

bool
ResultStore::publish(const std::string &path, std::uint32_t magic,
                     const void *payload, std::size_t len)
{
    const auto fail = [&](const std::string &reason) {
        structuredWarn("store-save-failed",
                       {{"path", path}, {"reason", reason}});
        return false;
    };
    // The reader rejects any frame over the bound, so publishing one
    // would only plant an object that can never hit.
    if (len > kMaxRecordFrameBytes)
        return fail("payload of " + std::to_string(len) +
                    " bytes exceeds the " +
                    std::to_string(kMaxRecordFrameBytes) +
                    "-byte record-frame bound");

    // Dot-prefixed temp in the same directory: invisible to lookup,
    // and rename() is atomic within one filesystem, so a reader sees
    // either no object or a whole one -- never a torn write, even
    // against kill -9. The directory fsync after the rename makes the
    // new name itself survive a power cut.
    const std::string objects = dir_ + "/objects";
    const std::string tmp = objects + "/" + kTempPrefix +
                            std::to_string(::getpid()) + "." +
                            std::to_string(tmpSeq_.fetch_add(1));
    std::vector<std::uint8_t> frame;
    appendRecordFrame(frame, magic, payload, len);
    const SimStatus wrote = writeFileBytes(tmp, frame);
    if (!wrote.ok()) {
        ::unlink(tmp.c_str());
        return fail(wrote.message);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return fail("cannot publish temp object");
    }
    const SimStatus synced = syncDirectory(objects);
    if (!synced.ok())
        return fail(synced.message);
    return true;
}

bool
ResultStore::lookup(const ExperimentSpec &spec, SimResult &out)
{
    return lookupFp(specFingerprint(spec), out);
}

bool
ResultStore::lookupFp(const std::string &spec_fp, SimResult &out)
{
    const std::string path = objectPath(spec_fp);
    if (!fileExists(path)) {
        ++misses_;
        return false;
    }

    // Every rejection below degrades to "simulate it" -- which is
    // always correct -- but says why, so tests and operators can tell
    // bit rot from version skew from a misplaced file.
    const auto reject = [&](const std::string &reason) {
        structuredWarn("store-rejected", {{"path", path},
                                          {"reason", reason},
                                          {"fallback", "simulate"}});
        ++misses_;
        return false;
    };

    std::vector<std::uint8_t> payload;
    const std::string damage = readObject(path, kResultMagic, payload);
    if (!damage.empty())
        return reject(damage);

    try {
        const json::Value doc = json::parse(
            std::string(payload.begin(), payload.end()));
        json::ObjectReader r(doc, "store object");
        if (r.req("storeRecord").asInt() != 1)
            throw json::Error("unknown store record version");
        const std::string rec_fp = r.req("specFingerprint").asString();
        const std::string rec_version =
            r.req("codeVersion").asString();
        const ExperimentSpec spec = specFromJson(r.req("spec"));
        const SimResult result = resultFromJson(r.req("result"));
        if (rec_version != codeVersion_)
            return reject("code version mismatch: object " +
                          rec_version + ", store " + codeVersion_);
        // Recompute the address from the embedded spec: a file whose
        // name merely collides (or was renamed into place) cannot
        // substitute a foreign result.
        if (rec_fp != spec_fp || specFingerprint(spec) != spec_fp)
            return reject("spec fingerprint mismatch");
        out = result;
    } catch (const json::Error &e) {
        return reject(std::string("object does not parse: ") +
                      e.what());
    }

    ++hits_;
    return true;
}

void
ResultStore::insert(const ExperimentSpec &spec, const SimResult &result)
{
    insertFp(specFingerprint(spec), spec, result);
}

void
ResultStore::insertFp(const std::string &spec_fp,
                      const ExperimentSpec &spec, const SimResult &result)
{
    const std::string payload =
        objectPayload(spec_fp, codeVersion_, spec, result);
    if (publish(objectPath(spec_fp), kResultMagic, payload.data(),
                payload.size()))
        ++inserts_;
}

bool
ResultStore::lookupWarm(const std::string &warm_key, WarmCheckpoint &out)
{
    const std::string path = warmObjectPath(warm_key);
    if (!fileExists(path))
        return false;

    // Any doubt degrades to a cold warm-up, which is always correct.
    const auto reject = [&](const std::string &reason) {
        structuredWarn("store-rejected", {{"path", path},
                                          {"reason", reason},
                                          {"fallback", "cold-warmup"}});
        return false;
    };

    std::vector<std::uint8_t> payload;
    const std::string damage = readObject(path, kWarmMagic, payload);
    if (!damage.empty())
        return reject(damage);

    // Payload: [code version][warm-prefix key][u64 warmAccesses]
    // [state] (vectors carry their own length prefixes). The embedded
    // version and key guard against stale builds, hash collisions and
    // misplaced files whose name matches but whose prefix does not.
    StateReader in(payload);
    std::vector<std::uint8_t> version, key;
    in.podVectorResize(version);
    in.podVectorResize(key);
    WarmCheckpoint ck;
    in.pod(ck.warmAccesses);
    in.podVectorResize(ck.bytes);
    in.expectEnd();
    if (!in.ok())
        return reject(in.status().message);
    if (version != bytesOf(codeVersion_))
        return reject("code version mismatch: object " +
                      std::string(version.begin(), version.end()) +
                      ", store " + codeVersion_);
    if (key != bytesOf(warm_key))
        return reject("warm-prefix key mismatch");
    if (!ck.valid())
        return reject("empty warm snapshot");

    out = std::move(ck);
    ++warmHits_;
    return true;
}

void
ResultStore::saveWarm(const std::string &warm_key,
                      const WarmCheckpoint &ck)
{
    if (!ck.valid())
        return;
    StateWriter w;
    w.podVector(bytesOf(codeVersion_));
    w.podVector(bytesOf(warm_key));
    w.pod(ck.warmAccesses);
    w.podVector(ck.bytes);
    const std::vector<std::uint8_t> payload = std::move(w).take();
    if (publish(warmObjectPath(warm_key), kWarmMagic, payload.data(),
                payload.size()))
        ++warmSaves_;
}

void
ResultStore::pin(const std::string &spec_fp)
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    pinned_.insert(spec_fp);
}

void
ResultStore::unpin(const std::string &spec_fp)
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    const auto it = pinned_.find(spec_fp);
    if (it != pinned_.end())
        pinned_.erase(it);
}

StoreGcSummary
ResultStore::gc(std::uint64_t max_bytes)
{
    StoreGcSummary sum;

    struct Entry
    {
        std::string name;
        std::uint64_t bytes = 0;
        std::int64_t mtime = 0;
    };
    std::vector<Entry> entries, temps;

    const std::string objects = dir_ + "/objects";
    DIR *d = ::opendir(objects.c_str());
    if (d == nullptr)
        return sum;
    while (const dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        // Objects and our own temp files only: anything else a future
        // format drops here is not ours to evict.
        const bool temp = name.rfind(kTempPrefix, 0) == 0;
        if (!temp && (name[0] == '.' || !(endsWith(name, ".res") ||
                                          endsWith(name, ".ckpt"))))
            continue;
        struct stat st{};
        if (::stat((objects + "/" + name).c_str(), &st) != 0 ||
            !S_ISREG(st.st_mode))
            continue;
        (temp ? temps : entries)
            .push_back({name, static_cast<std::uint64_t>(st.st_size),
                        static_cast<std::int64_t>(st.st_mtime)});
    }
    ::closedir(d);

    sum.scanned = entries.size();
    sum.temps = temps.size();
    for (const Entry &e : entries)
        sum.bytesBefore += e.bytes;
    for (const Entry &e : temps)
        sum.bytesBefore += e.bytes;
    sum.bytesAfter = sum.bytesBefore;

    // A publisher killed mid-write leaves its temp file behind; once
    // its pid is gone nobody will ever rename or unlink it.
    for (const Entry &e : temps) {
        if (!orphanedTemp(e.name) ||
            ::unlink((objects + "/" + e.name).c_str()) != 0)
            continue;
        ++sum.orphansRemoved;
        sum.bytesAfter -= e.bytes;
    }
    if (sum.bytesAfter <= max_bytes)
        return sum;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.name < b.name;
              });

    std::set<std::string> pinned_names;
    {
        std::lock_guard<std::mutex> lock(pinMutex_);
        for (const std::string &fp : pinned_)
            pinned_names.insert(fp + "." + versionTag_ + ".res");
    }

    for (const Entry &e : entries) {
        if (sum.bytesAfter <= max_bytes)
            break;
        if (pinned_names.count(e.name) != 0) {
            ++sum.pinnedKept;
            continue;
        }
        if (::unlink((objects + "/" + e.name).c_str()) != 0)
            continue;
        ++sum.evicted;
        sum.bytesAfter -= e.bytes;
    }
    return sum;
}

// ---------------------------------------------------- runner adapter

StoreCacheHook::StoreCacheHook(ResultStore &store,
                               const std::vector<ExperimentSpec> &specs)
    : store_(store), specs_(specs), hit_(specs.size(), 0)
{
    fps_.reserve(specs_.size());
    for (const ExperimentSpec &spec : specs_)
        fps_.push_back(specFingerprint(spec));
    for (const std::string &fp : fps_)
        store_.pin(fp);
}

StoreCacheHook::~StoreCacheHook()
{
    for (const std::string &fp : fps_)
        store_.unpin(fp);
}

bool
StoreCacheHook::lookupResult(std::size_t index, SimResult &out)
{
    if (!store_.lookupFp(fps_[index], out))
        return false;
    hit_[index] = 1;
    ++hits_;
    return true;
}

void
StoreCacheHook::recordResult(std::size_t index, const SimResult &result)
{
    store_.insertFp(fps_[index], specs_[index], result);
}

bool
StoreCacheHook::lookupWarm(const std::string &warm_key,
                           WarmCheckpoint &out)
{
    return store_.lookupWarm(warm_key, out);
}

void
StoreCacheHook::saveWarm(const std::string &warm_key,
                         const WarmCheckpoint &ck)
{
    store_.saveWarm(warm_key, ck);
}

} // namespace unison
