/**
 * @file
 * The sweep-serving wire protocol: newline-delimited JSON documents
 * over a connected stream socket (one message per line, rendered by
 * json::writeCompact so a document can never contain a raw newline).
 *
 * # Requests (client -> server)
 *
 *     {"op":"submit","spec":<unison-spec/5 or unison-grid/1 doc>}
 *     {"op":"ping"}
 *     {"op":"shutdown"}
 *
 * # Replies (server -> client)
 *
 *     {"reply":"pong","codeVersion":...}
 *     {"reply":"point","index":N,"label":...,"source":...,
 *      "spec":...,"result":...}              (streamed, one per point,
 *                                             in completion order)
 *     {"reply":"done","gridName":...,"gridHash":...,"points":N,
 *      "storeHits":N,"peerHits":N,"simulated":N}
 *     {"reply":"error","class":"usage|io|corrupt-input","message":...}
 *
 * A submit streams `point` replies as points complete (store hits
 * first, immediately), then exactly one `done`; any failure replaces
 * the remainder of the stream with one `error` whose class maps onto
 * the SimError taxonomy, so a scripted client can exit with the same
 * classified code a local run would have. The connection stays usable
 * for further requests after `done` or `error`.
 *
 * `point.source` says how the result was obtained -- "store" (content-
 * addressed hit), "peer" (a concurrent submission was already
 * computing it), "dup" (an earlier point of the same submission), or
 * "simulated" -- which is diagnostic only: the bytes are identical by
 * the substitution contract.
 */

#ifndef UNISON_SERVE_PROTOCOL_HH
#define UNISON_SERVE_PROTOCOL_HH

#include <string>

#include "common/error.hh"
#include "common/json.hh"
#include "sim/spec_json.hh"

namespace unison {
namespace serve {

/** Sanity bound on one wire line; a runaway peer must classify as a
 *  protocol error, not an unbounded allocation. */
inline constexpr std::size_t kMaxLineBytes = 64u << 20;

/**
 * One JSON document per '\n'-terminated line over a connected socket.
 * Reading never throws on peer misbehaviour smaller than an I/O error
 * (EOF is a clean false; an over-long line is a SimError so the caller
 * drops the connection); writing reports a vanished peer as false so
 * the server can keep simulating for the store after a client hangs
 * up.
 */
class LineChannel
{
  public:
    explicit LineChannel(int fd) : fd_(fd) {}

    /** Read and parse the next line. False on clean EOF; throws
     *  SimError(Io) on read failure or an over-long line, json::Error
     *  on a malformed document. */
    bool readDoc(json::Value &out);

    /** Write one document as a single line. False when the peer is
     *  gone (EPIPE/ECONNRESET); other write failures throw Io. */
    bool writeDoc(const json::Value &doc);

  private:
    int fd_;
    std::string buf_;
};

/** @name Request builders */
/**@{*/
json::Value submitRequest(json::Value spec_doc);
json::Value pingRequest();
json::Value shutdownRequest();
/**@}*/

/** @name Reply builders */
/**@{*/
json::Value pongReply();
json::Value pointReply(const ResultPoint &point, const char *source);
json::Value doneReply(const std::string &grid_name,
                      const std::string &grid_hash, std::size_t points,
                      std::uint64_t store_hits, std::uint64_t peer_hits,
                      std::uint64_t simulated);
json::Value errorReply(SimErrc code, const std::string &message);
/**@}*/

/** Reverse of simErrcName, for clients reconstructing a SimError from
 *  an error reply; unknown names classify as Io (the conservative
 *  "environment misbehaved" class). */
SimErrc errcFromName(const std::string &name);

} // namespace serve
} // namespace unison

#endif // UNISON_SERVE_PROTOCOL_HH
