/**
 * @file
 * ArccdServer: newline-delimited JSON over a Unix domain socket.
 *
 * The transport half of arccd, layered over SimService.  Each
 * accepted connection is one fair-queueing client and gets two
 * threads:
 *
 *  - a *reader* that splits the byte stream into request lines, so a
 *    client may pipeline any number of requests without waiting, and
 *    admits each one on the spot (SimService::admit: the line's one
 *    parse and its one counted cache lookup).  A line that needs no
 *    simulation -- a cache hit, a malformed line, stats, shutdown --
 *    is answered by the reader itself: it sends the response when
 *    every earlier response has been sent and nobody holds the send
 *    token, and parks it otherwise.  A miss enters the service's fair
 *    queue already parsed, and its worker parks the response.
 *  - a *writer* that sends parked responses strictly in request
 *    order.  Workers complete out of order; responses wait in a
 *    per-connection reorder buffer keyed by the request's sequence
 *    number until their turn, and the writer is woken only when a
 *    parked response becomes the next one to send.
 *
 * The send token (Connection::sending) lets one thread at a time
 * write to the socket, so the bytes of two responses never
 * interleave.  The reader sends without waiting and parks whatever a
 * full socket did not take for the writer to finish, so a client that
 * pipelines without reading never stalls the reader.  A closed-loop
 * client's hit thus costs two thread hand-offs (client -> reader ->
 * client), where a miss takes the reader, a worker and the writer.
 * One line in, one line out, order preserved -- that is the whole
 * wire contract.
 *
 * A "shutdown" request is acknowledged in order like any response;
 * after writing the ack the server's shutdown latch trips, waking
 * whoever sits in waitForShutdown() (the arccd main).  Stopping the
 * server closes the listener and both ends of every connection, then
 * joins all threads; the service destructor answers anything still
 * queued.
 */

#ifndef ARCC_SERVICE_SERVER_HH
#define ARCC_SERVICE_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/sim_service.hh"

namespace arcc
{

/** The arccd daemon core: listener + connections + service. */
class ArccdServer
{
  public:
    struct Options
    {
        /** Unix socket path; bound fresh (stale files unlinked). */
        std::string socketPath;
        SimService::Options service;
        /** Reject request lines longer than this (a malformed client
         *  must not buffer the daemon into the ground). */
        std::size_t maxLineBytes = 1 << 20;
    };

    explicit ArccdServer(const Options &options);

    /** stop()s if still running. */
    ~ArccdServer();

    /**
     * Bind, listen, and start accepting.
     * @return true on success; false sets `error`.
     */
    bool start(std::string &error);

    /** Block until a client's "shutdown" request has been answered
     *  (or until stop() is called from another thread). */
    void waitForShutdown();

    /** Close the listener and every connection, join all threads. */
    void stop();

    SimService &service() { return service_; }
    const std::string &socketPath() const { return options_.socketPath; }

  private:
    /** One accepted connection; owned via shared_ptr because service
     *  callbacks may outlive the socket. */
    struct Connection
    {
        int fd = -1;
        std::uint64_t clientId = 0;
        std::thread reader;
        std::thread writer;

        std::mutex mutex;
        /** Signalled when the response at `written` is parked while
         *  nobody sends, and when the reader closes. */
        std::condition_variable ready;
        /** Responses waiting for their turn, by sequence number (a
         *  response the reader could send only in part waits here
         *  with the bytes still to send). */
        std::map<std::uint64_t, ServiceResponse> completed;
        std::uint64_t submitted = 0;
        /** Sequence number of the next response to send. */
        std::uint64_t written = 0;
        /** The send token: a thread is writing response `written`. */
        bool sending = false;
        /** Reader saw EOF / error; writer drains and exits. */
        bool closed = false;
    };

    void acceptLoop();
    void readerLoop(const std::shared_ptr<Connection> &conn);
    void writerLoop(const std::shared_ptr<Connection> &conn);
    /** Reader: send response `seq` now if it is next and the token is
     *  free, else park it. */
    void answer(Connection &conn, std::uint64_t seq,
                ServiceResponse response);
    /** Park response `seq`, waking the writer if it is next. */
    static void park(Connection &conn, std::uint64_t seq,
                     ServiceResponse response);
    void requestShutdown();

    Options options_;
    SimService service_;
    int listenFd_ = -1;
    std::thread acceptor_;
    std::uint64_t nextClientId_ = 1;

    std::mutex mutex_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;
    bool running_ = false;
    std::vector<std::shared_ptr<Connection>> connections_;
};

} // namespace arcc

#endif // ARCC_SERVICE_SERVER_HH
