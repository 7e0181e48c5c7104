/**
 * @file
 * ArccdServer implementation.
 */

#include "service/server.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"

namespace arcc
{

namespace
{

std::string
errorLine(const std::string &message)
{
    return "{\"ok\":false,\"error\":" + json::quote(message) + "}";
}

/**
 * Send `body` and its '\n' as one message over two buffers (no copy).
 * Blocks until all of it is sent, unless `dontWait`: then it stops
 * where the socket is full.
 * @return the bytes of `body` + '\n' sent; -1 when the peer is gone.
 */
ssize_t
sendLine(int fd, const std::string &body, bool dontWait)
{
    static char newline = '\n';
    const std::size_t total = body.size() + 1;
    std::size_t sent = 0;
    while (sent < total) {
        iovec iov[2];
        int parts = 0;
        if (sent < body.size())
            iov[parts++] = {const_cast<char *>(body.data()) + sent,
                            body.size() - sent};
        iov[parts++] = {&newline, 1};
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(parts);
        const ssize_t n = ::sendmsg(
            fd, &msg, MSG_NOSIGNAL | (dontWait ? MSG_DONTWAIT : 0));
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && dontWait && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n <= 0)
            return -1;
        sent += static_cast<std::size_t>(n);
    }
    return static_cast<ssize_t>(sent);
}

} // anonymous namespace

ArccdServer::ArccdServer(const Options &options)
    : options_(options), service_(options.service)
{
}

ArccdServer::~ArccdServer()
{
    stop();
}

bool
ArccdServer::start(std::string &error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.empty() ||
        options_.socketPath.size() >= sizeof addr.sun_path) {
        error = "socket path must be 1.." +
                std::to_string(sizeof addr.sun_path - 1) + " bytes";
        return false;
    }
    std::memcpy(addr.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // A stale socket file from a dead daemon would fail the bind;
    // a *live* daemon keeps serving and the second one fails below.
    ::unlink(options_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0 ||
        ::listen(listenFd_, 64) < 0) {
        error = std::string("bind/listen ") + options_.socketPath +
                ": " + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        running_ = true;
    }
    acceptor_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
ArccdServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed by stop().
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            // Threads are created under the lock so stop() can never
            // observe a registered connection with threads still
            // unstarted (it would skip the join).
            std::lock_guard<std::mutex> lock(mutex_);
            if (!running_) {
                ::close(fd);
                return;
            }
            conn->clientId = nextClientId_++;
            connections_.push_back(conn);
            conn->reader = std::thread(
                [this, conn] { readerLoop(conn); });
            conn->writer = std::thread(
                [this, conn] { writerLoop(conn); });
        }
    }
}

void
ArccdServer::readerLoop(const std::shared_ptr<Connection> &conn)
{
    std::string pending;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        pending.append(buf, static_cast<std::size_t>(n));

        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = pending.find('\n', start);
            if (nl == std::string::npos)
                break;
            const std::string line = pending.substr(start, nl - start);
            start = nl + 1;
            if (line.empty())
                continue;
            std::uint64_t seq;
            {
                std::lock_guard<std::mutex> lock(conn->mutex);
                seq = conn->submitted++;
            }
            SimService::Admission admission = service_.admit(line);
            if (admission.answer) {
                answer(*conn, seq, std::move(*admission.answer));
                continue;
            }
            service_.enqueue(conn->clientId, std::move(admission),
                             [conn, seq](const ServiceResponse &r) {
                                 park(*conn, seq, r);
                             });
        }
        pending.erase(0, start);

        if (pending.size() > options_.maxLineBytes) {
            // Answer the rejection in its slot like any response,
            // then stop reading this connection.
            std::uint64_t seq;
            {
                std::lock_guard<std::mutex> lock(conn->mutex);
                seq = conn->submitted++;
            }
            answer(*conn, seq,
                   ServiceResponse{
                       errorLine("request line exceeds " +
                                 std::to_string(options_.maxLineBytes) +
                                 " bytes"),
                       false});
            break;
        }
    }
    ::shutdown(conn->fd, SHUT_RD);
    {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->closed = true;
    }
    conn->ready.notify_all();
}

void
ArccdServer::answer(Connection &conn, std::uint64_t seq,
                    ServiceResponse response)
{
    {
        std::lock_guard<std::mutex> lock(conn.mutex);
        if (conn.sending || conn.written != seq) {
            // An earlier response is still owed or being sent; the
            // writer sends this one after it.
            conn.completed.emplace(seq, std::move(response));
            return;
        }
        conn.sending = true;
    }
    // Nothing else is owed on this connection: every earlier response
    // is sent and the next line is not read yet.
    const ssize_t n = sendLine(conn.fd, response.body, /*dontWait=*/true);
    if (n >= 0 && static_cast<std::size_t>(n) <= response.body.size()) {
        // The socket is full: the writer sends the rest.
        response.body.erase(0, static_cast<std::size_t>(n));
        {
            std::lock_guard<std::mutex> lock(conn.mutex);
            conn.sending = false;
        }
        park(conn, seq, std::move(response));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(conn.mutex);
        ++conn.written;
        conn.sending = false;
    }
    if (response.shutdown)
        requestShutdown();
}

void
ArccdServer::park(Connection &conn, std::uint64_t seq,
                  ServiceResponse response)
{
    bool next;
    {
        std::lock_guard<std::mutex> lock(conn.mutex);
        next = seq == conn.written && !conn.sending;
        conn.completed.emplace(seq, std::move(response));
    }
    if (next)
        conn.ready.notify_one();
}

void
ArccdServer::writerLoop(const std::shared_ptr<Connection> &conn)
{
    for (;;) {
        ServiceResponse response;
        {
            std::unique_lock<std::mutex> lock(conn->mutex);
            conn->ready.wait(lock, [&conn] {
                return (!conn->sending &&
                        conn->completed.count(conn->written) > 0) ||
                       (conn->closed &&
                        conn->written == conn->submitted);
            });
            const auto it = conn->completed.find(conn->written);
            if (it == conn->completed.end())
                return; // closed and fully drained.
            response = std::move(it->second);
            conn->completed.erase(it);
            conn->sending = true;
        }
        // A vanished peer still drains the buffer (callbacks keep
        // landing); the bytes just have nowhere to go.
        sendLine(conn->fd, response.body, /*dontWait=*/false);
        {
            std::lock_guard<std::mutex> lock(conn->mutex);
            ++conn->written;
            conn->sending = false;
        }
        if (response.shutdown)
            requestShutdown();
    }
}

void
ArccdServer::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
}

void
ArccdServer::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(mutex_);
    shutdownCv_.wait(lock, [this] { return shutdownRequested_; });
}

void
ArccdServer::stop()
{
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!running_)
            return;
        running_ = false;
    }
    // Closing the listener kicks accept() out of its wait.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    if (acceptor_.joinable())
        acceptor_.join();
    listenFd_ = -1;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        conns.swap(connections_);
    }
    for (const auto &conn : conns)
        ::shutdown(conn->fd, SHUT_RDWR);
    for (const auto &conn : conns) {
        if (conn->reader.joinable())
            conn->reader.join();
        if (conn->writer.joinable())
            conn->writer.join();
        ::close(conn->fd);
    }
    ::unlink(options_.socketPath.c_str());
    requestShutdown(); // release any waitForShutdown() caller.
}

} // namespace arcc
