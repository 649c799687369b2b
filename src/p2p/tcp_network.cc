#include "p2p/tcp_network.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "p2p/wire.h"

namespace hyperion {

namespace {

// Adds `n` to the tcp transport counter `name`, through a handle
// looked up once per name.
template <obs::MetricName name>
void RecordTcpCounter(uint64_t n = 1) {
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter* const counter =
        obs::MetricRegistry::Default().GetCounter(name.text,
                                                  {{"network", "tcp"}});
    counter->Add(n);
  }
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Fills `addr` from a numeric IPv4 "host" + port; false on bad input.
bool FillAddr(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const char* h = host == "localhost" ? "127.0.0.1" : host.c_str();
  return ::inet_pton(AF_INET, h, &addr->sin_addr) == 1;
}

// Splits "host:port"; false on malformed input.
bool SplitHostPort(const std::string& host_port, std::string* host,
                   uint16_t* port) {
  size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon + 1 == host_port.size()) {
    return false;
  }
  *host = host_port.substr(0, colon);
  long p = 0;
  for (size_t i = colon + 1; i < host_port.size(); ++i) {
    char c = host_port[i];
    if (c < '0' || c > '9') return false;
    p = p * 10 + (c - '0');
    if (p > 65535) return false;
  }
  *port = static_cast<uint16_t>(p);
  return p != 0;
}

// Per-instance origin token: distinguishes this network's frames from a
// remote instance's even when both run on one host (mixes pid with a
// process-local counter so two instances in one process differ too).
uint64_t NewOriginToken() {
  static std::atomic<uint64_t> counter{1};
  return (static_cast<uint64_t>(::getpid()) << 32) ^
         counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TcpNetwork::WakeupPipe::WakeupPipe() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    SetNonBlocking(fds[0]);
    SetNonBlocking(fds[1]);
    read_fd = fds[0];
    write_fd = fds[1];
  }
}

TcpNetwork::WakeupPipe::~WakeupPipe() {
  if (read_fd >= 0) ::close(read_fd);
  if (write_fd >= 0) ::close(write_fd);
}

TcpNetwork::TcpNetwork() : TcpNetwork(Options()) {}

TcpNetwork::TcpNetwork(Options options)
    : options_(std::move(options)),
      origin_token_(NewOriginToken()),
      remote_peers_(options_.remote_peers) {}

TcpNetwork::~TcpNetwork() {
  Stop(/*drain_timeout_us=*/0);
  MutexLock lock(mutex_);
  for (auto& [id, peer] : peers_) {
    (void)id;
    if (peer.listen_fd >= 0) ::close(peer.listen_fd);
  }
}

Status TcpNetwork::BindListener(PeerState* peer) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  uint16_t want_port = options_.base_port == 0
                           ? 0
                           : static_cast<uint16_t>(options_.base_port +
                                                   peers_.size() - 1);
  sockaddr_in addr;
  if (!FillAddr(options_.listen_host, want_port, &addr)) {
    ::close(fd);
    return Status::InvalidArgument("bad listen host '" +
                                   options_.listen_host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    Status s = Status::Internal("bind/listen on " + options_.listen_host +
                                ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::Internal(std::string("getsockname(): ") +
                            std::strerror(errno));
  }
  SetNonBlocking(fd);
  peer->listen_fd = fd;
  peer->port = ntohs(addr.sin_port);
  return Status::OK();
}

Status TcpNetwork::RegisterPeer(const std::string& id, Handler handler) {
  if (id.empty()) {
    return Status::InvalidArgument("peer id must be nonempty");
  }
  MutexLock lock(mutex_);
  if (auto it = peers_.find(id); it != peers_.end()) {
    if (it->second.handler) {
      return Status::AlreadyExists("peer '" + id + "' already registered");
    }
    // Detached: its listener and connections were kept for this.
    it->second.handler = std::move(handler);
    return Status::OK();
  }
  PeerState peer;
  peer.id = id;
  peer.handler = std::move(handler);
  auto it = peers_.emplace(id, std::move(peer)).first;
  Status bound = BindListener(&it->second);
  if (!bound.ok()) {
    peers_.erase(it);
    return bound;
  }
  WakeLoop();  // a running loop polls the new listener from its next pass
  return Status::OK();
}

void TcpNetwork::DetachPeer(const std::string& id) {
  MutexLock lock(mutex_);
  if (auto it = peers_.find(id); it != peers_.end()) {
    it->second.handler = nullptr;
  }
}

Result<uint16_t> TcpNetwork::ListenPort(const std::string& peer) const {
  MutexLock lock(mutex_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    return Status::NotFound("unknown peer '" + peer + "'");
  }
  return it->second.port;
}

void TcpNetwork::SetRemotePeer(const std::string& id,
                               const std::string& host_port) {
  MutexLock lock(mutex_);
  remote_peers_[id] = host_port;
}

void TcpNetwork::SetFaultPlan(FaultPlan plan) {
  MutexLock lock(mutex_);
  faults_.SetPlan(std::move(plan));
}

void TcpNetwork::DecrementOutstanding() {
  if (--outstanding_ == 0) quiescent_cv_.NotifyAll();
}

void TcpNetwork::Wakeup() {
  if (wakeup_.write_fd < 0) return;
  char b = 1;
  // A full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wakeup_.write_fd, &b, 1);
}

void TcpNetwork::WakeLoop() {
  // The loop rebuilds its poll set and timeout after every handler and
  // timer callback, so a call made from one needs no wakeup.
  if (std::this_thread::get_id() != loop_id_) Wakeup();
}

void TcpNetwork::StageFrame(const std::string& dest, std::string frame,
                            bool local_dest) {
  OutConn& conn = out_conns_[dest];
  conn.dest = dest;
  OutFrame out;
  out.bytes = std::move(frame);
  out.local_dest = local_dest;
  out.counted = true;
  conn.queue.push_back(std::move(out));
}

Status TcpNetwork::Send(Message msg) {
  std::string frame = wire::EncodeFrame(msg, origin_token_);
  // == msg.ByteSize(), counted once
  const size_t bytes = frame.size() - wire::kFrameHeaderBytes;
  MutexLock lock(mutex_);
  bool local_dest = peers_.count(msg.to) > 0;
  if (!local_dest && !remote_peers_.count(msg.to)) {
    return Status::NotFound("unknown destination peer '" + msg.to + "'");
  }
  RecordNetworkSend<"tcp">(msg, bytes);
  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  stats_.messages_by_type[msg.TypeName()] += 1;

  FaultInjector::SendDecision decision =
      faults_.OnSend(msg.from, msg.to, now_us());
  if (decision.dropped) {
    stats_.drops_injected += 1;
    RecordFaultEvent("net.drops_injected", "tcp");
    return Status::OK();
  }
  const size_t copies = decision.copy_jitter_us.size();
  if (copies > 1) {
    stats_.duplicates_injected += copies - 1;
    RecordFaultEvent("net.duplicates_injected", "tcp");
  }
  for (size_t i = 0; i < copies; ++i) {
    ++outstanding_;
    // The last copy takes the frame; only injected duplicates copy it.
    std::string copy = i + 1 == copies ? std::move(frame) : frame;
    int64_t jitter = decision.copy_jitter_us[i];
    if (jitter > 0) {
      PendingEntry entry;
      entry.peer = msg.to;
      entry.frame = std::move(copy);
      entry.is_frame = true;
      entry.local_dest = local_dest;
      pending_.emplace(now_us() + jitter, std::move(entry));
    } else {
      StageFrame(msg.to, std::move(copy), local_dest);
    }
  }
  WakeLoop();
  return Status::OK();
}

Result<Network::TimerId> TcpNetwork::ScheduleTimer(const std::string& peer,
                                                   int64_t delay_us,
                                                   TimerCallback cb) {
  MutexLock lock(mutex_);
  if (!peers_.count(peer)) {
    return Status::NotFound("unknown timer peer '" + peer + "'");
  }
  if (delay_us < 0) {
    return Status::InvalidArgument("timer delay must be >= 0");
  }
  PendingEntry entry;
  entry.id = next_timer_id_++;
  entry.peer = peer;
  entry.cb = std::move(cb);
  TimerId id = entry.id;
  const int64_t due = now_us() + delay_us;
  live_timers_.emplace(id, due);
  ++outstanding_;
  // The loop sleeps no later than the earliest pending entry, so only a
  // new earliest one needs to wake it.
  const bool earliest = pending_.empty() || due < pending_.begin()->first;
  pending_.emplace(due, std::move(entry));
  if (earliest) WakeLoop();
  return id;
}

void TcpNetwork::CancelTimer(TimerId id) {
  if (id == 0) return;
  MutexLock lock(mutex_);
  auto live = live_timers_.find(id);
  if (live == live_timers_.end()) return;  // already ran (or never existed)
  // A live timer is still pending (the loop pops an entry and retires its
  // id under one lock), among the entries due at its own instant.
  for (auto [it, last] = pending_.equal_range(live->second); it != last;
       ++it) {
    if (it->second.id == id) {
      pending_.erase(it);
      live_timers_.erase(live);
      DecrementOutstanding();
      return;
    }
  }
}

void TcpNetwork::StartConnect(OutConn* conn) {
  std::string host;
  uint16_t port = 0;
  auto local = peers_.find(conn->dest);
  if (local != peers_.end()) {
    host = options_.listen_host;
    port = local->second.port;
  } else {
    auto remote = remote_peers_.find(conn->dest);
    if (remote == remote_peers_.end() ||
        !SplitHostPort(remote->second, &host, &port)) {
      AbandonConn(conn, /*retry=*/false);
      return;
    }
  }
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr)) {
    AbandonConn(conn, /*retry=*/false);
    return;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    AbandonConn(conn, /*retry=*/false);
    return;
  }
  SetNonBlocking(fd);
  SetNoDelay(fd);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    conn->fd = fd;
    conn->connecting = false;
    if (conn->attempts > 0) {
      tcp_stats_.reconnects += 1;
      RecordTcpCounter<"net.tcp.reconnects">();
    }
    conn->attempts = 0;
    tcp_stats_.connects += 1;
    RecordTcpCounter<"net.tcp.connects">();
    FlushConn(conn);
    return;
  }
  if (errno == EINPROGRESS) {
    conn->fd = fd;
    conn->connecting = true;
    return;
  }
  ::close(fd);
  conn->attempts += 1;
  int64_t backoff = options_.reconnect_backoff_us;
  for (int i = 1; i < conn->attempts &&
                  backoff < options_.max_reconnect_backoff_us;
       ++i) {
    backoff *= 2;
  }
  if (backoff > options_.max_reconnect_backoff_us) {
    backoff = options_.max_reconnect_backoff_us;
  }
  conn->next_attempt_us = now_us() + backoff;
}

void TcpNetwork::AbandonConn(OutConn* conn, bool retry) {
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->connecting = false;
  // The front frame may be partially written: its bytes on the wire are
  // now a truncated stream the receiver discards, so every queued frame
  // is lost here.  The reliability layer (reliable_link.h) sees plain
  // loss and retransmits.
  for (OutFrame& frame : conn->queue) {
    tcp_stats_.connect_failures += 1;
    RecordTcpCounter<"net.tcp.connect_failures">();
    if (frame.counted) DecrementOutstanding();
  }
  conn->queue.clear();
  conn->attempts = 0;
  conn->next_attempt_us =
      now_us() + (retry ? options_.max_reconnect_backoff_us : 0);
}

void TcpNetwork::FlushConn(OutConn* conn) {
  while (!conn->queue.empty()) {
    OutFrame& frame = conn->queue.front();
    while (frame.offset < frame.bytes.size()) {
      ssize_t n = ::send(conn->fd, frame.bytes.data() + frame.offset,
                         frame.bytes.size() - frame.offset, MSG_NOSIGNAL);
      if (n > 0) {
        frame.offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;  // poll for POLLOUT
      }
      // Broken connection: the stream is corrupt mid-frame — drop the
      // queue and let the reliability layer retransmit.
      conn->attempts += 1;
      AbandonConn(conn, /*retry=*/true);
      return;
    }
    tcp_stats_.frames_sent += 1;
    tcp_stats_.bytes_sent += frame.bytes.size();
    RecordTcpCounter<"net.tcp.frames_sent">();
    RecordTcpCounter<"net.tcp.bytes_sent">(frame.bytes.size());
    // Local frames stay counted until their handler runs (the frame
    // comes back through our own listener); remote frames leave our
    // quiescence scope once the kernel has all their bytes.
    if (frame.counted && !frame.local_dest) DecrementOutstanding();
    conn->queue.pop_front();
  }
}

int64_t TcpNetwork::NextDueUs() const {
  int64_t due = -1;
  if (!pending_.empty()) due = pending_.begin()->first;
  for (const auto& [dest, conn] : out_conns_) {
    (void)dest;
    if (conn.fd >= 0 || conn.connecting || conn.queue.empty()) continue;
    if (due < 0 || conn.next_attempt_us < due) due = conn.next_attempt_us;
  }
  return due;
}

void TcpNetwork::LoopThread() {
  std::vector<pollfd> fds;
  // Parallel to `fds`: what each entry is.
  enum class FdKind { kWakeup, kListener, kIn, kOut };
  struct FdMeta {
    FdKind kind;
    std::string key;  // peer id (listener/out) or "" (wakeup); fd for in
    int fd;
  };
  std::vector<FdMeta> meta;

  MutexLock lock(mutex_);
  loop_id_ = std::this_thread::get_id();
  while (!stopping_) {
    int64_t now = now_us();

    // 1. Connection maintenance: start due connects, abandon hopeless
    //    destinations.
    for (auto& [dest, conn] : out_conns_) {
      (void)dest;
      if (conn.fd >= 0 || conn.connecting || conn.queue.empty()) continue;
      if (conn.attempts >= options_.max_connect_attempts) {
        AbandonConn(&conn, /*retry=*/false);
        continue;
      }
      if (now >= conn.next_attempt_us) StartConnect(&conn);
    }

    // 2. Fire due pending entries (timers and jitter-delayed frames).
    while (!pending_.empty() && pending_.begin()->first <= now_us()) {
      PendingEntry entry = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      if (entry.is_frame) {
        // Jitter elapsed: the copy hits the wire now.  Crash windows are
        // not checked here — they gate delivery at the receiving end.
        StageFrame(entry.peer, std::move(entry.frame), entry.local_dest);
        continue;
      }
      live_timers_.erase(entry.id);
      if (faults_.PeerDownAt(entry.peer, now_us())) {
        stats_.crash_discards += 1;
        RecordFaultEvent("net.crash_discards", "tcp");
        DecrementOutstanding();
        continue;
      }
      if (auto peer = peers_.find(entry.peer);
          peer == peers_.end() || !peer->second.handler) {
        DecrementOutstanding();  // detached peers' timers do not fire
        continue;
      }
      stats_.timers_fired += 1;
      lock.Unlock();
      entry.cb();  // may Send()/ScheduleTimer(), re-locking mutex_
      lock.Lock();
      DecrementOutstanding();
    }

    // 3. Build the poll set.
    fds.clear();
    meta.clear();
    fds.push_back({wakeup_.read_fd, POLLIN, 0});
    meta.push_back({FdKind::kWakeup, "", wakeup_.read_fd});
    for (auto& [id, peer] : peers_) {
      fds.push_back({peer.listen_fd, POLLIN, 0});
      meta.push_back({FdKind::kListener, id, peer.listen_fd});
    }
    for (auto& [fd, conn] : in_conns_) {
      (void)conn;
      fds.push_back({fd, POLLIN, 0});
      meta.push_back({FdKind::kIn, "", fd});
    }
    for (auto& [dest, conn] : out_conns_) {
      if (conn.fd < 0) continue;
      short events = POLLIN;  // remote close shows up as POLLIN/EOF
      if (conn.connecting || !conn.queue.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      meta.push_back({FdKind::kOut, dest, conn.fd});
    }
    int64_t due = NextDueUs();
    int timeout_ms = -1;
    if (due >= 0) {
      int64_t wait = due - now_us();
      timeout_ms = wait <= 0 ? 0 : static_cast<int>((wait + 999) / 1000);
    }

    lock.Unlock();
    int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    lock.Lock();
    if (stopping_) break;
    if (ready <= 0) continue;  // timeout / EINTR: re-run maintenance

    std::vector<Delivery> deliveries;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const FdMeta& m = meta[i];
      switch (m.kind) {
        case FdKind::kWakeup: {
          char buf[256];
          while (::read(wakeup_.read_fd, buf, sizeof(buf)) > 0) {
          }
          break;
        }
        case FdKind::kListener: {
          auto peer = peers_.find(m.key);
          if (peer == peers_.end()) break;
          for (;;) {
            int fd = ::accept(peer->second.listen_fd, nullptr, nullptr);
            if (fd < 0) break;
            SetNonBlocking(fd);
            SetNoDelay(fd);
            InConn conn;
            conn.fd = fd;
            conn.peer = m.key;
            in_conns_.emplace(fd, std::move(conn));
          }
          break;
        }
        case FdKind::kIn: {
          auto it = in_conns_.find(m.fd);
          if (it == in_conns_.end()) break;
          InConn& conn = it->second;
          bool closed = false;
          char buf[65536];
          for (;;) {
            ssize_t n = ::read(conn.fd, buf, sizeof(buf));
            if (n > 0) {
              conn.inbuf.append(buf, static_cast<size_t>(n));
              continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            closed = true;  // EOF or error; partial frame is discarded
            break;
          }
          // Frames are consumed by offset; the buffer drops them all at
          // once below, so each byte moves at most once per read.
          bool corrupt = false;
          size_t consumed = 0;
          for (;;) {
            Result<wire::FrameView> peeked = wire::PeekFrame(
                std::string_view(conn.inbuf).substr(consumed));
            if (!peeked.ok()) {
              corrupt = true;
              break;
            }
            const wire::FrameView& view = peeked.value();
            if (!view.complete) break;
            tcp_stats_.frames_received += 1;
            tcp_stats_.bytes_received += view.consumed;
            RecordTcpCounter<"net.tcp.frames_received">();
            RecordTcpCounter<"net.tcp.bytes_received">(view.consumed);
            Result<Message> msg = wire::DecodeMessage(view.payload);
            if (!msg.ok()) {
              corrupt = true;
              break;
            }
            Delivery d;
            d.peer = conn.peer;
            d.msg = std::move(msg).value();
            d.counted = view.origin_token == origin_token_;
            deliveries.push_back(std::move(d));
            consumed += view.consumed;
          }
          conn.inbuf.erase(0, consumed);
          if (corrupt) {
            tcp_stats_.frames_bad += 1;
            RecordTcpCounter<"net.tcp.frames_bad">();
            closed = true;
          }
          if (closed) {
            ::close(conn.fd);
            in_conns_.erase(it);
          }
          break;
        }
        case FdKind::kOut: {
          auto it = out_conns_.find(m.key);
          if (it == out_conns_.end() || it->second.fd != m.fd) break;
          OutConn& conn = it->second;
          if (conn.connecting) {
            int err = 0;
            socklen_t len = sizeof(err);
            ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
            if (err != 0) {
              ::close(conn.fd);
              conn.fd = -1;
              conn.connecting = false;
              conn.attempts += 1;
              int64_t backoff = options_.reconnect_backoff_us;
              for (int a = 1; a < conn.attempts &&
                              backoff < options_.max_reconnect_backoff_us;
                   ++a) {
                backoff *= 2;
              }
              if (backoff > options_.max_reconnect_backoff_us) {
                backoff = options_.max_reconnect_backoff_us;
              }
              conn.next_attempt_us = now_us() + backoff;
              break;
            }
            conn.connecting = false;
            if (conn.attempts > 0) {
              tcp_stats_.reconnects += 1;
              RecordTcpCounter<"net.tcp.reconnects">();
            }
            conn.attempts = 0;
            tcp_stats_.connects += 1;
            RecordTcpCounter<"net.tcp.connects">();
          }
          if (fds[i].revents & (POLLERR | POLLHUP)) {
            conn.attempts += 1;
            AbandonConn(&conn, /*retry=*/true);
            break;
          }
          FlushConn(&conn);
          break;
        }
      }
    }

    // 4. Run handlers for the parsed frames, one at a time (the single
    //    loop thread is what serializes all handlers).
    for (Delivery& d : deliveries) {
      auto peer = peers_.find(d.peer);
      if (peer == peers_.end() || !peer->second.handler) {
        if (d.counted) DecrementOutstanding();  // detached: dropped
        continue;
      }
      if (faults_.PeerDownAt(d.peer, now_us())) {
        stats_.crash_discards += 1;
        RecordFaultEvent("net.crash_discards", "tcp");
        if (d.counted) DecrementOutstanding();
        continue;
      }
      Handler handler = peer->second.handler;
      lock.Unlock();
      handler(d.msg);  // may Send(), re-locking mutex_
      lock.Lock();
      if (d.counted) DecrementOutstanding();
      if (stopping_) return;
    }
  }
}

Status TcpNetwork::Start() {
  MutexLock lock(mutex_);
  if (wakeup_.read_fd < 0) {
    return Status::Internal("wakeup pipe unavailable");
  }
  if (running_) return Status::OK();
  running_ = true;
  stopping_ = false;
  loop_ = std::thread([this] { LoopThread(); });
  return Status::OK();
}

bool TcpNetwork::RunUntil(const std::function<bool()>& pred,
                          int64_t timeout_us) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout_us);
  for (;;) {
    if (pred()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    MutexLock lock(mutex_);
    // Pure polling sleep: whether we woke by notify or timeout, the loop
    // re-checks pred() and the deadline from scratch.
    const bool notified =
        quiescent_cv_.WaitFor(mutex_, std::chrono::milliseconds(1));
    (void)notified;
  }
}

void TcpNetwork::Stop(int64_t drain_timeout_us) {
  std::thread loop;
  {
    MutexLock lock(mutex_);
    if (!running_) return;
    if (drain_timeout_us > 0) {
      // Best-effort drain: if the predicate never becomes true we stop
      // anyway, so the timed-out case needs no separate handling.
      const bool drained = quiescent_cv_.WaitFor(
          mutex_, std::chrono::microseconds(drain_timeout_us),
          [this]() REQUIRES(mutex_) { return outstanding_ == 0; });
      (void)drained;
    }
    // Claim the join under the lock (-Wthread-safety caught loop_ being
    // joined with no lock held: two concurrent Stop() calls would both
    // reach join() on the same std::thread).
    if (stopping_ || !loop_.joinable()) return;
    stopping_ = true;
    loop = std::move(loop_);
  }
  Wakeup();
  loop.join();
  MutexLock lock(mutex_);
  loop_id_ = std::thread::id();
  for (auto& [fd, conn] : in_conns_) {
    (void)conn;
    ::close(fd);
  }
  in_conns_.clear();
  for (auto& [dest, conn] : out_conns_) {
    (void)dest;
    if (conn.fd >= 0) ::close(conn.fd);
  }
  out_conns_.clear();
  pending_.clear();
  live_timers_.clear();
  outstanding_ = 0;
  running_ = false;
  stopping_ = false;
  quiescent_cv_.NotifyAll();
}

Status TcpNetwork::WaitQuiescent() {
  MutexLock lock(mutex_);
  if (!running_) {
    return Status::FailedPrecondition("the network is not running");
  }
  quiescent_cv_.Wait(mutex_, [this]() REQUIRES(mutex_) {
    return outstanding_ == 0 || stopping_;
  });
  return Status::OK();
}

Result<int64_t> TcpNetwork::Run() {
  auto start = std::chrono::steady_clock::now();
  {
    MutexLock lock(mutex_);
    if (running_) {
      return Status::FailedPrecondition("Run() is not reentrant");
    }
  }
  HYP_RETURN_IF_ERROR(Start());
  HYP_RETURN_IF_ERROR(WaitQuiescent());
  Stop(/*drain_timeout_us=*/0);
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int64_t TcpNetwork::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

NetworkStats TcpNetwork::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void TcpNetwork::ResetStats() {
  MutexLock lock(mutex_);
  stats_ = NetworkStats();
  tcp_stats_ = TcpStats();
}

TcpStats TcpNetwork::tcp_stats() const {
  MutexLock lock(mutex_);
  return tcp_stats_;
}

}  // namespace hyperion
