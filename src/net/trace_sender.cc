#include "net/trace_sender.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

namespace streamop {

namespace {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1000000000 + ts.tv_nsec;
}

int64_t NowMs() { return NowNs() / 1000000; }

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Status ResolveIpv4(const std::string& host, uint16_t port, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  const std::string addr = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, addr.c_str(), &out->sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  return Status::OK();
}

/// Blocking send of a whole buffer over a nonblocking TCP fd. Returns
/// false when the peer is gone (EPIPE/ECONNRESET) or `stop` flips.
bool SendAll(int fd, const uint8_t* data, size_t len,
             const std::atomic<bool>& stop) {
  size_t off = 0;
  while (off < len) {
    if (stop.load(std::memory_order_relaxed)) return false;
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer closed or hard error
  }
  return true;
}

/// Reads exactly `len` bytes within `timeout_ms`. Returns false on EOF,
/// timeout, or error.
bool RecvExact(int fd, uint8_t* data, size_t len, int timeout_ms,
               const std::atomic<bool>& stop) {
  size_t off = 0;
  const int64_t deadline = NowMs() + timeout_ms;
  while (off < len) {
    if (stop.load(std::memory_order_relaxed)) return false;
    const int64_t left = deadline - NowMs();
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(std::min<int64_t>(left, 100)));
    if (r <= 0) continue;
    const ssize_t n = ::recv(fd, data + off, len - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n == 0) {
      return false;  // peer closed
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
  }
  return true;
}

}  // namespace

TraceSender::TraceSender(TraceSenderConfig config)
    : config_(std::move(config)) {
  if (config_.records_per_frame == 0) config_.records_per_frame = 1;
  config_.records_per_frame =
      std::min(config_.records_per_frame, kMaxRecordsPerFrame);
  pace_.records_per_sec = config_.records_per_sec;
}

TraceSender::~TraceSender() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

uint64_t TraceSender::ClampResume(uint64_t requested) const {
  const uint64_t total = config_.records.size();
  uint64_t floor = 0;
  if (config_.replay_window > 0 && high_water_ > config_.replay_window) {
    floor = high_water_ - config_.replay_window;
  }
  return std::min(std::max(requested, floor), total);
}

bool TraceSender::ShouldDrop(uint64_t frame_index) const {
  return config_.drop_every_nth_frame > 0 &&
         (frame_index + 1) % config_.drop_every_nth_frame == 0;
}

size_t TraceSender::BuildDataFrame(uint64_t pos, uint64_t frame_index,
                                   uint8_t* out, size_t* n_records) const {
  const uint64_t total = config_.records.size();
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(config_.records_per_frame, total - pos));
  const size_t len =
      BuildFrame(FrameType::kData, pos, config_.records.data() + pos, n, out);
  if (config_.corrupt_every_nth_frame > 0 && n > 0 &&
      (frame_index + 1) % config_.corrupt_every_nth_frame == 0) {
    out[kFrameHeaderSize] ^= 0xff;  // payload no longer matches the CRC
  }
  *n_records = n;
  return len;
}

void TraceSender::RestartPacing() {
  if (config_.records_per_sec > 0) pace_.Restart(NowNs());
}

void TraceSender::RateLimitPause(size_t records_in_frame) {
  if (config_.records_per_sec <= 0 || records_in_frame == 0) return;
  const int64_t wait_ns = pace_.Book(records_in_frame, NowNs());
  if (wait_ns <= 0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
  nanosleep(&ts, nullptr);
}

Status TraceSender::RunUdp(const std::string& host, uint16_t port) {
  sockaddr_in dst;
  Status st = ResolveIpv4(host, port, &dst);
  if (!st.ok()) return st;

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return Status::IOError("udp socket: " + std::string(strerror(errno)));
  SetNonBlocking(fd);

  const uint64_t total = config_.records.size();
  std::vector<uint8_t> frame(kFrameHeaderSize +
                             config_.records_per_frame * kWireRecordSize);
  uint8_t ctrl[kFrameHeaderSize];
  uint64_t pos = 0;
  bool streaming = false;
  bool fin_sent = false;
  int64_t handshake_deadline = NowMs() + config_.handshake_timeout_ms;
  int64_t linger_deadline = -1;

  auto send_control = [&](FrameType type, uint64_t seq) {
    const size_t len = BuildFrame(type, seq, nullptr, 0, ctrl);
    (void)::sendto(fd, ctrl, len, 0, reinterpret_cast<sockaddr*>(&dst),
                   sizeof(dst));
  };

  // Drains incoming datagrams; a HELLO re-arms streaming from the
  // requested (clamped) offset.
  auto poll_hello = [&](int timeout_ms) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0 || !(p.revents & POLLIN)) return;
    uint8_t in[kFrameHeaderSize + 64];
    for (;;) {
      const ssize_t n = ::recvfrom(fd, in, sizeof(in), MSG_DONTWAIT, nullptr,
                                   nullptr);
      if (n <= 0) break;
      FrameHeader h;
      if (DecodeFrameHeader(in, static_cast<size_t>(n), &h) &&
          h.type == FrameType::kHello) {
        pos = ClampResume(h.seq);
        send_control(FrameType::kAck, pos);
        RestartPacing();
        streaming = true;
        fin_sent = false;
        linger_deadline = -1;
        stats_.handshakes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    if (!streaming) {
      send_control(FrameType::kHeartbeat, high_water_);
      poll_hello(config_.heartbeat_interval_ms);
      if (!streaming && stats_.handshakes.load(std::memory_order_relaxed) == 0 &&
          NowMs() > handshake_deadline) {
        ::close(fd);
        return Status::IOError("udp handshake timeout: no HELLO from consumer");
      }
    } else if (pos < total) {
      poll_hello(0);
      if (stop_.load(std::memory_order_relaxed)) break;
      size_t n = 0;
      const size_t len = BuildDataFrame(pos, frame_counter_, frame.data(), &n);
      if (!ShouldDrop(frame_counter_)) {
        (void)::sendto(fd, frame.data(), len, 0,
                       reinterpret_cast<sockaddr*>(&dst), sizeof(dst));
        stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
        stats_.records_sent.fetch_add(n, std::memory_order_relaxed);
      }
      ++frame_counter_;
      pos += n;
      high_water_ = std::max(high_water_, pos);
      RateLimitPause(n);
    } else {
      if (!fin_sent && config_.send_fin) {
        send_control(FrameType::kFin, total);
        fin_sent = true;
      }
      if (linger_deadline < 0) linger_deadline = NowMs() + config_.linger_ms;
      const int64_t left = linger_deadline - NowMs();
      if (left <= 0) break;
      poll_hello(static_cast<int>(std::min<int64_t>(left, 50)));
    }
  }
  ::close(fd);
  return Status::OK();
}

Status TraceSender::BindTcp(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("tcp socket: " + std::string(strerror(errno)));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st =
        Status::IOError("tcp bind: " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  tcp_port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 4) != 0) {
    const Status st =
        Status::IOError("tcp listen: " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  SetNonBlocking(listen_fd_);
  return Status::OK();
}

Status TraceSender::RunTcp(uint16_t port) {
  Status st = BindTcp(port);
  if (!st.ok()) return st;
  return ServeTcp();
}

void TraceSender::ServeConnection(int fd, bool* delivered) {
  // A connection opens with the consumer's HELLO naming its resume offset.
  uint8_t hdr[kFrameHeaderSize];
  if (!RecvExact(fd, hdr, kFrameHeaderSize, config_.handshake_timeout_ms,
                 stop_)) {
    return;
  }
  FrameHeader h;
  if (!DecodeFrameHeader(hdr, kFrameHeaderSize, &h) ||
      h.type != FrameType::kHello) {
    return;
  }
  uint64_t pos = ClampResume(h.seq);
  stats_.handshakes.fetch_add(1, std::memory_order_relaxed);
  uint8_t ctrl[kFrameHeaderSize];
  size_t clen = BuildFrame(FrameType::kAck, pos, nullptr, 0, ctrl);
  if (!SendAll(fd, ctrl, clen, stop_)) return;
  RestartPacing();

  const uint64_t total = config_.records.size();
  std::vector<uint8_t> frame(kFrameHeaderSize +
                             config_.records_per_frame * kWireRecordSize);
  uint64_t frames_on_conn = 0;
  while (pos < total && !stop_.load(std::memory_order_relaxed)) {
    size_t n = 0;
    const size_t len = BuildDataFrame(pos, frame_counter_, frame.data(), &n);
    const bool drop = ShouldDrop(frame_counter_);
    ++frame_counter_;
    ++frames_on_conn;
    const bool kill_now = config_.kill_connection_after_frames > 0 &&
                          frames_on_conn >= config_.kill_connection_after_frames;
    if (!drop) {
      size_t send_len = len;
      if (kill_now && config_.kill_mid_frame) send_len = len / 2;
      if (!SendAll(fd, frame.data(), send_len, stop_)) return;
      stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
      stats_.records_sent.fetch_add(n, std::memory_order_relaxed);
    }
    pos += n;
    high_water_ = std::max(high_water_, pos);
    if (kill_now) {
      // Close abruptly; the consumer reconnects and resumes via HELLO.
      stats_.kills.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    RateLimitPause(n);
  }
  if (pos >= total) {
    if (config_.send_fin) {
      clen = BuildFrame(FrameType::kFin, total, nullptr, 0, ctrl);
      SendAll(fd, ctrl, clen, stop_);
    }
    *delivered = true;
  }
}

Status TraceSender::ServeTcp() {
  if (listen_fd_ < 0) {
    return Status::InvalidArgument("ServeTcp called before BindTcp");
  }
  bool delivered = false;
  int64_t linger_deadline = -1;
  const int64_t handshake_deadline = NowMs() + config_.handshake_timeout_ms;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (delivered) {
      if (linger_deadline < 0) linger_deadline = NowMs() + config_.linger_ms;
      if (NowMs() >= linger_deadline) break;
    } else if (stats_.connections.load(std::memory_order_relaxed) == 0 &&
               NowMs() > handshake_deadline) {
      return Status::IOError("tcp handshake timeout: no consumer connected");
    }
    pollfd p{listen_fd_, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    SetNonBlocking(conn);
    int one = 1;
    setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    ServeConnection(conn, &delivered);
    ::close(conn);
  }
  return Status::OK();
}

}  // namespace streamop
