// perf_sender: an open-loop, paced producer for the tcp_paced_durable
// workload, speaking the engine's wire protocol (net/wire.h) over TCP.
//
//   perf_sender --trace <in.bin> --speedup <x> --stats <out.json>
//
// It listens on an ephemeral loopback port (printed on stdout), accepts one
// consumer, answers its HELLO with an ACK, and then replays the trace on an
// absolute schedule: record i is due at t0 + (ts_i - ts_0) / speedup, where
// t0 is the moment the ACK went out. The sender wakes on a fixed 100 us tick,
// like a NIC's interrupt-moderation timer, and sends the records that fell
// due since the previous tick as one DATA frame, so frame sizes follow the
// feed's rate and not the host's timer jitter. A sender that fell behind
// sends everything overdue (at most kMaxRecordsPerFrame per frame) without
// sleeping, catching up instead of drifting. A record is due at the
// generator at its tick, the first tick at or after its due time: lateness
// is the send time minus the tick of the frame's first record, and the
// benchmark times paced window-close latency from the same tick (tick_ns in
// the stats). The schedule never waits for the consumer — a slow engine
// shows as queueing, not as a slower feed.
//
// streamop_send --rate cannot serve here: it sleeps a fixed time after every
// frame, so it under-delivers the requested rate (see README.md).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/trace_generator.h"
#include "net/wire.h"

using namespace streamop;

namespace {

constexpr uint64_t kTickNs = 100000;

uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

bool SendAll(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool RecvExact(int fd, uint8_t* data, size_t len, int timeout_ms) {
  while (len > 0) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

double QuantileMs(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return static_cast<double>(v[k]) * 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, stats_path;
  double speedup = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    if (a == "--trace") {
      trace_path = argv[i + 1];
    } else if (a == "--speedup") {
      speedup = std::atof(argv[i + 1]);
    } else if (a == "--stats") {
      stats_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "perf_sender: unknown option %s\n", a.c_str());
      return 2;
    }
  }
  if (trace_path.empty() || stats_path.empty() || speedup <= 0.0) {
    std::fprintf(stderr,
                 "usage: perf_sender --trace <in> --speedup <x> --stats <out>\n");
    return 2;
  }
  Result<Trace> loaded = Trace::LoadFrom(trace_path);
  if (!loaded.ok() || loaded->empty()) {
    std::fprintf(stderr, "perf_sender: cannot load %s\n", trace_path.c_str());
    return 1;
  }
  const std::vector<PacketRecord>& recs = loaded->packets();
  // Wake-ups are the schedule's resolution; the default 50 us timer slack
  // would add that much lateness to every frame.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t alen = sizeof(addr);
  if (lfd < 0 ||
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
    std::perror("perf_sender: listen");
    return 1;
  }
  std::printf("%u\n", static_cast<unsigned>(ntohs(addr.sin_port)));
  std::fflush(stdout);

  pollfd lp{lfd, POLLIN, 0};
  if (::poll(&lp, 1, 30000) <= 0) {
    std::fprintf(stderr, "perf_sender: no consumer connected\n");
    return 1;
  }
  const int fd = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (fd < 0) return 1;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  uint8_t hdr[kFrameHeaderSize];
  FrameHeader hello;
  if (!RecvExact(fd, hdr, sizeof(hdr), 10000) ||
      !DecodeFrameHeader(hdr, sizeof(hdr), &hello) ||
      hello.type != FrameType::kHello || hello.seq >= recs.size()) {
    std::fprintf(stderr, "perf_sender: bad handshake\n");
    return 1;
  }
  const uint64_t start = hello.seq;
  BuildFrame(FrameType::kAck, start, nullptr, 0, hdr);
  if (!SendAll(fd, hdr, sizeof(hdr))) return 1;
  const uint64_t t0 = MonoNs();
  const uint64_t ts0 = recs[start].ts_ns;
  auto due = [&](uint64_t i) {
    return t0 + static_cast<uint64_t>(
                    static_cast<double>(recs[i].ts_ns - ts0) / speedup);
  };

  std::vector<uint8_t> frame(kFrameHeaderSize +
                             kMaxRecordsPerFrame * kWireRecordSize);
  std::vector<uint64_t> lateness;
  uint64_t pos = start;
  while (pos < recs.size()) {
    // The first tick at or after record pos's due time.
    const uint64_t tick = t0 + (due(pos) - t0 + kTickNs - 1) / kTickNs * kTickNs;
    if (MonoNs() < tick) {
      timespec ts{static_cast<time_t>(tick / 1000000000ull),
                  static_cast<long>(tick % 1000000000ull)};
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
             EINTR) {
      }
    }
    const uint64_t now = MonoNs();
    // Everything due by the last tick that has passed: one tick's records
    // on time, all overdue ones when catching up.
    const uint64_t limit = t0 + (now - t0) / kTickNs * kTickNs;
    uint64_t end = pos + 1;
    while (end < recs.size() && end - pos < kMaxRecordsPerFrame &&
           due(end) <= limit) {
      ++end;
    }
    lateness.push_back(now - tick);
    const size_t len = BuildFrame(FrameType::kData, pos, &recs[pos],
                                  end - pos, frame.data());
    if (!SendAll(fd, frame.data(), len)) {
      std::fprintf(stderr, "perf_sender: consumer went away at %llu\n",
                   static_cast<unsigned long long>(pos));
      return 1;
    }
    pos = end;
  }
  BuildFrame(FrameType::kFin, recs.size(), nullptr, 0, hdr);
  SendAll(fd, hdr, sizeof(hdr));
  // Hold the connection until the consumer has read the FIN and closed.
  ::shutdown(fd, SHUT_WR);
  uint8_t sink[256];
  while (RecvExact(fd, sink, 1, 10000)) {
  }
  ::close(fd);

  std::FILE* f = std::fopen(stats_path.c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\"t0_ns\": %llu, \"ts0_ns\": %llu, \"tick_ns\": %llu, "
               "\"speedup\": %.17g, \"frames\": %zu, \"records\": %llu, "
               "\"lateness_p50_ms\": %.6f, \"lateness_p90_ms\": %.6f, "
               "\"lateness_max_ms\": %.6f}\n",
               static_cast<unsigned long long>(t0),
               static_cast<unsigned long long>(ts0),
               static_cast<unsigned long long>(kTickNs), speedup,
               lateness.size(),
               static_cast<unsigned long long>(recs.size() - start),
               QuantileMs(lateness, 0.5), QuantileMs(lateness, 0.9),
               QuantileMs(lateness, 1.0));
  return std::fclose(f) == 0 ? 0 : 1;
}
