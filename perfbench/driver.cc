#include "driver.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/rng.h"
#include "net/wire.h"
#include "pattern/catalog.h"

namespace perfbench {
namespace {

using light::Status;
using light::net::Request;
using light::net::Response;

constexpr int kConnections = 4;
// An open phase whose backlog exceeds this many requests is cut short, and
// the open phases after it are skipped.
constexpr int64_t kMaxOutstanding = 512;
// After the last request is sent, answers still missing this much later
// count as failed.
constexpr int64_t kDrainNs = 60'000'000'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Connect(int port, int* out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("connect: " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  *out = fd;
  return Status::OK();
}

class Client {
 public:
  Client(const Workload& workload, const DriveOptions& options,
         std::vector<Record>* records)
      : workload_(workload),
        options_(options),
        records_(records),
        rng_(options.seed ^ 0x0bde'4a11ULL) {}

  ~Client() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Run() {
    for (int i = 0; i < kConnections; ++i) {
      int fd = -1;
      LIGHT_RETURN_IF_ERROR(Connect(options_.port, &fd));
      conns_.push_back(Conn{fd, {}, {}});
    }
    t0_ = NowNs() + 2'000'000;  // let the first due time lie ahead
    int64_t phase_start = t0_;
    bool cut = false;  // an open phase overflowed: skip the open ones left
    for (size_t p = 0; p < options_.phases.size(); ++p) {
      const Phase& phase = options_.phases[p];
      const auto length = static_cast<int64_t>(phase.seconds * 1e9);
      if (phase.warm) {
        for (uint32_t q = 0; q < workload_.queries.size(); ++q) {
          LIGHT_RETURN_IF_ERROR(Send(NowNs(), static_cast<uint32_t>(p), q));
          LIGHT_RETURN_IF_ERROR(Drain(NowNs() + kDrainNs));
        }
        phase_start = NowNs();
        continue;
      }
      if (phase.window > 0) {
        const int64_t end = std::max(phase_start, NowNs()) + length;
        for (int64_t now = NowNs(); now < end; now = NowNs()) {
          if (outstanding_ < phase.window) {
            LIGHT_RETURN_IF_ERROR(
                Send(now, static_cast<uint32_t>(p), NextQuery()));
          } else {
            LIGHT_RETURN_IF_ERROR(Pump(end - now));
          }
        }
        LIGHT_RETURN_IF_ERROR(Drain(NowNs() + kDrainNs));
        phase_start = NowNs();
        continue;
      }
      const auto count = static_cast<int64_t>(phase.rate * phase.seconds);
      for (int64_t i = 0; i < count && !cut; ++i) {
        const int64_t due =
            phase_start + static_cast<int64_t>(std::llround(
                              static_cast<double>(i) * 1e9 / phase.rate));
        for (int64_t now = NowNs(); now < due; now = NowNs()) {
          LIGHT_RETURN_IF_ERROR(Pump(due - now));
        }
        LIGHT_RETURN_IF_ERROR(
            Send(due, static_cast<uint32_t>(p), NextQuery()));
        cut = outstanding_ > kMaxOutstanding;
      }
      if (cut) {
        LIGHT_RETURN_IF_ERROR(Drain(NowNs() + kDrainNs));
        phase_start = NowNs();
        while (p + 1 < options_.phases.size() &&
               !options_.phases[p + 1].warm &&
               options_.phases[p + 1].window == 0) {
          ++p;
        }
        cut = false;
      } else {
        phase_start += length;
      }
    }
    return Drain(NowNs() + kDrainNs);
  }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
  };

  uint32_t NextQuery() {
    const size_t n = workload_.queries.size();
    const uint64_t seq = records_->size();
    return static_cast<uint32_t>(workload_.random_order ? rng_.NextBounded(n)
                                                        : seq % n);
  }

  Status Send(int64_t due, uint32_t phase, uint32_t query) {
    Record r;
    r.query = query;
    r.phase = phase;
    r.due_ns = due - t0_;
    const Query& q = workload_.queries[r.query];
    Request req;
    req.id = records_->size();
    req.edges = WireEdges(q.pattern);
    req.threads = q.threads;
    req.induced = q.induced;
    Conn& conn = conns_[req.id % conns_.size()];
    light::net::AppendFrame(req.Encode(), &conn.out);
    r.send_ns = NowNs() - t0_;
    records_->push_back(r);
    ++outstanding_;
    return Flush(&conn);
  }

  Status Flush(Conn* conn) {
    while (!conn->out.empty()) {
      const ssize_t n = ::send(conn->fd, conn->out.data(), conn->out.size(),
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
        if (errno == EINTR) continue;
        return Status::IOError(std::string("send: ") + std::strerror(errno));
      }
      conn->out.erase(0, static_cast<size_t>(n));
    }
    return Status::OK();
  }

  Status Drain(int64_t deadline) {
    for (int64_t now = NowNs(); outstanding_ > 0 && now < deadline;
         now = NowNs()) {
      LIGHT_RETURN_IF_ERROR(Pump(deadline - now));
    }
    return Status::OK();
  }

  // Waits up to `timeout_ns` for socket events and handles them.
  Status Pump(int64_t timeout_ns) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      fds.push_back(pollfd{
          c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
          0});
    }
    timespec ts{};
    ts.tv_sec = timeout_ns / 1'000'000'000;
    ts.tv_nsec = timeout_ns % 1'000'000'000;
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) return Status::OK();
      return Status::IOError(std::string("ppoll: ") + std::strerror(errno));
    }
    for (size_t i = 0; i < fds.size() && ready > 0; ++i) {
      Conn& conn = conns_[i];
      if (fds[i].revents & POLLOUT) LIGHT_RETURN_IF_ERROR(Flush(&conn));
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        LIGHT_RETURN_IF_ERROR(Read(&conn));
      }
    }
    return Status::OK();
  }

  Status Read(Conn* conn) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n == 0) return Status::IOError("server closed the connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return Status::IOError(std::string("recv: ") + std::strerror(errno));
      }
      conn->in.append(buf, static_cast<size_t>(n));
    }
    const int64_t now = NowNs() - t0_;
    std::string payload;
    for (;;) {
      const int got = light::net::TryExtractFrame(&conn->in, &payload);
      if (got < 0) return Status::IOError("oversized frame from server");
      if (got == 0) break;
      Response resp;
      LIGHT_RETURN_IF_ERROR(Response::Decode(payload, &resp));
      if (resp.id >= records_->size()) {
        return Status::IOError("response to unknown request id");
      }
      Record& r = (*records_)[resp.id];
      if (r.outcome != Outcome::kLost) {
        return Status::IOError("duplicate response");
      }
      r.recv_ns = now;
      r.matches = resp.matches;
      r.plan_ns = resp.plan_ns;
      r.queue_wait_ns = resp.queue_wait_ns;
      r.execute_ns = resp.execute_ns;
      r.total_ns = resp.total_ns;
      r.plan_cache_hit = resp.plan_cache_hit;
      if (resp.status != "ok" || resp.timed_out) {
        r.outcome = Outcome::kError;
      } else if (resp.matches != workload_.queries[r.query].expected) {
        r.outcome = Outcome::kWrongCount;
      } else {
        r.outcome = Outcome::kOk;
      }
      --outstanding_;
      if (options_.spans != nullptr) RecordSpan(resp.id, r);
    }
    return Status::OK();
  }

  void RecordSpan(uint64_t id, const Record& r) {
    Span s;
    s.name = "net.request";
    s.id = id + 1;
    s.start_ns = t0_ + r.send_ns;
    s.end_ns = t0_ + r.recv_ns;
    s.attrs = {{"query", r.query},
               {"due_ns", static_cast<double>(t0_ + r.due_ns)},
               {"plan_ns", static_cast<double>(r.plan_ns)},
               {"queue_wait_ns", static_cast<double>(r.queue_wait_ns)},
               {"execute_ns", static_cast<double>(r.execute_ns)},
               {"total_ns", static_cast<double>(r.total_ns)},
               {"plan_cache_hit", r.plan_cache_hit ? 1.0 : 0.0},
               {"ok", r.outcome == Outcome::kOk ? 1.0 : 0.0}};
    options_.spans->push_back(std::move(s));
  }

  const Workload& workload_;
  const DriveOptions& options_;
  std::vector<Record>* records_;
  light::Rng rng_;
  std::vector<Conn> conns_;
  int64_t t0_ = 0;
  int64_t outstanding_ = 0;
};

}  // namespace

Status ParsePhases(const std::string& text, std::vector<Phase>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    Phase phase;
    bool ok = false;
    if (item == "warm") {
      phase.warm = ok = true;
    } else if (item.starts_with("c")) {
      ok = std::sscanf(item.c_str(), "c%d:%lf", &phase.window,
                       &phase.seconds) == 2 &&
           phase.window > 0 && phase.seconds > 0;
    } else {
      ok = std::sscanf(item.c_str(), "%lf:%lf", &phase.rate,
                       &phase.seconds) == 2 &&
           phase.rate > 0 && phase.seconds > 0;
    }
    if (!ok) return Status::InvalidArgument("bad phase '" + item + "'");
    out->push_back(phase);
    pos = end + 1;
  }
  if (out->empty()) return Status::InvalidArgument("no phases");
  return Status::OK();
}

Status Drive(const Workload& workload, const DriveOptions& options,
             std::vector<Record>* records) {
  records->clear();
  Client client(workload, options, records);
  return client.Run();
}

Status TimeSetUp(const Workload& workload,
                 const std::vector<std::string>& server_argv,
                 double* seconds, bool* ok) {
  std::vector<char*> argv;
  for (const std::string& a : server_argv) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  int out[2];
  if (::pipe(out) != 0) return Status::IOError(std::strerror(errno));
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  const int64_t start = NowNs();
  pid_t pid = -1;
  const int err = ::posix_spawn(&pid, argv[0], &actions, nullptr,
                                argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (err != 0) {
    ::close(out[0]);
    return Status::IOError(std::string("spawn: ") + std::strerror(err));
  }
  // light_server prints "listening on <port>" once it accepts.
  std::string line;
  char c = 0;
  while (::read(out[0], &c, 1) == 1 && c != '\n') line += c;
  ::close(out[0]);
  int port = 0;
  Status s = std::sscanf(line.c_str(), "listening on %d", &port) == 1
                 ? Status::OK()
                 : Status::IOError("server did not start");
  std::vector<Record> records;
  if (s.ok()) {
    Query triangle;
    triangle.name = "triangle";
    LIGHT_CHECK(light::FindPattern("triangle", &triangle.pattern).ok());
    triangle.threads = workload.queries.front().threads;
    triangle.expected = workload.triangles;
    Workload probe;
    probe.queries = {triangle};
    DriveOptions options;
    options.port = port;
    options.phases = {Phase{.warm = true}};
    s = Drive(probe, options, &records);
  }
  *seconds = static_cast<double>(NowNs() - start) / 1e9;
  *ok = s.ok() && records.size() == 1 && records[0].outcome == Outcome::kOk;
  ::kill(pid, SIGTERM);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return s;
}

Status WriteRecords(const std::string& path,
                    const std::vector<Record>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  for (const Record& r : records) {
    std::fprintf(f, "%u\t%u\t%lld\t%lld\t%lld\t%d\t%llu\t%llu\t%llu\t%llu\t%llu\t%d\n",
                 r.query, r.phase, static_cast<long long>(r.due_ns),
                 static_cast<long long>(r.send_ns),
                 static_cast<long long>(r.recv_ns),
                 static_cast<int>(r.outcome),
                 static_cast<unsigned long long>(r.matches),
                 static_cast<unsigned long long>(r.plan_ns),
                 static_cast<unsigned long long>(r.queue_wait_ns),
                 static_cast<unsigned long long>(r.execute_ns),
                 static_cast<unsigned long long>(r.total_ns),
                 r.plan_cache_hit ? 1 : 0);
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot write " + path);
}

}  // namespace perfbench
