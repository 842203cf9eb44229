// wire_open_loop: open-loop Poisson arrivals of ISOLET-shaped requests to
// a loopback net::NetServer in front of a runtime::Server with default
// options. One thread generates: it frames requests with the public codec
// (net::encode, net::FrameDecoder) over a few pipelined connections, and
// times each answer from its request's scheduled arrival, so a stall
// charges every request queued behind it.
//
// An untraced run holds the fixed reference rate for the whole run. A
// traced run first climbs a fixed rate ladder (the same rates on every
// commit), stopping at the first rate whose p99 misses the latency limit
// or whose backlog grows, then holds the reference rate for the rest. The
// rates are never derived from a measured throughput.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <memory>
#include <random>
#include <stdexcept>

#include "checks.h"
#include "tracer.h"
#include "univsa/net/net_client.h"
#include "univsa/net/net_server.h"
#include "univsa/net/protocol.h"
#include "univsa/net/router.h"
#include "univsa/runtime/backend.h"
#include "univsa/runtime/server.h"
#include "workloads.h"

namespace perfbench {

namespace uv = univsa;
namespace net = univsa::net;

namespace {

constexpr std::size_t kPool = 256;
constexpr std::size_t kConnections = 4;
/// Requests per second of the reference phase (throughput, p50_ms).
constexpr double kReferenceRate = 2000.0;
/// The fixed ladder net.max_rps climbs (traced run only).
constexpr double kLadder[] = {4000,  8000,  12000, 14000, 16000,
                              18000, 20000, 22000, 24000, 26000,
                              28000, 31000, 34000, 38000};
/// A ladder step passes when its p99 stays within this limit. The p99 is
/// taken per sixth of the step and the median of the six is compared, so
/// one stall of the shared host does not fail a step on its own.
constexpr double kLatencyLimitMs = 5.0;
constexpr std::size_t kStepWindows = 6;
/// More than this many requests outstanding stops a step at once as
/// failed (a growing backlog), far below the server's shed watermark.
constexpr std::size_t kAbortOutstanding = 384;
/// Answers per window of the reference phase's windowed p99 (0.5 s).
constexpr std::size_t kReferenceWindow = 1000;

struct Request {
  std::uint32_t sample = 0;
  std::uint64_t sched_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint32_t phase = 0;
  bool traced = false;
};

struct PhaseStats {
  std::vector<double> latency_ms;     // from scheduled arrival
  std::vector<double> rtt_us;         // from the send itself
  std::vector<double> lag_us;         // send - scheduled
  std::vector<double> traced_latency_ms;
  std::vector<double> untraced_latency_ms;
  std::size_t sent = 0;
  std::size_t completed = 0;
  std::size_t outstanding_at_end = 0;
  std::uint64_t traced_ns = 0;  // time with spans on
  bool aborted = false;
  double duration_s = 0.0;
};

class Generator {
 public:
  Generator(std::uint16_t port, const uv::vsa::ModelConfig& config,
            const std::vector<std::vector<std::uint16_t>>& values,
            const std::vector<uv::vsa::Prediction>& expected, Result& result)
      : config_(config), values_(values), expected_(expected),
        result_(result) {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
    for (std::size_t i = 0; i < kConnections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("socket failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        ::close(fd);
        throw std::runtime_error("connect failed");
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = fd;
    }
  }

  ~Generator() {
    for (const auto& conn : conns_) ::close(conn->fd);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Poisson arrivals at `rate` for `duration_s`, then waits until every
  /// request of the phase is answered. `spans` selects whether sends and
  /// receipts are traced (alternating slices in a traced run).
  PhaseStats run(double rate, double duration_s, std::uint64_t seed,
                 bool alternate_spans) {
    PhaseStats stats;
    stats_ = &stats;
    ++phase_;
    std::mt19937_64 gen(seed);
    std::exponential_distribution<double> gap(rate / 1e9);  // per ns
    std::uniform_int_distribution<std::uint32_t> pick(
        0, static_cast<std::uint32_t>(values_.size() - 1));
    Tracer& tracer = Tracer::instance();
    const bool traced_run = tracer.on();
    const std::uint64_t start = now_ns();
    const std::uint64_t end =
        start + static_cast<std::uint64_t>(duration_s * 1e9);
    double next = static_cast<double>(start) + gap(gen);
    bool sending = true;
    std::uint64_t send_end = end;
    // The time between sends is one "load.wait" span; the reads of the
    // answers that arrive meanwhile nest in it. One span per send, not per
    // poll, so spinning before an arrival does not flood the trace.
    std::uint64_t wait_span = 0;
    std::uint64_t last = start;
    for (;;) {
      std::uint64_t now = now_ns();
      if (tracer.on()) stats.traced_ns += now - last;
      last = now;
      if (sending && alternate_spans && traced_run) {
        // 200 ms slices, spans on in every other one.
        tracer.set_on(((now - start) / 200000000ull) % 2 == 1);
      }
      while (sending && next <= static_cast<double>(now)) {
        if (next >= static_cast<double>(end)) {
          sending = false;
          break;
        }
        if (wait_span != 0) {
          tracer.end(wait_span);
          wait_span = 0;
        }
        send(pick(gen), static_cast<std::uint64_t>(next));
        ++stats.sent;
        next += gap(gen);
        now = now_ns();
      }
      if (sending && next >= static_cast<double>(end)) sending = false;
      if (sending && outstanding_ > kAbortOutstanding) {
        stats.aborted = true;
        sending = false;
      }
      if (!sending && send_end == end) {
        send_end = now;
        stats.outstanding_at_end = outstanding_;
        tracer.set_on(traced_run);
      }
      if (!sending && outstanding_ == 0) {
        if (wait_span != 0) tracer.end(wait_span);
        break;
      }
      if (!sending && now > send_end + 5000000000ull) {
        throw std::runtime_error("answers missing 5 s after the phase");
      }
      const std::uint64_t wait =
          sending ? static_cast<std::uint64_t>(next) - std::min<std::uint64_t>(
                                                           now, next)
                  : 1000000;
      if (wait_span == 0 && tracer.on()) wait_span = tracer.begin("load.wait");
      poll(wait);
    }
    tracer.set_on(traced_run);
    stats.duration_s = static_cast<double>(send_end - start) * 1e-9;
    stats_ = nullptr;
    return stats;
  }

  double encode_ns() const { return per_frame(encode_ns_); }
  double decode_ns() const { return per_frame(decode_ns_); }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    net::FrameDecoder decoder;
  };

  double per_frame(std::uint64_t total) const {
    return codec_frames_ == 0 ? 0.0
                              : static_cast<double>(total) /
                                    static_cast<double>(codec_frames_);
  }

  void send(std::uint32_t sample, std::uint64_t sched_ns) {
    const bool traced = Tracer::instance().on();
    Span send_span("net.send");
    frame_.request_id = requests_.size();
    frame_.values = values_[sample];
    Conn& conn = *conns_[requests_.size() % kConnections];
    const std::uint64_t e0 = now_ns();
    {
      Span span("net.encode");
      net::encode(frame_, conn.out);
    }
    if (traced) encode_ns_ += now_ns() - e0;
    requests_.push_back({sample, sched_ns, 0, phase_, traced});
    {
      Span span("net.write");
      flush(conn);
    }
    requests_.back().sent_ns = now_ns();
    ++outstanding_;
    ++result_.attempted;
  }

  void flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("send failed");
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  /// Flushes pending output, waits up to `wait_ns` for answers and
  /// handles them.
  void poll(std::uint64_t wait_ns) {
    for (const auto& conn : conns_) {
      if (conn->out_off < conn->out.size()) flush(*conn);
    }
    epoll_event events[kConnections];
    int n = 0;
    if (wait_ns > 200000) {
      // Sleep until shortly before the next arrival, then spin.
      const std::uint64_t sleep_ns = wait_ns - 100000;
      timespec ts{static_cast<time_t>(sleep_ns / 1000000000ull),
                  static_cast<long>(sleep_ns % 1000000000ull)};
      n = ::epoll_pwait2(epoll_fd_, events, kConnections, &ts, nullptr);
    } else {
      n = ::epoll_wait(epoll_fd_, events, kConnections, 0);
    }
    for (int i = 0; i < n; ++i) read_ready(*conns_[events[i].data.u64]);
  }

  void read_ready(Conn& conn) {
    std::uint8_t buf[65536];
    for (;;) {
      ssize_t got = 0;
      {
        Span span("net.read");
        got = ::recv(conn.fd, buf, sizeof(buf), 0);
      }
      if (got == 0) throw std::runtime_error("server closed a connection");
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw std::runtime_error("recv failed");
      }
      const std::uint64_t recv_ns = now_ns();
      const bool traced = Tracer::instance().on();
      const std::uint64_t d0 = now_ns();
      std::size_t frames = 0;
      {
        Span span("net.decode");
        conn.decoder.feed(buf, static_cast<std::size_t>(got));
        while (conn.decoder.next(decoded_) ==
               net::FrameDecoder::Result::kFrame) {
          ++frames;
          on_response(decoded_.response, recv_ns);
        }
      }
      if (traced && frames > 0) {
        decode_ns_ += now_ns() - d0;
        codec_frames_ += frames;
      }
      if (conn.decoder.failed()) {
        throw std::runtime_error("bad frame: " + conn.decoder.error());
      }
    }
  }

  void on_response(const net::ResponseFrame& response, std::uint64_t recv_ns) {
    if (response.request_id >= requests_.size()) {
      throw std::runtime_error("response to an unknown request");
    }
    const Request& req = requests_[response.request_id];
    --outstanding_;
    if (response.status != net::WireStatus::kOk) {
      ++result_.failed;
      if (result_.errors.size() < 8) {
        result_.errors.push_back(std::string("refused: ") +
                                 net::to_string(response.status));
      }
      return;
    }
    answer_.label = response.label;
    answer_.scores.assign(response.scores.begin(), response.scores.end());
    const std::string why =
        check_answer(config_, expected_[req.sample], answer_);
    if (!why.empty()) result_.check_failed("wire: " + why);
    if (stats_ == nullptr || req.phase != phase_) return;
    const double latency_ms = static_cast<double>(recv_ns - req.sched_ns) * 1e-6;
    ++stats_->completed;
    stats_->latency_ms.push_back(latency_ms);
    stats_->rtt_us.push_back(static_cast<double>(recv_ns - req.sent_ns) * 1e-3);
    stats_->lag_us.push_back(static_cast<double>(req.sent_ns - req.sched_ns) *
                             1e-3);
    (req.traced ? stats_->traced_latency_ms : stats_->untraced_latency_ms)
        .push_back(latency_ms);
    if (req.traced) {
      Tracer::instance().record("request", req.sched_ns, recv_ns,
                                response.request_id + 1);
    }
  }

  const uv::vsa::ModelConfig& config_;
  const std::vector<std::vector<std::uint16_t>>& values_;
  const std::vector<uv::vsa::Prediction>& expected_;
  Result& result_;
  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Request> requests_;
  std::size_t outstanding_ = 0;
  std::uint32_t phase_ = 0;
  PhaseStats* stats_ = nullptr;
  net::SubmitFrame frame_;
  net::Frame decoded_;
  uv::vsa::Prediction answer_;
  std::uint64_t encode_ns_ = 0;
  std::uint64_t decode_ns_ = 0;
  std::uint64_t codec_frames_ = 0;
};

/// The part of `after` recorded since `before` (bucket-wise difference).
uv::telemetry::HistogramSnapshot since(
    const uv::telemetry::HistogramSnapshot& after,
    const uv::telemetry::HistogramSnapshot& before) {
  uv::telemetry::HistogramSnapshot diff;
  diff.min = 0;
  diff.max = after.max;
  std::size_t j = 0;
  for (const auto& bucket : after.buckets) {
    std::uint64_t count = bucket.count;
    while (j < before.buckets.size() &&
           before.buckets[j].upper < bucket.upper) {
      ++j;
    }
    if (j < before.buckets.size() && before.buckets[j].upper == bucket.upper) {
      count -= before.buckets[j].count;
    }
    if (count > 0) {
      diff.buckets.push_back({bucket.upper, count});
      diff.count += count;
    }
  }
  diff.sum = after.sum - before.sum;
  return diff;
}

double us_at(const uv::telemetry::HistogramSnapshot& h, double q) {
  return static_cast<double>(h.percentile(q)) * 1e-3;
}

/// One caller's ShardRouter::predict time minus its NetClient::predict
/// time against the same shard (medians of alternating calls), in µs.
double router_hop_us(std::uint16_t port,
                     const std::vector<std::vector<std::uint16_t>>& values,
                     const uv::vsa::ModelConfig& config,
                     const std::vector<uv::vsa::Prediction>& expected,
                     Result& result) {
  net::NetClientOptions client_options;
  client_options.port = port;
  client_options.pool_size = 1;
  net::NetClient client(client_options);
  net::ShardRouterOptions router_options;
  router_options.shards = {{net::Endpoint{"127.0.0.1", port}}};
  router_options.client = client_options;
  net::ShardRouter router(router_options);
  std::vector<double> direct_us, routed_us;
  for (std::size_t i = 0; i < 400; ++i) {
    const std::size_t sample = i % values.size();
    const bool routed = i % 2 == 1;
    const std::uint64_t t0 = now_ns();
    uv::vsa::Prediction answer;
    {
      Span span(routed ? "net.router_predict" : "net.client_predict");
      answer = routed ? router.predict(values[sample])
                      : client.predict(values[sample]);
    }
    const double us = static_cast<double>(now_ns() - t0) * 1e-3;
    (routed ? routed_us : direct_us).push_back(us);
    ++result.attempted;
    const std::string why = check_answer(config, expected[sample], answer);
    if (!why.empty()) result.check_failed("router: " + why);
  }
  return median(routed_us) - median(direct_us);
}

}  // namespace

void run_wire_open_loop(const Options& options, Result& result) {
  const uv::data::Benchmark& benchmark = uv::data::find_benchmark("ISOLET");
  const uv::vsa::Model model = random_model(benchmark, options.seed);
  const auto values =
      pool_values(sample_pool(benchmark, options.seed, kPool));
  auto server = std::make_shared<uv::runtime::Server>(model);
  net::NetServer net_server(server);
  std::vector<uv::vsa::Prediction> expected(values.size());
  Generator generator(net_server.port(), model.config(), values, expected,
                      result);
  result.set("setup_s", since_process_start_s());

  // Expected answers, made apart from the served backend.
  {
    uv::runtime::ReferenceBackend reference(model);
    reference.predict_batch(values, expected, false);
    for (std::size_t i = 0; i < 3; ++i) {
      const std::string why =
          check_same(oracle_predict(model, values[i]), expected[i]);
      if (!why.empty()) result.check_failed("oracle: " + why);
    }
    uv::Rng rng(mix(options.seed, 7));
    self_check(model, values[0], rng, result);
  }

  Tracer& tracer = Tracer::instance();
  const bool traced_run = tracer.on();
  tracer.set_on(false);
  generator.run(1000.0, 0.3, mix(options.seed, 1), false);  // warm-up
  tracer.set_on(traced_run);

  const double deadline = now_s() + options.seconds;
  if (traced_run) {
    tracer.set_on(false);  // the ladder's spans would crowd out the rest
    // The ladder runs in the traced run only: on a shared host its
    // outcome moved between 4k and 25k req/s from one run to the next, so
    // it is a per-layer figure (net.max_rps), not an end-to-end one.
    const double step_s = options.seconds / 16.0;
    double max_rps = 0.0;
    std::uint64_t phase_seed = 100;
    for (const double rate : kLadder) {
      const PhaseStats step = generator.run(
          rate, step_s, mix(options.seed, ++phase_seed), false);
      const double p99 = windowed_quantile(
          step.latency_ms, step.latency_ms.size() / kStepWindows, 0.99);
      const bool pass = !step.aborted && p99 <= kLatencyLimitMs;
      std::printf("  ladder %7.0f req/s: p99 %8.3f ms, outstanding at end "
                  "%zu%s\n",
                  rate, p99, step.outstanding_at_end,
                  pass ? "" : "  -> limit missed");
      if (!pass) break;
      max_rps = static_cast<double>(step.completed) / step.duration_s;
    }
    result.set("net.max_rps", max_rps);
    tracer.set_on(true);
  }

  // The reference rate holds for the rest of the run.
  const uv::runtime::ServerStats before = server->stats();
  const PhaseStats ref = generator.run(
      kReferenceRate, std::max(deadline - now_s(), options.seconds / 4.0),
      mix(options.seed, 99), true);
  const uv::runtime::ServerStats after = server->stats();
  std::printf("  reference %.0f req/s: %zu answers over %.2f s, generator "
              "lag p50 %.1f us, p99 %.1f us\n",
              kReferenceRate, ref.completed, ref.duration_s,
              quantile(ref.lag_us, 0.5), quantile(ref.lag_us, 0.99));

  result.set("throughput", static_cast<double>(ref.completed) / ref.duration_s);
  result.set("p50_ms", median(ref.latency_ms));
  result.set("latency.tail_ms",
             windowed_quantile(ref.latency_ms, kReferenceWindow, 0.99));

  const auto server_latency = since(after.latency_ns, before.latency_ns);
  result.set("runtime.queue_wait_us_p50",
             us_at(since(after.queue_wait_ns, before.queue_wait_ns), 0.5));
  result.set("runtime.queue_wait_us_p99",
             us_at(since(after.queue_wait_ns, before.queue_wait_ns), 0.99));
  result.set("runtime.service_us_p50",
             us_at(since(after.service_ns, before.service_ns), 0.5));
  result.set("runtime.batch_mean",
             static_cast<double>(after.completed - before.completed) /
                 static_cast<double>(std::max<std::uint64_t>(
                     after.batches - before.batches, 1)));
  result.set("runtime.latency_us_p50", us_at(server_latency, 0.5));
  result.set("runtime.latency_us_p99", us_at(server_latency, 0.99));
  result.set("runtime.max_queue_depth",
             static_cast<double>(after.max_queue_depth));
  result.set("net.overhead_us_p50",
             median(ref.rtt_us) - us_at(server_latency, 0.5));
  result.set("net.generator_lag_us_p99", quantile(ref.lag_us, 0.99));
  if (traced_run) {
    result.set("net.encode_ns", generator.encode_ns());
    result.set("net.decode_ns", generator.decode_ns());
    const double untraced = median(ref.untraced_latency_ms);
    result.set("trace_overhead_pct",
               100.0 * (median(ref.traced_latency_ms) - untraced) / untraced);
    const std::uint64_t router_start = now_ns();
    result.set("net.router_hop_us",
               router_hop_us(net_server.port(), values, model.config(),
                             expected, result));
    result.window_ns = ref.traced_ns + (now_ns() - router_start);
  }
  net_server.shutdown();
  server->shutdown();
}

}  // namespace perfbench
