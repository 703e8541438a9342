// wallbench: wall-clock serving benchmark of the mapsec socket stack.
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-dir DIR]
//   wallbench --workload NAME --seed N --smoke CHAINS
//
// A 2-shard SocketServerFleet serves a closed loop of 4 concurrent
// sessions driven by 2 generator threads in the same process. Set-up
// (key generation, PKI, fleet bind/start, warm-up) is repeated 5 times
// and reported as a median; the last world is then measured for S
// seconds with tracing off. With --trace 1 a second world repeats the
// window with spans recorded, and the workload's per-session work is
// replayed in memory layer by layer. The last stdout line is one JSON
// report; --smoke instead runs CHAINS client chains to completion and
// compares the refolded fleet digest against the sim LoadGenerator.
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "generator.hpp"
#include "mapsec/crypto/dispatch.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/socket_fleet.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace wallbench {
namespace {

namespace msrv = mapsec::server;

// ---- small helpers ----------------------------------------------------------

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = pct / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

struct Tail {
  double value = 0;
  std::size_t subwindows = 0;
  std::size_t samples = 0;
};

/// Tail latency of values in completion order: the median, over
/// consecutive sub-windows of kTailSubwindow sessions, of each
/// sub-window's p90, the highest percentile with ten samples beyond it in
/// a sub-window. A burst of host interference (a descheduled vCPU stalls
/// every session in flight for milliseconds) moves the sub-windows it
/// falls in, not the figure. A run with fewer sessions than one
/// sub-window takes the p90 of all of them.
constexpr std::size_t kTailSubwindow = 100;
constexpr double kTailPct = 90;

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  t.subwindows = std::max<std::size_t>(1, v.size() / kTailSubwindow);
  std::vector<double> parts;
  for (std::size_t k = 0; k < t.subwindows; ++k) {
    const auto lo = v.begin() + static_cast<long>(k * v.size() / t.subwindows);
    const auto hi =
        v.begin() + static_cast<long>((k + 1) * v.size() / t.subwindows);
    parts.push_back(percentile(std::vector<double>(lo, hi), kTailPct));
  }
  t.value = percentile(parts, 50);
  return t;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Minimal ordered JSON object writer.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    std::ostringstream os;
    os.precision(10);
    if (std::isfinite(v)) os << v; else os << "null";
    return raw(k, os.str());
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + json_escape(v) + "\"");
  }
  JsonObject& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + json_escape(k) + "\":" + v);
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- the serving world ------------------------------------------------------

struct CpuSnapshot {
  std::int64_t wall_ns = 0;
  double process_s = 0;
  double main_s = 0;
  std::vector<double> generator_s;
};

class World {
 public:
  World(const Workload& w, std::uint64_t seed, bool trace,
        std::optional<std::uint32_t> chain_limit)
      : workload_(w),
        pki_(std::make_unique<Pki>(Pki::make())),
        server_config_(server_config(w, *pki_)),
        client_config_(client_config(w, *pki_)),
        ids_(kShards, chain_limit) {
    msrv::SocketFleetConfig fleet_cfg;
    fleet_cfg.shards = kShards;
    fleet_cfg.seed = seed;
    fleet_ = std::make_unique<msrv::SocketServerFleet>(
        fleet_cfg, server_config_, cache_config());
    if (!fleet_->ok()) throw std::runtime_error("fleet listeners did not bind");
    fleet_->start();
    const std::size_t slots = kConcurrentSessions / kGeneratorThreads;
    for (std::size_t g = 0; g < kGeneratorThreads; ++g)
      generators_.push_back(std::make_unique<Generator>(
          g, slots, w, client_config_, server_config_, fleet_->ports(), seed,
          ids_, trace));
    errors_.resize(generators_.size());
    for (std::size_t g = 0; g < generators_.size(); ++g) {
      threads_.emplace_back([this, g] {
        try {
          generators_[g]->run();
        } catch (const std::exception& e) {
          errors_[g] = e.what();
        }
      });
    }
  }

  ~World() { finish(); }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Block until every generator finished its warm-up sessions.
  void wait_warm() {
    const std::uint64_t per_gen =
        static_cast<std::uint64_t>(workload_.warmup_sessions) *
        (kConcurrentSessions / kGeneratorThreads);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
      bool warm = true;
      for (const auto& g : generators_) warm = warm && g->sessions_done() >= per_gen;
      if (warm) return;
      if (std::chrono::steady_clock::now() > give_up)
        throw std::runtime_error("warm-up did not complete within 60 s");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  CpuSnapshot cpu() {
    CpuSnapshot s;
    s.wall_ns = now_ns();
    s.process_s = clock_s(CLOCK_PROCESS_CPUTIME_ID);
    s.main_s = clock_s(CLOCK_THREAD_CPUTIME_ID);
    for (auto& t : threads_) {
      clockid_t id{};
      pthread_getcpuclockid(t.native_handle(), &id);
      s.generator_s.push_back(clock_s(id));
    }
    return s;
  }

  /// Stop launching chains, let the ones in flight finish, join, and stop
  /// the fleet. Idempotent.
  void finish() {
    if (finished_) return;
    finished_ = true;
    for (auto& g : generators_) g->stop_launch();
    for (auto& t : threads_)
      if (t.joinable()) t.join();
    report_ = fleet_->stop();
  }

  /// Wait for generators that stop on their own (a bounded id source).
  void join_generators() {
    for (auto& t : threads_)
      if (t.joinable()) t.join();
  }

  const Pki& pki() const { return *pki_; }
  const msrv::ServerConfig& server_cfg() const { return server_config_; }
  const msrv::ClientConfig& client_cfg() const { return client_config_; }
  const msrv::SocketServerFleet::Report& report() const { return report_; }
  const std::vector<std::unique_ptr<Generator>>& generators() const {
    return generators_;
  }
  std::string error() const {
    for (const auto& e : errors_)
      if (!e.empty()) return e;
    return "";
  }

 private:
  const Workload& workload_;
  std::unique_ptr<Pki> pki_;
  msrv::ServerConfig server_config_;
  msrv::ClientConfig client_config_;
  IdSource ids_;
  std::unique_ptr<msrv::SocketServerFleet> fleet_;
  std::vector<std::unique_ptr<Generator>> generators_;
  std::vector<std::string> errors_;
  msrv::SocketServerFleet::Report report_;
  bool finished_ = false;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

// ---- one measured window ----------------------------------------------------

struct Window {
  double seconds = 0;
  std::size_t sessions = 0;
  std::vector<double> bucket_sessions;  // completions per sub-window
  std::vector<double> handshake_ms;
  std::vector<double> session_ms;
  double server_cpu_s = 0;
  double client_cpu_s = 0;
  double max_generator_busy = 0;
  double rss_mb = 0;              // peak RSS when rss_sessions completed
  std::uint64_t rss_sessions = 0; // window sessions done when it was read
  GeneratorTotals totals;  // whole-life client totals, all generators
  msrv::SocketServerFleet::Report report;
  std::vector<SessionSample> samples;
  std::vector<std::vector<TurnSpan>> turns;
  std::string error;
};

void add_totals(GeneratorTotals& t, const GeneratorTotals& g) {
  t.sockets += g.sockets;
  t.link.messages_sent += g.link.messages_sent;
  t.link.messages_delivered += g.link.messages_delivered;
  t.link.segments_sent += g.link.segments_sent;
  t.link.retransmits += g.link.retransmits;
  t.link.duplicate_segments += g.link.duplicate_segments;
  t.link.acks_sent += g.link.acks_sent;
  t.arena.allocations += g.arena.allocations;
  t.arena.acquires += g.arena.acquires;
  t.arena.recycles += g.arena.recycles;
  t.arena.peak_in_use += g.arena.peak_in_use;
  t.arena_reserved += g.arena_reserved;
  t.sessions_attempted += g.sessions_attempted;
  t.sessions_completed += g.sessions_completed;
  t.sessions_failed += g.sessions_failed;
  t.echo_mismatches += g.echo_mismatches;
  t.retried_sessions += g.retried_sessions;
  t.resumed_sessions += g.resumed_sessions;
  t.bearer_errors += g.bearer_errors;
  t.bytes_sent += g.bytes_sent;
  t.bytes_echoed += g.bytes_echoed;
  t.digests.insert(g.digests.begin(), g.digests.end());
}

/// Sub-windows the session counts are reported in (context only: they
/// show how the rate moves across the window).
constexpr std::size_t kBuckets = 10;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Measure `seconds` of steady state: CPU clocks are read at both ends,
/// and every session whose last echo was verified inside the window
/// counts. The process's peak RSS is read as soon as `rss_sessions`
/// sessions of the window completed (or at its end, if fewer did).
Window measure(World& world, double seconds, std::uint64_t rss_sessions) {
  Window win;
  const auto sessions_done = [&world] {
    std::uint64_t n = 0;
    for (const auto& g : world.generators()) n += g->sessions_done();
    return n;
  };
  const CpuSnapshot a = world.cpu();
  const std::uint64_t done_at_start = sessions_done();
  const auto window_end =
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
          a.wall_ns + static_cast<std::int64_t>(seconds * 1e9)));
  while (win.rss_sessions == 0 &&
         std::chrono::steady_clock::now() < window_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::uint64_t n = sessions_done() - done_at_start;
    if (n >= rss_sessions) {
      win.rss_mb = peak_rss_mb();
      win.rss_sessions = n;
    }
  }
  std::this_thread::sleep_until(window_end);
  const CpuSnapshot b = world.cpu();
  if (win.rss_sessions == 0) {
    win.rss_mb = peak_rss_mb();
    win.rss_sessions = sessions_done() - done_at_start;
  }
  world.finish();
  win.error = world.error();
  win.report = world.report();

  win.seconds = static_cast<double>(b.wall_ns - a.wall_ns) / 1e9;
  for (std::size_t g = 0; g < a.generator_s.size(); ++g) {
    const double used = b.generator_s[g] - a.generator_s[g];
    win.client_cpu_s += used;
    win.max_generator_busy =
        std::max(win.max_generator_busy, used / win.seconds);
  }
  win.server_cpu_s = (b.process_s - a.process_s) - win.client_cpu_s -
                     (b.main_s - a.main_s);

  win.bucket_sessions.assign(kBuckets, 0);
  struct Done {
    std::int64_t finished_ns;
    double handshake_ms;
    double session_ms;
  };
  std::vector<Done> done;
  for (const auto& g : world.generators()) {
    add_totals(win.totals, g->totals());
    for (const SessionSample& s : g->samples()) {
      win.samples.push_back(s);
      if (s.finished_ns < a.wall_ns || s.finished_ns >= b.wall_ns) continue;
      const auto k = static_cast<std::size_t>(
          static_cast<double>(s.finished_ns - a.wall_ns) /
          static_cast<double>(b.wall_ns - a.wall_ns) * kBuckets);
      ++win.bucket_sessions[std::min(k, kBuckets - 1)];
      done.push_back(
          {s.finished_ns,
           static_cast<double>(s.established_ns - s.connect_ns) / 1e6,
           static_cast<double>(s.finished_ns - s.connect_ns) / 1e6});
    }
    win.turns.push_back(g->turns());
  }
  std::sort(done.begin(), done.end(), [](const Done& x, const Done& y) {
    return x.finished_ns < y.finished_ns;
  });
  win.sessions = done.size();
  for (const Done& d : done) {
    win.handshake_ms.push_back(d.handshake_ms);
    win.session_ms.push_back(d.session_ms);
  }
  return win;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // percentile and sample count, where it applies
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    JsonObject one;
    one.num("value", m.value).str("unit", m.unit);
    if (!m.note.empty()) one.str("note", m.note);
    obj.raw(m.name, one.dump());
  }
  return obj.dump();
}

std::string p50_note(std::size_t samples) {
  return "p50 of " + std::to_string(samples) + " sessions";
}

std::string tail_note(const Tail& t) {
  std::ostringstream os;
  os << "median over " << t.subwindows << " sub-windows of p" << kTailPct
     << ", >=" << t.samples / t.subwindows << " sessions each, "
     << t.samples << " sessions";
  return os.str();
}

double per(double x, double n) { return n > 0 ? x / n : 0; }

/// main() refuses to measure without NDEBUG; stamped into every report.
const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

int run_benchmark(const Workload& w, std::uint64_t seed, double seconds,
                  bool trace, const std::string& spans_dir) {
  // ---- set-up, several times; the last world is measured ---------------
  // A traced invocation reports no end-to-end metrics: it sets up once
  // and splits its time between an untraced and a traced window of equal
  // length, so their rates compare directly (bench.trace_overhead).
  const int n_setups = trace ? 1 : kSetups;
  const double window_s = trace ? seconds / 2 : seconds;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int k = 0; k < n_setups; ++k) {
    world.reset();
    const std::int64_t t0 = now_ns();
    world = std::make_unique<World>(w, seed, false, std::nullopt);
    world->wait_warm();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Window win = measure(*world, window_s, w.rss_sessions);
  const double pk_us = time_pk_us(world->pki(), w);

  std::sort(setup_s.begin(), setup_s.end());
  const double setup_median = setup_s[setup_s.size() / 2];

  const double sessions = static_cast<double>(win.sessions);
  const double sps = sessions / win.seconds;
  const double bytes_per_session =
      2.0 * static_cast<double>(w.payload_bytes) * w.payloads_per_session;
  const double server_cpu_us = per(win.server_cpu_s * 1e6, sessions);
  const double client_cpu_us = per(win.client_cpu_s * 1e6, sessions);
  const Tail hs_tail = tail_of(win.handshake_ms);
  const Tail ss_tail = tail_of(win.session_ms);

  std::vector<Metric> e2e = {
      {"setup_s", setup_median, "s", ""},
      {"sessions_per_s", sps, "1/s", ""},
      {"goodput_mbps", sps * bytes_per_session * 8 / 1e6, "Mbit/s", ""},
      {"handshake_p50_ms", percentile(win.handshake_ms, 50), "ms",
       p50_note(win.handshake_ms.size())},
      {"handshake_tail_ms", hs_tail.value, "ms", tail_note(hs_tail)},
      {"session_p50_ms", percentile(win.session_ms, 50), "ms",
       p50_note(win.session_ms.size())},
      {"session_tail_ms", ss_tail.value, "ms", tail_note(ss_tail)},
      {"server_cpu_us_per_session", server_cpu_us, "us", ""},
      {"client_cpu_us_per_session", client_cpu_us, "us", ""},
      {"peak_rss_mb", win.rss_mb, "MB",
       "process peak after " + std::to_string(win.rss_sessions) +
           " window sessions"},
  };

  // ---- per-run correctness checks --------------------------------------
  const GeneratorTotals& t = win.totals;
  const msrv::ServerStats& srv = win.report.server;
  const double life_sessions = static_cast<double>(t.sessions_completed);
  const double resume_ratio =
      per(static_cast<double>(srv.ticket_resumptions),
          static_cast<double>(srv.handshakes_completed));
  // The designed mix: no resumption without tickets; with tickets, every
  // session but each chain's first resumes by ticket (chains in flight
  // run to completion, so the ratio is (chain - 1) / chain when no
  // resumption falls back to a full handshake).
  const bool mix_ok =
      w.tickets ? resume_ratio >= (w.chain_sessions - 1.0) / w.chain_sessions -
                                      0.005
                : srv.resumed_handshakes == 0 && t.resumed_sessions == 0;
  const std::size_t failed = t.sessions_failed + t.echo_mismatches;
  std::vector<std::pair<std::string, bool>> checks = {
      {"generators_ran_clean", win.error.empty()},
      {"every_session_completed",
       t.sessions_attempted > 0 && t.sessions_completed == t.sessions_attempted &&
           t.sessions_failed == 0},
      {"zero_echo_mismatches", t.echo_mismatches == 0},
      {"server_books_conserved", win.report.conserved},
      {"server_no_failed_connections",
       srv.failed_connections == 0 && srv.handshakes_failed == 0},
      {"designed_mix", mix_ok},
      {"generator_not_saturated", win.max_generator_busy <= 0.9},
      {"enough_window_samples", win.sessions >= 20},
  };
  if (!w.tickets)  // every session pays a private-key operation
    checks.push_back({"handshake_p50_not_below_pk_op",
                      percentile(win.handshake_ms, 50) * 1e3 >= pk_us});
  bool correct = true;
  for (const auto& c : checks) correct = correct && c.second;

  // ---- per-layer (traced run) -------------------------------------------
  std::vector<Metric> layers;
  std::string spans_path;
  if (trace) {
    SpanLog spans;
    Window traced;
    {
      World tw(w, seed, true, std::nullopt);
      tw.wait_warm();
      traced = measure(tw, window_s, w.rss_sessions);
    }
    const double traced_sps =
        static_cast<double>(traced.sessions) / traced.seconds;
    for (std::size_t i = 0; i < traced.samples.size(); ++i) {
      const SessionSample& s = traced.samples[i];
      const auto id = static_cast<std::int64_t>(i);
      spans.add({"session", "bench", "", s.connect_ns, s.finished_ns, id,
                 s.thread});
      spans.add({"handshake", "bench", "session", s.connect_ns,
                 s.established_ns, id, s.thread});
      spans.add({"transfer", "bench", "session", s.established_ns,
                 s.finished_ns, id, s.thread});
    }
    for (std::size_t g = 0; g < traced.turns.size(); ++g)
      for (const TurnSpan& turn : traced.turns[g])
        spans.add({"Reactor::poll", "net", "", turn.start_ns, turn.end_ns, -1,
                   static_cast<int>(g)});
    const LayerReplay r = replay_layers(w, world->pki(), seed, &spans);

    const double app_kib = bytes_per_session / 2 / 1024.0;
    const msrv::SocketServerFleet::Report& rep = win.report;
    const double frames =
        static_cast<double>(rep.sockets.frames_sent + t.sockets.frames_sent);
    const double syscalls = static_cast<double>(
        rep.sockets.writev_calls + rep.sockets.readv_calls +
        t.sockets.writev_calls + t.sockets.readv_calls);
    const double frames_moved = static_cast<double>(
        rep.sockets.frames_sent + rep.sockets.frames_received +
        t.sockets.frames_sent + t.sockets.frames_received);
    const double pk_ops = per(static_cast<double>(srv.handshake_rsa_private_ops),
                              life_sessions);
    const double hs_bytes =
        per(static_cast<double>(srv.handshake_bytes_rx + srv.handshake_bytes_tx),
            life_sessions);
    const double handshakes = static_cast<double>(srv.handshakes_completed);
    const double flights =
        per(static_cast<double>(t.link.messages_sent + t.link.messages_delivered) -
                2.0 * (w.payloads_per_session + 1) * life_sessions,
            handshakes);
    const double msg_kib = (hs_bytes + bytes_per_session) / 1024.0;
    const double frames_per_session = per(frames, life_sessions);
    const double link_half = 0.5 * r.link_us_per_kib * msg_kib;
    const double codec_half =
        0.5 * frames_per_session * r.frame_codec_ns_per_frame / 1e3;
    const double server_ledger =
        pk_ops * pk_us + r.handshake_server_us +
        (r.record_open_us_per_kib + r.pipeline_us_per_kib) * app_kib +
        link_half + codec_half;
    const double client_ledger =
        r.handshake_client_us +
        (r.record_seal_us_per_kib + r.client_open_us_per_kib) * app_kib +
        link_half + codec_half;
    double mean_session_us = 0;
    for (double ms : win.session_ms) mean_session_us += ms * 1e3;
    mean_session_us = per(mean_session_us, sessions);
    const double measured_cpu_us = server_cpu_us + client_cpu_us;
    const double n = life_sessions;
    const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };

    layers = {
        {"crypto.pk_us_per_op", pk_us, "us", ""},
        {"crypto.pk_ops_per_session", pk_ops, "count", ""},
        {"crypto.bulk_cipher_us_per_kib", r.bulk_cipher_us_per_kib, "us/KiB", ""},
        {"crypto.ccm_us_per_kib", r.ccm_us_per_kib, "us/KiB", ""},
        {"protocol.handshake_us_per_session",
         r.handshake_client_us + r.handshake_server_us, "us", ""},
        {"protocol.flights_per_handshake", flights, "count", ""},
        {"protocol.handshake_bytes_per_session", hs_bytes, "bytes", ""},
        {"protocol.record_us_per_kib", r.record_us_per_kib(), "us/KiB", ""},
        {"ticket.seal_us", r.ticket_seal_us, "us", ""},
        {"ticket.open_us", r.ticket_open_us, "us", ""},
        {"ticket.resume_ratio", resume_ratio, "ratio", ""},
        {"engine.pipeline_us_per_kib", r.pipeline_us_per_kib, "us/KiB", ""},
        {"net.frames_per_session", frames_per_session, "count", ""},
        {"net.syscalls_per_session", per(syscalls, n), "count", ""},
        {"net.frames_per_syscall", per(frames_moved, syscalls), "count", ""},
        {"net.partial_writes_per_session",
         per(u64(rep.sockets.partial_writes + t.sockets.partial_writes), n),
         "count", ""},
        {"net.eagain_writes_per_session",
         per(u64(rep.sockets.eagain_writes + t.sockets.eagain_writes), n),
         "count", ""},
        {"net.link_retransmits_per_session", per(u64(t.link.retransmits), n),
         "count", ""},
        {"net.link_useful_ratio",
         per(u64(t.link.segments_sent - t.link.retransmits),
             u64(t.link.segments_sent)),
         "ratio", ""},
        {"net.frame_codec_ns_per_frame", r.frame_codec_ns_per_frame, "ns", ""},
        {"net.link_us_per_kib", r.link_us_per_kib, "us/KiB", ""},
        {"net.arena_peak_slabs_per_conn",
         per(u64(rep.arena.peak_in_use + t.arena.peak_in_use),
             2.0 * kConcurrentSessions),
         "count", ""},
        {"net.arena_overflow_allocs",
         u64(rep.arena.allocations - rep.arena.reserved) +
             u64(t.arena.allocations - t.arena_reserved),
         "count", ""},
        {"net.wait_us_per_session", mean_session_us - measured_cpu_us, "us",
         ""},
        {"server.dispatch_us_per_session", server_cpu_us - server_ledger, "us",
         ""},
        {"server.busy_share", win.server_cpu_s / (win.seconds * kShards),
         "ratio", ""},
        {"server.backpressure_deferrals_per_session",
         per(u64(srv.backpressure_deferrals), n), "count", ""},
        {"bench.generator_busy_share",
         std::max(win.max_generator_busy, traced.max_generator_busy), "ratio",
         ""},
        {"bench.ledger_coverage",
         per(server_ledger + client_ledger, measured_cpu_us), "ratio", ""},
        {"bench.trace_overhead", 1.0 - per(traced_sps, sps), "ratio", ""},
    };

    // The traced window is held to the same correctness bar.
    const GeneratorTotals& tt = traced.totals;
    checks.push_back(
        {"traced_run_clean",
         traced.error.empty() && tt.sessions_attempted > 0 &&
             tt.sessions_completed == tt.sessions_attempted &&
             tt.echo_mismatches == 0 && traced.report.conserved &&
             traced.max_generator_busy <= 0.9});
    correct = correct && checks.back().second;

    std::filesystem::create_directories(spans_dir);
    spans_path = spans_dir + "/spans_" + w.name + "_seed" +
                 std::to_string(seed) + ".json";
    if (!spans.write_chrome_json(spans_path))
      throw std::runtime_error("could not write " + spans_path);
  }

  // ---- report ------------------------------------------------------------
  JsonObject ctx;
  ctx.num("nproc", std::thread::hardware_concurrency())
      .str("crypto_dispatch", mapsec::crypto::dispatch::capabilities_summary())
      .str("build_type", build_type())
      .num("seed", static_cast<double>(seed))
      .num("shards", kShards)
      .num("generator_threads", kGeneratorThreads)
      .num("concurrent_sessions", kConcurrentSessions)
      .num("rsa_bits", kRsaBits)
      .num("window_s", win.seconds)
      .num("window_sessions", sessions)
      .num("setups", n_setups)
      .num("window_server_cpu_s", win.server_cpu_s)
      .num("window_client_cpu_s", win.client_cpu_s);
  {
    std::string b;
    for (double v : win.bucket_sessions)
      b += (b.empty() ? "" : ",") + std::to_string(static_cast<long>(v));
    ctx.raw("window_bucket_sessions", "[" + b + "]");
  }
  JsonObject check_obj;
  for (const auto& c : checks) check_obj.boolean(c.first, c.second);
  JsonObject report;
  report.str("workload", w.name)
      .raw("context", ctx.dump())
      .raw("checks", check_obj.dump())
      .boolean("correct", correct)
      .num("attempted", static_cast<double>(t.sessions_attempted))
      .num("failed", static_cast<double>(failed))
      .num("failed_ratio", per(static_cast<double>(failed),
                               static_cast<double>(t.sessions_attempted)))
      .num("generator_busy_share", win.max_generator_busy)
      .raw("end_to_end", metrics_json(e2e));
  if (trace) report.raw("per_layer", metrics_json(layers));
  if (!spans_path.empty()) report.str("spans_file", spans_path);
  std::printf("%s\n", report.dump().c_str());
  return 0;
}


/// Run `chains` client chains (ids 0..chains-1) to completion over the
/// sockets, then the sim LoadGenerator with the same seed and workload;
/// the refolded socket digest must equal the sim fleet digest.
int run_smoke(const Workload& w, std::uint64_t seed, long chains) {
  World world(w, seed, false, static_cast<std::uint32_t>(chains));
  world.join_generators();
  world.finish();
  GeneratorTotals t;
  for (const auto& g : world.generators()) add_totals(t, g->totals());

  std::vector<mapsec::crypto::ConstBytes> lanes;
  for (std::uint32_t gid = 0; gid < static_cast<std::uint32_t>(chains); ++gid) {
    auto it = t.digests.find(gid);
    if (it == t.digests.end()) throw std::runtime_error("client id missing");
    lanes.push_back(it->second);
  }
  const mapsec::crypto::Bytes socket_digest = msrv::fold_fleet_digest(lanes);

  msrv::LoadConfig load;
  load.num_clients = static_cast<std::size_t>(chains);
  load.seed = seed;
  msrv::LoadGenerator sim(load, world.server_cfg(), world.client_cfg(),
                          cache_config());
  const msrv::LoadReport sim_report = sim.run();

  const bool equal = socket_digest == sim_report.fleet_digest;
  const bool complete = world.error().empty() &&
                        t.sessions_completed == t.sessions_attempted &&
                        t.echo_mismatches == 0 && world.report().conserved &&
                        sim_report.sessions_completed == t.sessions_completed;
  JsonObject report;
  report.str("workload", w.name)
      .boolean("smoke", true)
      .num("chains", static_cast<double>(chains))
      .num("socket_sessions", static_cast<double>(t.sessions_completed))
      .num("sim_sessions", static_cast<double>(sim_report.sessions_completed))
      .str("socket_digest", mapsec::crypto::to_hex(socket_digest))
      .str("sim_digest", mapsec::crypto::to_hex(sim_report.fleet_digest))
      .boolean("digests_equal", equal)
      .boolean("correct", equal && complete);
  std::printf("%s\n", report.dump().c_str());
  return equal && complete ? 0 : 1;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "wallbench: refusing to measure a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  std::string workload, spans_dir = ".wallbench_out";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  long smoke = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stod(value);
    else if (flag == "--trace") trace = std::stoi(value);
    else if (flag == "--spans-dir") spans_dir = value;
    else if (flag == "--smoke") smoke = std::stol(value);
    else {
      std::fprintf(stderr, "wallbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    const wallbench::Workload& w = wallbench::workload_by_name(workload);
    if (smoke > 0) return wallbench::run_smoke(w, seed, smoke);
    return wallbench::run_benchmark(w, seed, seconds, trace != 0, spans_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
}
