// Closed-loop load generator over loopback TCP.
//
// Each generator thread owns one net::Reactor and drives a fixed number
// of client slots. A slot runs one SessionClient at a time; the client
// chains `Workload::chain_sessions` sessions back to back with zero think
// time, and when its chain ends the slot starts the next client at once.
// Every slot is pinned to one server shard and takes its client ids from
// that shard's share of the id space (shard_for(id) == slot shard), so
// each shard always serves the same number of concurrent sessions and the
// ids stay the ones the fleet's own routing would choose.
//
// Sessions are stamped by the benchmark's clock, never by the program's
// event queue: connect when the client dials, established when its first
// application record leaves, finished when its last echo is verified.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "mapsec/net/buffer_arena.hpp"
#include "mapsec/net/link.hpp"
#include "mapsec/net/reactor.hpp"
#include "mapsec/net/socket_bearer.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/server.hpp"
#include "workload.hpp"

namespace wallbench {

/// Nanoseconds on the benchmark's monotonic clock.
std::int64_t now_ns();

struct SessionSample {
  std::int64_t connect_ns = 0;
  std::int64_t established_ns = 0;
  std::int64_t finished_ns = 0;
  std::uint32_t gid = 0;
  std::uint16_t thread = 0;
  std::uint16_t slot = 0;
};

/// One generator Reactor::poll turn (recorded only when tracing).
struct TurnSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t events = 0;
};

/// Hands out client ids per shard. With a limit, ids are exactly
/// [0, limit), so a finished run's clients are the sim generator's fleet.
class IdSource {
 public:
  IdSource(std::size_t shards, std::optional<std::uint32_t> limit);
  std::optional<std::uint32_t> next(std::size_t shard);

 private:
  std::mutex mu_;
  std::size_t shards_;
  std::optional<std::uint32_t> limit_;
  std::vector<std::uint32_t> cursor_;  // guarded by mu_
};

struct GeneratorTotals {
  mapsec::net::SocketStats sockets;
  mapsec::net::LinkStats link;
  mapsec::net::BufferArena::Stats arena;
  std::size_t arena_reserved = 0;
  std::size_t sessions_attempted = 0;
  std::size_t sessions_completed = 0;
  std::size_t sessions_failed = 0;
  std::size_t echo_mismatches = 0;
  std::size_t retried_sessions = 0;  // completed, but needed >1 attempt
  std::size_t resumed_sessions = 0;
  std::uint64_t bearer_errors = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_echoed = 0;
  std::map<std::uint32_t, mapsec::crypto::Bytes> digests;  // by client id
};

class Generator {
 public:
  Generator(std::size_t index, std::size_t slots, const Workload& workload,
            const mapsec::server::ClientConfig& client_config,
            const mapsec::server::ServerConfig& server_config,
            std::vector<std::uint16_t> ports, std::uint64_t seed,
            IdSource& ids, bool trace);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Thread body: run chains until stop_launch() and every chain is done.
  void run();
  /// No new chains after this (thread-safe); chains in flight finish.
  void stop_launch() { stop_launch_.store(true, std::memory_order_release); }
  /// Sessions completed so far (thread-safe).
  std::uint64_t sessions_done() const {
    return sessions_done_.load(std::memory_order_acquire);
  }

  // Valid after run() returned.
  const std::vector<SessionSample>& samples() const { return samples_; }
  const std::vector<TurnSpan>& turns() const { return turns_; }
  const GeneratorTotals& totals() const { return totals_; }

 private:
  struct Conn;
  struct Slot;

  bool start_chain(Slot& slot);
  std::unique_ptr<mapsec::net::ReliableLink> connect(Slot& slot);
  void on_tx(Slot& slot, long sample);
  void on_rx(Slot& slot, long sample);
  void close_session_sample(Slot& slot);
  void retire_finished_chain(Slot& slot);
  void reap_conns();

  std::size_t index_;
  const Workload& workload_;
  mapsec::server::ClientConfig client_config_;
  std::vector<std::uint16_t> ports_;
  std::uint64_t seed_;
  IdSource& ids_;
  bool trace_;

  // Declaration order is teardown order in reverse: slots (clients, then
  // their endpoints) die before the engine, arena and reactor.
  mapsec::net::MonotonicClock clock_;
  mapsec::net::Reactor reactor_;
  mapsec::net::BufferArena arena_;
  mapsec::crypto::HmacDrbg engine_rng_;
  mapsec::engine::ProtocolEngine engine_;
  std::vector<std::unique_ptr<Conn>> retired_;
  std::vector<std::unique_ptr<Slot>> slots_;

  std::atomic<bool> stop_launch_{false};
  std::atomic<std::uint64_t> sessions_done_{0};
  std::vector<SessionSample> samples_;
  std::vector<TurnSpan> turns_;
  GeneratorTotals totals_;
};

}  // namespace wallbench
