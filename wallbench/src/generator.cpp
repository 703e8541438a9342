#include "generator.hpp"

#include <chrono>
#include <functional>
#include <string>
#include <utility>

#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/sharded_server.hpp"

namespace wallbench {

namespace mnet = mapsec::net;
namespace msrv = mapsec::server;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Channel wrapper that reports every frame it carries. The rx variant
/// wraps the receiver so the hook runs after the link (and the client
/// above it) consumed the frame; the tx variant runs the hook after the
/// frame was queued on the socket.
class TapChannel final : public mnet::Channel {
 public:
  TapChannel(mnet::Channel& inner, std::function<void()> hook)
      : inner_(inner), hook_(std::move(hook)) {}

  void set_receiver(
      std::function<void(mapsec::crypto::ConstBytes)> on_frame) override {
    if (!on_frame) {
      inner_.set_receiver(nullptr);
      return;
    }
    inner_.set_receiver(
        [this, on_frame = std::move(on_frame)](mapsec::crypto::ConstBytes f) {
          on_frame(f);
          hook_();
        });
  }
  void send(mapsec::crypto::ConstBytes frame) override {
    inner_.send(frame);
    hook_();
  }
  void set_on_channel_error(
      std::function<void(const std::string&)> on_error) override {
    inner_.set_on_channel_error(std::move(on_error));
  }

 private:
  mnet::Channel& inner_;
  std::function<void()> hook_;
};

void add_link_stats(mnet::LinkStats& total, const mnet::LinkStats& s) {
  total.messages_sent += s.messages_sent;
  total.messages_delivered += s.messages_delivered;
  total.segments_sent += s.segments_sent;
  total.retransmits += s.retransmits;
  total.duplicate_segments += s.duplicate_segments;
  total.acks_sent += s.acks_sent;
}

}  // namespace

// ---- IdSource ---------------------------------------------------------------

IdSource::IdSource(std::size_t shards, std::optional<std::uint32_t> limit)
    : shards_(shards), limit_(limit), cursor_(shards, 0) {}

std::optional<std::uint32_t> IdSource::next(std::size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t& g = cursor_[shard];
  while (msrv::shard_for(g, shards_) != shard) ++g;
  if (limit_ && g >= *limit_) return std::nullopt;
  return g++;
}

// ---- Generator --------------------------------------------------------------

struct Generator::Conn {
  // Taps before the endpoint's death, the link (owned by the client)
  // before both: reap_conns() only destroys a Conn whose link is gone.
  std::unique_ptr<mnet::SocketEndpoint> endpoint;
  std::unique_ptr<TapChannel> tx;
  std::unique_ptr<TapChannel> rx;
  mnet::ReliableLink* link = nullptr;  // owned by the slot's client
};

struct Generator::Slot {
  std::size_t index = 0;
  std::size_t shard = 0;
  std::unique_ptr<msrv::SessionClient> client;
  std::uint32_t gid = 0;
  bool chain_done = false;
  std::unique_ptr<Conn> conn;
  // Current session.
  long sample = -1;
  std::uint64_t sent_base = 0;
  std::uint64_t echo_target = 0;
};

Generator::Generator(std::size_t index, std::size_t slots,
                     const Workload& workload,
                     const msrv::ClientConfig& client_config,
                     const msrv::ServerConfig& server_config,
                     std::vector<std::uint16_t> ports, std::uint64_t seed,
                     IdSource& ids, bool trace)
    : index_(index),
      workload_(workload),
      client_config_(client_config),
      ports_(std::move(ports)),
      seed_(seed),
      ids_(ids),
      trace_(trace),
      reactor_(clock_),
      engine_rng_(msrv::fleet_engine_seed(seed) + index),
      engine_(server_config.engine_profile, &engine_rng_) {
  engine_.load_program("ccmp-in", mapsec::engine::ccmp_inbound_program());
  totals_.arena_reserved = 16 * slots;
  arena_.reserve(totals_.arena_reserved);
  for (std::size_t s = 0; s < slots; ++s) {
    auto slot = std::make_unique<Slot>();
    slot->index = s;
    // Slot s of every generator serves shard s: with one slot per shard
    // per generator, each shard always has `generators` sessions open.
    slot->shard = s % ports_.size();
    slots_.push_back(std::move(slot));
  }
}

Generator::~Generator() {
  for (auto& slot : slots_) {
    if (slot->conn && slot->conn->link) slot->conn->link->shutdown();
    slot->client.reset();
  }
}

bool Generator::start_chain(Slot& slot) {
  const std::optional<std::uint32_t> gid = ids_.next(slot.shard);
  if (!gid) return false;
  slot.gid = *gid;
  slot.chain_done = false;
  slot.client = std::make_unique<msrv::SessionClient>(
      reactor_.queue(), client_config_, *gid, engine_,
      msrv::fleet_client_seed(seed_, *gid));
  Slot* sp = &slot;
  slot.client->set_connect(
      [this, sp](msrv::SessionClient&) { return connect(*sp); });
  slot.client->set_on_finished([this, sp](msrv::SessionClient&) {
    close_session_sample(*sp);
    sp->chain_done = true;
  });
  slot.client->start();
  return true;
}

std::unique_ptr<mnet::ReliableLink> Generator::connect(Slot& slot) {
  msrv::SessionClient& client = *slot.client;
  // The previous attempt's link is shut down and about to be replaced;
  // keep its endpoint until the end of the turn.
  if (slot.conn) {
    add_link_stats(totals_.link, slot.conn->link->stats());
    slot.conn->link = nullptr;
    retired_.push_back(std::move(slot.conn));
  }
  if (client.sessions().back().attempts == 1) {
    close_session_sample(slot);
    SessionSample s;
    s.connect_ns = now_ns();
    s.gid = slot.gid;
    s.thread = static_cast<std::uint16_t>(index_);
    s.slot = static_cast<std::uint16_t>(slot.index);
    samples_.push_back(s);
    slot.sample = static_cast<long>(samples_.size()) - 1;
    slot.sent_base = client.bytes_sent();
    slot.echo_target =
        client.bytes_echoed() +
        static_cast<std::uint64_t>(workload_.payloads_per_session) *
            workload_.payload_bytes;
  }

  auto conn = std::make_unique<Conn>();
  mnet::SocketConfig socket;
  conn->endpoint = mnet::connect_endpoint(reactor_, arena_, socket,
                                          ports_[slot.shard]);
  conn->endpoint->set_on_error(
      [this](const std::string&) { ++totals_.bearer_errors; });
  const long sample = slot.sample;
  Slot* sp = &slot;
  conn->tx = std::make_unique<TapChannel>(
      conn->endpoint->tx(), [this, sp, sample] { on_tx(*sp, sample); });
  conn->rx = std::make_unique<TapChannel>(
      conn->endpoint->rx(), [this, sp, sample] { on_rx(*sp, sample); });
  auto link = std::make_unique<mnet::ReliableLink>(
      reactor_.queue(), *conn->tx, *conn->rx, client_config_.link);
  conn->link = link.get();
  slot.conn = std::move(conn);
  return link;
}

void Generator::on_tx(Slot& slot, long sample) {
  if (sample != slot.sample || sample < 0) return;
  SessionSample& s = samples_[static_cast<std::size_t>(sample)];
  // The first application record leaves right after the handshake
  // completes (think time 0); bytes_sent moves just before it is sent.
  if (s.established_ns == 0 && slot.client->bytes_sent() != slot.sent_base)
    s.established_ns = now_ns();
}

void Generator::on_rx(Slot& slot, long sample) {
  if (sample != slot.sample || sample < 0) return;
  SessionSample& s = samples_[static_cast<std::size_t>(sample)];
  if (s.finished_ns == 0 && s.established_ns != 0 &&
      slot.client->bytes_echoed() >= slot.echo_target)
    s.finished_ns = now_ns();
}

void Generator::close_session_sample(Slot& slot) {
  // A session whose echo stamp never fired (an echo re-verified after a
  // retry is not re-counted by the client) ends when the client moves on.
  if (slot.sample < 0) return;
  SessionSample& s = samples_[static_cast<std::size_t>(slot.sample)];
  const std::int64_t t = now_ns();
  if (s.established_ns == 0) s.established_ns = t;
  if (s.finished_ns == 0) s.finished_ns = t;
  slot.sample = -1;
  sessions_done_.fetch_add(1, std::memory_order_release);
}

void Generator::retire_finished_chain(Slot& slot) {
  msrv::SessionClient& client = *slot.client;
  for (const msrv::SessionRecord& r : client.sessions()) {
    ++totals_.sessions_attempted;
    if (r.completed) ++totals_.sessions_completed;
    if (r.failed) ++totals_.sessions_failed;
    if (!r.echo_ok) ++totals_.echo_mismatches;
    if (r.completed && r.attempts > 1) ++totals_.retried_sessions;
    if (r.resumed) ++totals_.resumed_sessions;
  }
  totals_.bytes_sent += client.bytes_sent();
  totals_.bytes_echoed += client.bytes_echoed();
  totals_.digests[slot.gid] = client.transcript_digest();
  if (slot.conn) {
    add_link_stats(totals_.link, slot.conn->link->stats());
    slot.conn->link->shutdown();
    slot.conn->link = nullptr;
  }
  slot.client.reset();
  if (slot.conn) retired_.push_back(std::move(slot.conn));
}

void Generator::reap_conns() {
  for (auto& conn : retired_) {
    totals_.sockets += conn->endpoint->stats();
    conn->endpoint->close_quiet();
  }
  retired_.clear();
}

void Generator::run() {
  for (;;) {
    bool any_active = false;
    for (auto& slot : slots_) {
      if (slot->client && slot->chain_done) retire_finished_chain(*slot);
      if (!slot->client && !stop_launch_.load(std::memory_order_acquire))
        start_chain(*slot);
      any_active = any_active || slot->client != nullptr;
    }
    reap_conns();
    if (!any_active) break;

    if (trace_) {
      TurnSpan turn;
      turn.start_ns = now_ns();
      turn.events = static_cast<std::uint32_t>(reactor_.poll(1'000));
      turn.end_ns = now_ns();
      turns_.push_back(turn);
    } else {
      reactor_.poll(1'000);
    }
  }
  totals_.arena = arena_.stats();
}

}  // namespace wallbench
