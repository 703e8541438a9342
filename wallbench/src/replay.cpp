#include "replay.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "generator.hpp"
#include "mapsec/crypto/aes.hpp"
#include "mapsec/crypto/ccm.hpp"
#include "mapsec/crypto/des.hpp"
#include "mapsec/engine/packet_pipeline.hpp"
#include "mapsec/net/frame_codec.hpp"
#include "mapsec/net/link.hpp"
#include "mapsec/protocol/handshake.hpp"
#include "mapsec/server/wire.hpp"
#include "mapsec/ticket/ticket.hpp"

namespace wallbench {

namespace {

namespace mc = mapsec::crypto;
namespace mp = mapsec::protocol;
namespace mnet = mapsec::net;
namespace msrv = mapsec::server;

constexpr const char* kReplayRoot = "replay.session";
constexpr int kReplayThread = 100;  // trace lane of the replay spans

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double kib(std::size_t bytes) { return static_cast<double>(bytes) / 1024.0; }

/// Times one call and logs it as a span of replay session `session`.
class Timer {
 public:
  explicit Timer(SpanLog* spans) : spans_(spans) {}

  template <class F>
  double us(const char* name, const char* layer, std::int64_t session,
            F&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    if (spans_ != nullptr)
      spans_->add(Span{name, layer, kReplayRoot, t0, t1, session,
                       kReplayThread});
    return static_cast<double>(t1 - t0) / 1e3;
  }

 private:
  SpanLog* spans_;
};

mp::HandshakeConfig server_handshake(const Pki& pki, mc::Rng& rng,
                                     mapsec::ticket::TicketCodec* codec) {
  mp::HandshakeConfig cfg;
  cfg.rng = &rng;
  cfg.now = kPkiNow;
  cfg.cert_chain = {pki.server_cert};
  cfg.private_key = &pki.server_key.priv;
  cfg.async_pk = true;
  cfg.ticket_codec = codec;
  return cfg;
}

mp::HandshakeConfig client_handshake(const Pki& pki, const Workload& w,
                                     mc::Rng& rng) {
  mp::HandshakeConfig cfg;
  cfg.rng = &rng;
  cfg.now = kPkiNow;
  cfg.trusted_roots = {pki.ca.root()};
  cfg.offered_suites = {w.suite};
  cfg.request_session_ticket = w.tickets;
  return cfg;
}

struct ReplayedHandshake {
  std::unique_ptr<mp::TlsClient> client;
  std::unique_ptr<mp::TlsServer> server;
  double client_us = 0;
  double server_us = 0;  // excludes run_pk_job
};

struct ResumeState {
  mc::Bytes ticket;
  mc::Bytes master;
  mp::CipherSuite suite{};
};

/// Drive one handshake flight by flight, the way the serving stack does
/// (step_handshake per inbound flight; a suspended server's PkJob is run
/// through run_pk_job and fed back with resume_pk).
ReplayedHandshake replay_handshake(const Pki& pki, const Workload& w,
                                   mc::Rng& crng, mc::Rng& srng,
                                   mapsec::ticket::TicketCodec* codec,
                                   const ResumeState* resume, Timer& timer,
                                   std::int64_t session) {
  ReplayedHandshake h;
  h.client = std::make_unique<mp::TlsClient>(client_handshake(pki, w, crng));
  h.server = std::make_unique<mp::TlsServer>(
      server_handshake(pki, srng, codec));
  if (resume != nullptr)
    h.client->set_resume_ticket(resume->ticket, resume->master,
                                resume->suite);

  mp::HandshakeStep c;
  h.client_us += timer.us("step_handshake.client", "protocol", session, [&] {
    c = mp::step_handshake(*h.client, {});
  });
  mc::Bytes to_server = std::move(c.output);
  for (int round = 0; round < 16; ++round) {
    if (to_server.empty()) break;
    mp::HandshakeStep s;
    h.server_us += timer.us("step_handshake.server", "protocol", session,
                            [&] { s = mp::step_handshake(*h.server, to_server); });
    mc::Bytes to_client = std::move(s.output);
    while (h.server->pk_pending()) {
      const mp::PkJob job = h.server->pending_pk_job();
      mp::PkResult result;
      timer.us("run_pk_job", "crypto", session,
               [&] { result = mp::run_pk_job(job); });
      h.server_us += timer.us("resume_pk", "protocol", session, [&] {
        to_client = h.server->resume_pk(result);
      });
    }
    if (to_client.empty()) break;
    h.client_us += timer.us("step_handshake.client", "protocol", session,
                            [&] { c = mp::step_handshake(*h.client, to_client); });
    to_server = std::move(c.output);
  }
  if (!h.client->established() || !h.server->established())
    throw std::runtime_error("replayed handshake did not establish");
  return h;
}

int repeats_for(std::size_t bytes) { return bytes >= 4096 ? 8 : 40; }

/// Zero-latency in-memory channel: each frame is delivered by the event
/// queue, so the replayed link sees the same re-entrancy as a bearer.
class QueueChannel final : public mnet::Channel {
 public:
  explicit QueueChannel(mnet::EventQueue& queue) : queue_(queue) {}
  void set_receiver(
      std::function<void(mc::ConstBytes)> on_frame) override {
    receiver_ = std::move(on_frame);
  }
  void send(mc::ConstBytes frame) override {
    queue_.schedule_in(0, [this, f = mc::Bytes(frame.begin(), frame.end())] {
      if (receiver_) receiver_(f);
    });
  }

 private:
  mnet::EventQueue& queue_;
  std::function<void(mc::ConstBytes)> receiver_;
};

std::unique_ptr<mc::BlockCipher> suite_cipher(const Workload& w,
                                              mc::Rng& rng) {
  const mp::SuiteInfo& info = mp::suite_info(w.suite);
  const mc::Bytes key = rng.bytes(info.key_len);
  if (info.cipher == mp::BulkCipher::kDes3)
    return mc::make_block_cipher(mc::Des3(key));
  if (info.cipher == mp::BulkCipher::kAes128)
    return mc::make_block_cipher(mc::Aes(key));
  throw std::invalid_argument("wallbench: unsupported bulk cipher");
}

}  // namespace

double time_pk_us(const Pki& pki, const Workload& w) {
  // A full handshake suspends the async server on its ClientKeyExchange
  // decrypt; that job is then run repeatedly.
  mc::HmacDrbg crng(0x9D), srng(0x96);
  Timer timer(nullptr);
  mp::TlsClient client(client_handshake(pki, w, crng));
  mp::TlsServer server(server_handshake(pki, srng, nullptr));
  mp::HandshakeStep c = mp::step_handshake(client, {});
  mp::HandshakeStep s = mp::step_handshake(server, c.output);
  c = mp::step_handshake(client, s.output);
  s = mp::step_handshake(server, c.output);
  if (!server.pk_pending())
    throw std::runtime_error("server did not suspend on its private op");
  const mp::PkJob job = server.pending_pk_job();
  std::vector<double> samples;
  for (int i = 0; i < 24; ++i)
    samples.push_back(timer.us("run_pk_job", "crypto", -1,
                               [&] { (void)mp::run_pk_job(job); }));
  return median(samples);
}

LayerReplay replay_layers(const Workload& w, const Pki& pki,
                          std::uint64_t seed, SpanLog* spans) {
  LayerReplay out;
  Timer timer(spans);
  mc::HmacDrbg crng(seed ^ 0xC1), srng(seed ^ 0x5E), drng(seed ^ 0xDA);
  std::int64_t session = 0;

  // ---- handshakes: the chain's mix of full and ticket-resumed ---------
  mapsec::ticket::TicketKeyRing ring(seed ^ 0x71C, {});
  mapsec::ticket::TicketCodec codec(ring);
  mapsec::ticket::TicketCodec* codec_ptr = w.tickets ? &codec : nullptr;

  std::vector<double> full_c, full_s, res_c, res_s;
  ResumeState resume;
  ReplayedHandshake last;
  const int full_n = 12, res_n = w.tickets ? 24 : 0;
  for (int i = 0; i < full_n; ++i) {
    ReplayedHandshake h = replay_handshake(pki, w, crng, srng, codec_ptr,
                                           nullptr, timer, session++);
    full_c.push_back(h.client_us);
    full_s.push_back(h.server_us);
    if (w.tickets)
      resume = {h.client->session_ticket(), h.client->master_secret(),
                h.client->summary().suite};
    last = std::move(h);
  }
  for (int i = 0; i < res_n; ++i) {
    ReplayedHandshake h = replay_handshake(pki, w, crng, srng, codec_ptr,
                                           &resume, timer, session++);
    if (!h.client->summary().ticket_resumed)
      throw std::runtime_error("replayed resumption did not use the ticket");
    res_c.push_back(h.client_us);
    res_s.push_back(h.server_us);
    resume.ticket = h.client->session_ticket();
    last = std::move(h);
  }
  // Each chain opens with one full handshake; the rest resume by ticket.
  const double full_w = w.tickets ? 1.0 / w.chain_sessions : 1.0;
  const double res_w = 1.0 - full_w;
  out.handshake_client_us =
      full_w * median(full_c) + (res_n ? res_w * median(res_c) : 0);
  out.handshake_server_us =
      full_w * median(full_s) + (res_n ? res_w * median(res_s) : 0);

  // ---- ticket codec ---------------------------------------------------
  {
    mapsec::ticket::SessionTicket t;
    t.master_secret = drng.bytes(48);
    t.suite = static_cast<std::uint16_t>(w.suite);
    t.client_binding = mapsec::ticket::client_binding_for(t.master_secret);
    std::vector<double> seal, open;
    mc::Bytes blob;
    for (int i = 0; i < 40; ++i) {
      seal.push_back(timer.us("TicketCodec::seal", "ticket", session,
                              [&] { blob = codec.seal(t, drng); }));
      bool ok = false;
      open.push_back(timer.us("TicketCodec::open", "ticket", session,
                              [&] { ok = codec.open(blob, 0).has_value(); }));
      if (!ok) throw std::runtime_error("ticket replay failed to open");
    }
    out.ticket_seal_us = median(seal);
    out.ticket_open_us = median(open);
    ++session;
  }

  const std::size_t pbytes = w.payload_bytes;
  const int reps = repeats_for(pbytes);
  const mc::Bytes payload = drng.bytes(pbytes);

  // ---- record layer on the last established pair ------------------------
  {
    std::vector<double> seal, open;
    for (int i = 0; i < reps; ++i) {
      mc::Bytes wire;
      seal.push_back(timer.us("TlsClient::send_data", "protocol", session,
                              [&] { wire = last.client->send_data(payload); }));
      std::vector<mc::Bytes> got;
      open.push_back(timer.us("TlsServer::recv_data", "protocol", session,
                              [&] { got = last.server->recv_data(wire); }));
      if (got.size() != 1 || got[0] != payload)
        throw std::runtime_error("replayed record did not round-trip");
    }
    out.record_seal_us_per_kib = median(seal) / kib(pbytes);
    out.record_open_us_per_kib = median(open) / kib(pbytes);
  }

  // ---- crypto kernels: the suite's CBC + HMAC-SHA1, and AES-CCM ----------
  {
    const mp::SuiteInfo& info = mp::suite_info(w.suite);
    std::unique_ptr<mc::BlockCipher> cipher = suite_cipher(w, drng);
    const mc::Bytes mac_key = drng.bytes(20);
    const mc::Bytes iv = drng.bytes(info.block_len);
    std::vector<double> bulk;
    for (int i = 0; i < reps; ++i) {
      bulk.push_back(timer.us("cbc+hmac", "crypto", session, [&] {
        mc::Bytes plain = payload;
        const mc::Bytes tag = mp::suite_mac(mp::MacAlgo::kHmacSha1, mac_key,
                                            plain);
        plain.insert(plain.end(), tag.begin(), tag.end());
        const mc::Bytes ct = mc::cbc_encrypt(*cipher, iv, plain);
        const mc::Bytes pt = mc::cbc_decrypt(*cipher, iv, ct);
        const mc::Bytes check = mp::suite_mac(
            mp::MacAlgo::kHmacSha1, mac_key,
            mc::ConstBytes(pt.data(), pt.size() - tag.size()));
        if (check != tag) throw std::runtime_error("cbc+hmac mismatch");
      }));
    }
    out.bulk_cipher_us_per_kib = median(bulk) / kib(pbytes);

    const auto aes = mc::make_block_cipher(mc::Aes(drng.bytes(16)));
    const mc::Bytes nonce = drng.bytes(mc::kCcmNonceLen);
    const mc::Bytes aad = drng.bytes(8);
    std::vector<double> ccm;
    for (int i = 0; i < reps; ++i) {
      ccm.push_back(timer.us("ccm_seal+open", "crypto", session, [&] {
        const mc::Bytes sealed = mc::ccm_seal(*aes, nonce, aad, payload);
        if (!mc::ccm_open(*aes, nonce, aad, sealed))
          throw std::runtime_error("ccm replay failed to open");
      }));
    }
    out.ccm_us_per_kib = median(ccm) / kib(pbytes);
  }

  // ---- engine: the server's echo batch, the client's open ---------------
  {
    const msrv::BulkKeys keys = msrv::derive_bulk_keys(
        last.client->master_secret(), last.client->summary().session_id);
    constexpr std::uint32_t kSpi = 1;
    mapsec::engine::PacketPipeline pipeline(mapsec::engine::EngineProfile{},
                                            1, seed);
    pipeline.load_program("ccmp-out",
                          mapsec::engine::ccmp_outbound_program());
    pipeline.add_sa(kSpi, msrv::make_bulk_sa(kSpi, keys));
    mc::HmacDrbg engine_rng(seed ^ 0xE1);
    mapsec::engine::ProtocolEngine engine(mapsec::engine::EngineProfile{},
                                          &engine_rng);
    engine.load_program("ccmp-in", mapsec::engine::ccmp_inbound_program());
    mapsec::engine::EngineSa client_sa = msrv::make_bulk_sa(kSpi, keys);

    std::uint32_t seq = 1;
    const std::size_t batch = static_cast<std::size_t>(w.payloads_per_session);
    std::vector<double> server_batch, client_open;
    for (int i = 0; i < std::max(3, reps / 4); ++i) {
      std::vector<mapsec::engine::PipelineJob> jobs(batch);
      for (auto& job : jobs) {
        job.sa_id = kSpi;
        job.program = "ccmp-out";
        job.packet = msrv::bulk_header(kSpi, seq++);
        job.packet.insert(job.packet.end(), payload.begin(), payload.end());
      }
      std::vector<mapsec::engine::PipelineResult> results;
      server_batch.push_back(
          timer.us("PacketPipeline::run_batch", "engine", session,
                   [&] { results = pipeline.run_batch(jobs); }));
      double open_us = 0;
      for (const auto& r : results) {
        mc::Bytes body = r.header;
        body.insert(body.end(), r.payload.begin(), r.payload.end());
        bool ok = false;
        open_us += timer.us("ProtocolEngine::run(ccmp-in)", "engine",
                            session, [&] {
                              ok = engine.run("ccmp-in", client_sa, body,
                                              engine_rng)
                                       .accepted;
                            });
        if (!ok) throw std::runtime_error("echo replay was not accepted");
      }
      client_open.push_back(open_us);
    }
    const double batch_kib = kib(pbytes * batch);
    out.pipeline_us_per_kib = median(server_batch) / batch_kib;
    out.client_open_us_per_kib = median(client_open) / batch_kib;
  }

  // ---- net: frame codec, and ReliableLink over an in-memory channel -----
  {
    const mnet::LinkConfig link_cfg;
    const std::size_t frame_payload = link_cfg.segment_payload + 5;
    const mc::Bytes frame = drng.bytes(frame_payload);
    constexpr int kFrames = 2048;
    std::vector<double> codec_ns;
    for (int i = 0; i < 7; ++i) {
      const double us = timer.us("FrameCodec", "net", session, [&] {
        mc::Bytes stream;
        stream.reserve(kFrames * (frame_payload + 4));
        for (int f = 0; f < kFrames; ++f)
          mnet::FrameCodec::append_frame(stream, frame);
        std::size_t off = 0;
        int parsed = 0;
        while (off < stream.size()) {
          const auto head = mnet::FrameCodec::inspect(
              stream.data() + off, stream.size() - off, 1 << 20);
          if (head.status != mnet::FrameCodec::Status::kFrame) break;
          off += mnet::FrameCodec::kHeaderBytes + head.payload_len;
          ++parsed;
        }
        if (parsed != kFrames) throw std::runtime_error("frame replay short");
      });
      codec_ns.push_back(us * 1e3 / kFrames);
    }
    out.frame_codec_ns_per_frame = median(codec_ns);

    mnet::EventQueue queue;
    QueueChannel a_to_b(queue), b_to_a(queue);
    mnet::ReliableLink a(queue, a_to_b, b_to_a, link_cfg);
    mnet::ReliableLink b(queue, b_to_a, a_to_b, link_cfg);
    std::size_t delivered = 0;
    b.set_on_message([&](mc::ConstBytes m) { delivered += m.size(); });
    const mc::Bytes message = drng.bytes(pbytes + 64);  // record + headers
    std::vector<double> link_us;
    for (int i = 0; i < reps; ++i) {
      link_us.push_back(timer.us("ReliableLink", "net", session, [&] {
        a.send_message(message);
        queue.run_all();
      }));
    }
    if (delivered != message.size() * static_cast<std::size_t>(reps))
      throw std::runtime_error("link replay lost data");
    out.link_us_per_kib = median(link_us) / kib(message.size());
  }
  return out;
}

}  // namespace wallbench
