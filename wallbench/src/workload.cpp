#include "workload.hpp"

#include <stdexcept>
#include <utility>

namespace wallbench {

namespace {

using mapsec::protocol::CipherSuite;

const std::vector<Workload>& table() {
  // Bulk chains are short so the post-window drain stays bounded; each
  // chain's one full handshake is still a small share of its record work
  // (3DES: 1 RSA op against 4 x 16 KiB of DES per session).
  static const std::vector<Workload> workloads = {
      {"handshake_full", CipherSuite::kRsaAes128CbcSha, /*tickets=*/false,
       /*chain=*/16, /*payload=*/256, /*payloads=*/1, /*warmup=*/8,
       /*rss_sessions=*/5000},
      {"handshake_resume", CipherSuite::kRsaAes128CbcSha, true, 200, 256, 1,
       20, 8000},
      {"bulk_3des", CipherSuite::kRsa3DesEdeCbcSha, true, 4, 16 * 1024, 4, 1,
       100},
      {"bulk_aes", CipherSuite::kRsaAes128CbcSha, true, 16, 16 * 1024, 4, 8,
       3000},
  };
  return workloads;
}

}  // namespace

const Workload& workload_by_name(const std::string& name) {
  for (const Workload& w : table())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

Pki Pki::make() {
  mapsec::crypto::HmacDrbg rng(0x3A11BE7C);
  mapsec::crypto::RsaKeyPair ca_key =
      mapsec::crypto::rsa_generate(rng, kRsaBits);
  mapsec::crypto::RsaKeyPair server_key =
      mapsec::crypto::rsa_generate(rng, kRsaBits);
  mapsec::protocol::CertificateAuthority ca("WallbenchRoot", ca_key, 0,
                                            kPkiNow * 2);
  mapsec::protocol::Certificate cert =
      ca.issue("server.wallbench", server_key.pub, 0, kPkiNow * 2);
  return Pki{std::move(ca_key), std::move(server_key), std::move(ca),
             std::move(cert)};
}

mapsec::server::ServerConfig server_config(const Workload& w,
                                           const Pki& pki) {
  mapsec::server::ServerConfig cfg;
  cfg.handshake.now = kPkiNow;
  cfg.handshake.cert_chain = {pki.server_cert};
  cfg.handshake.private_key = &pki.server_key.priv;
  cfg.ticket.enabled = w.tickets;
  return cfg;
}

mapsec::server::ClientConfig client_config(const Workload& w,
                                           const Pki& pki) {
  mapsec::server::ClientConfig cfg;
  cfg.handshake.now = kPkiNow;
  cfg.handshake.trusted_roots = {pki.ca.root()};
  cfg.handshake.offered_suites = {w.suite};
  cfg.use_session_tickets = w.tickets;
  cfg.payload_bytes = w.payload_bytes;
  cfg.payloads_per_session = w.payloads_per_session;
  cfg.think_time_us = 0;
  cfg.sessions = w.chain_sessions;
  return cfg;
}

mapsec::server::BoundedSessionCache::Config cache_config() {
  mapsec::server::BoundedSessionCache::Config cfg;
  cfg.capacity = 0;  // resumption, where a workload has it, is by ticket
  return cfg;
}

}  // namespace wallbench
