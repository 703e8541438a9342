// Workload table and the serving world shared by every wallbench mode.
//
// A workload fixes the negotiated suite, the resumption mode, how many
// sessions each closed-loop client chains, and the echoed record shape.
// The workload seed reaches the program only through generated inputs:
// client seeds, payload bytes and server rng streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mapsec/crypto/rsa.hpp"
#include "mapsec/protocol/cert.hpp"
#include "mapsec/protocol/suites.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/server.hpp"
#include "mapsec/server/session_cache.hpp"

namespace wallbench {

struct Workload {
  std::string name;
  mapsec::protocol::CipherSuite suite;
  bool tickets = false;          // stateless resumption on (cache is always 0)
  int chain_sessions = 1;        // sessions one client runs back to back
  std::size_t payload_bytes = 256;
  int payloads_per_session = 1;  // echoed records per session
  int warmup_sessions = 1;       // per concurrent client, discarded
  /// peak_rss_mb is read once this many sessions of the window completed,
  /// so it measures memory per session served, not per second of window
  /// (the server keeps state for every closed connection).
  std::uint64_t rss_sessions = 1000;
};

/// Throws std::invalid_argument for an unknown name.
const Workload& workload_by_name(const std::string& name);

/// Load shape fixed for every workload.
constexpr std::size_t kShards = 2;
constexpr std::size_t kGeneratorThreads = 2;
constexpr std::size_t kConcurrentSessions = 4;  // closed loop, think time 0
constexpr std::size_t kRsaBits = 1024;          // paper-era server key

/// CA and server identity. The keys come from a fixed DRBG seed, so key
/// generation is the same work on every run and setup time does not vary
/// with the workload seed.
struct Pki {
  mapsec::crypto::RsaKeyPair ca_key;
  mapsec::crypto::RsaKeyPair server_key;
  mapsec::protocol::CertificateAuthority ca;
  mapsec::protocol::Certificate server_cert;

  static Pki make();
};

/// Certificate-validation clock shared by server and client configs.
constexpr std::uint64_t kPkiNow = 1'050'000'000;

mapsec::server::ServerConfig server_config(const Workload& w, const Pki& pki);
mapsec::server::ClientConfig client_config(const Workload& w, const Pki& pki);
mapsec::server::BoundedSessionCache::Config cache_config();

}  // namespace wallbench
