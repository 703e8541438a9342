// In-memory replay of one workload's per-session work through each
// layer's public entry points, timed call by call on the benchmark's
// clock. The replay uses the workload's suite, server key, resumption
// mode and record sizes; nothing here is instrumented inside the program.
#pragma once

#include <cstdint>

#include "trace.hpp"
#include "workload.hpp"

namespace wallbench {

struct LayerReplay {
  // crypto
  double bulk_cipher_us_per_kib = 0;  // CBC enc+dec and HMAC-SHA1 tag+verify
  double ccm_us_per_kib = 0;          // AES-CCM seal+open of an echo record
  // protocol (async_pk, so the private op is excluded)
  double handshake_client_us = 0;  // per session, chain-weighted mix
  double handshake_server_us = 0;
  double record_seal_us_per_kib = 0;  // TlsClient::send_data
  double record_open_us_per_kib = 0;  // TlsServer::recv_data
  // ticket
  double ticket_seal_us = 0;
  double ticket_open_us = 0;
  // engine
  double pipeline_us_per_kib = 0;     // server PacketPipeline::run_batch
  double client_open_us_per_kib = 0;  // client ProtocolEngine ccmp-in
  // net
  double frame_codec_ns_per_frame = 0;  // encode + inspect
  double link_us_per_kib = 0;           // sender + receiver, in memory

  double record_us_per_kib() const {
    return record_seal_us_per_kib + record_open_us_per_kib -
           bulk_cipher_us_per_kib;
  }
};

/// Median wall time of one server private-key operation on `pki`'s key.
double time_pk_us(const Pki& pki, const Workload& workload);

/// Full replay. Every timed call is added to `spans` when non-null.
LayerReplay replay_layers(const Workload& workload, const Pki& pki,
                          std::uint64_t seed, SpanLog* spans);

}  // namespace wallbench
