// Load over the DSM1 unix socket, and reply verification.
//
// One thread sends requests on a precomputed schedule and reads replies
// over C connections (C no more than the host's CPUs). Request k goes to
// connection k % C, and each connection answers in request order. A
// connection holds at most kWindow requests in flight, below the server's
// in-flight cap, so the server never refuses one; a request that waits
// for its window, or for a stalled sender, counts as generator lag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/request.h"

namespace perfbench {

/// The in-process reference for a request stream: the FNV-1a hash of the
/// exact reply payload the default service produces for each request, and
/// whether that reply is status ok at degradation level 0.
struct Reference {
  std::vector<std::uint64_t> hash;
  std::vector<char> ok_full;
};

/// Computes the reference with up to `threads` threads of its own. When
/// `texts` is set it also receives each reference reply payload.
Reference compute_reference(
    const std::vector<dsmt::service::Request>& requests, std::size_t threads,
    std::vector<std::string>* texts = nullptr);

/// True when `payload` is the reference reply: the same bytes (which
/// covers the echoed id), and the reference is ok at degradation level 0.
bool reply_matches(const std::string& payload, std::uint64_t ref_hash,
                   bool ref_ok_full);

struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t matched = 0;     ///< answered with the reference bytes
  std::size_t mismatched = 0;  ///< answered with any other bytes
  std::size_t unanswered = 0;  ///< no reply in time
  /// Per request in schedule order: how late it was sent [us].
  std::vector<double> lag_us;
  /// Send-to-reply time of matched requests [us], and the request index of
  /// each.
  std::vector<double> rtt_us;
  std::vector<std::uint64_t> ids;
};

/// Poisson offsets [ns] for `count` requests at `rate` [1/s].
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate,
                                           std::size_t count);

/// Requests one connection holds in flight at most: half the server's
/// default per-connection cap, so the cap never refuses one.
constexpr std::size_t kWindow = 8;

/// Sends `requests` on `schedule` (offsets [ns] from the start; all zero
/// sends as fast as the windows allow) over `connections` fresh
/// connections to `socket_path`, collects and verifies every reply.
/// Replies still missing two seconds after the last send count as wrong.
PhaseResult run_phase(const std::string& socket_path, std::size_t connections,
                      const std::vector<dsmt::service::Request>& requests,
                      const std::vector<std::int64_t>& schedule,
                      const Reference& reference);

}  // namespace perfbench
