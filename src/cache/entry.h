// One cached Eq.-13 solve: canonical key, numeric payload, byte codec.
//
// The cache stores the raw solver outputs (SI doubles, bit-exact), not
// formatted reply bytes: replies echo the request id and every unit
// conversion the reply layer applies is reproduced on the hit path, so one
// cached solve serves any id while keeping replies byte-identical to a cold
// solve. Only CANONICAL solves are cacheable — a clean first-try success
// whose diag chain is the single synthesized "numeric/brent" event
// (selfconsistent/batch.cpp). Recovered or degraded solves carry history a
// fixed-width payload cannot round-trip, and caching them would make a
// warm reply differ from a clean cold one; they simply stay uncached.
//
// The wire payload is fixed-layout big-endian (the supervise protocol's
// convention): key length + key bytes + six IEEE-754 bit patterns + the
// iteration count. Doubles travel as u64 bit patterns, never through text,
// so a decode(encode(x)) round trip is the identity on every lane.
#pragma once

#include <cstdint>
#include <string>

#include "selfconsistent/solver.h"
#include "service/request.h"

namespace dsmt::cache {

/// The numeric outcome of one canonical solve, SI units throughout.
struct CachedSolve {
  double t_metal_k = 0.0;
  double delta_t_k = 0.0;
  double j_peak_A_m2 = 0.0;
  double j_rms_A_m2 = 0.0;
  double j_avg_A_m2 = 0.0;
  double residual = 0.0;  ///< final root-find residual (diag chain's)
  int iterations = 0;
};

/// Content-address of a request: the strict-JSON canonical form with the
/// client-chosen id cleared, so retries and distinct clients asking the
/// same physics share one entry. (The supervise quarantine hash keys the
/// id-bearing form — a quarantine is per-request, a cache line is
/// per-physics.)
std::string canonical_key(const service::Request& request);

/// True iff `solution` is a canonical clean solve: converged, kOk, and its
/// diag is exactly the synthesized single-event "numeric/brent" chain.
bool canonical_solve(const selfconsistent::Solution& solution);

/// Captures a canonical solve's numbers. Precondition: canonical_solve().
CachedSolve from_solution(const selfconsistent::Solution& solution);

/// Rebuilds the Solution a clean scalar solve would have returned,
/// including the synthesized canonical diag — field-for-field what
/// selfconsistent::solve_one leaves behind on a first-try success.
selfconsistent::Solution to_solution(const CachedSolve& value);

/// Serializes (key, value) into the resident payload layout.
std::string encode_payload(const std::string& key, const CachedSolve& value);

/// Parses a payload; false on any structural violation (short buffer,
/// trailing bytes, absurd key length).
bool decode_payload(const std::string& payload, std::string& key,
                    CachedSolve& value);

}  // namespace dsmt::cache
