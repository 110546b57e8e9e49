#include "supervise/protocol.h"

#include <cstring>

#include "cache/fnv.h"
#include "net/wire.h"

namespace dsmt::supervise {

namespace {

void put_u64_be(std::string& out, std::uint64_t value) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((value >> shift) & 0xffu));
}

std::uint64_t get_u64_be(const char* data) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kSeqPrefixBytes; ++i)
    value = (value << 8) | static_cast<unsigned char>(data[i]);
  return value;
}

}  // namespace

std::uint64_t canonical_request_hash(const service::Request& request) {
  const std::string canonical =
      service::request_to_json(request).dump(-1);
  // FNV-1a over the full canonical serialization, from the one shared
  // primitive (cache/fnv.h). kCanonicalBasis is this function's historical
  // basis, frozen there: changing it would change the hash that
  // worker-crashed replies and the sign-off quarantine table print for the
  // same request from one build to the next.
  return cache::fnv1a(canonical, cache::kCanonicalBasis);
}

std::string encode_request_message(std::uint64_t seq,
                                   const service::Request& request) {
  std::string out;
  put_u64_be(out, seq);
  out += net::encode_frame(service::request_to_json(request).dump(-1));
  return out;
}

std::string encode_response_message(std::uint64_t seq,
                                    const service::Response& response) {
  std::string out;
  put_u64_be(out, seq);
  out += net::encode_frame(service::dump_response(response));
  return out;
}

bool split_message(const char* data, std::size_t size,
                   std::size_t max_payload_bytes, std::uint64_t& seq,
                   std::string& frame) {
  if (size < kSeqPrefixBytes + net::kFrameHeaderBytes) return false;
  seq = get_u64_be(data);
  const char* header = data + kSeqPrefixBytes;
  if (std::memcmp(header, net::kFrameMagic, sizeof net::kFrameMagic) != 0)
    return false;
  std::uint64_t declared = 0;
  for (std::size_t i = 4; i < net::kFrameHeaderBytes; ++i)
    declared = (declared << 8) | static_cast<unsigned char>(header[i]);
  if (declared > max_payload_bytes) return false;
  // SEQPACKET preserves message boundaries, so the declared length must
  // account for exactly the rest of the datagram — anything else is a
  // protocol violation, not a short read.
  if (size - kSeqPrefixBytes - net::kFrameHeaderBytes != declared)
    return false;
  frame.assign(header, net::kFrameHeaderBytes + declared);
  return true;
}

std::string frame_payload(const std::string& frame) {
  if (frame.size() < net::kFrameHeaderBytes) return std::string{};
  return frame.substr(net::kFrameHeaderBytes);
}

}  // namespace dsmt::supervise
