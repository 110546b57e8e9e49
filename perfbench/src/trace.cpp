#include "trace.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "stats.h"

namespace perfbench::trace {

namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 16);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::move(owned));
  }
  return *buffer;
}

constexpr char kMagic[8] = {'P', 'B', 'S', 'P', 'A', 'N', '0', '1'};

}  // namespace

const char* name_of(Name name) {
  static const char* const kNames[kNameCount] = {
      "net.frame_handler",         "service.handle",
      "service.response_encode",   "report.json_dump",
      "net.encode_frame",          "supervise.execute",
      "replay",                    "report.json_parse",
      "service.request_decode",    "service.build_problem.wire",
      "service.build_problem.table_cell",
      "selfconsistent.solve_one",  "selfconsistent.solve_scalar",
      "parallel.thread_count",     "cache.canonical_key",
      "cache.handle",              "batch.item",
      "parallel.parallel_for"};
  return name < kNameCount ? kNames[name] : "unknown";
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }
bool enabled() { return g_enabled.load(std::memory_order_acquire); }

Scope::Scope(Name name, std::uint64_t request) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  Span span;
  span.name = name;
  span.parent = buf.open.empty() ? -1 : buf.open.back();
  span.request = request;
  index_ = static_cast<std::int32_t>(buf.spans.size());
  buf.open.push_back(index_);
  span.start_ns = now_ns();
  buf.spans.push_back(span);
}

Scope::~Scope() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& buf = local_buffer();
  buf.spans[static_cast<std::size_t>(index_)].end_ns = end;
  buf.open.pop_back();
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> out;
  for (const auto& buf : g_registry) {
    const auto offset = static_cast<std::int32_t>(out.size());
    for (Span span : buf->spans) {
      if (span.parent >= 0) span.parent += offset;
      out.push_back(span);
    }
    buf->spans.clear();
  }
  return out;
}

bool write_file(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::uint64_t n = spans.size();
  bool ok = std::fwrite(kMagic, 1, sizeof kMagic, f) == sizeof kMagic &&
            std::fwrite(&n, sizeof n, 1, f) == 1 &&
            std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                spans.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

bool read_file(const std::string& path, std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[sizeof kMagic];
  std::uint64_t n = 0;
  bool ok = std::fread(magic, 1, sizeof magic, f) == sizeof magic &&
            std::memcmp(magic, kMagic, sizeof kMagic) == 0 &&
            std::fread(&n, sizeof n, 1, f) == 1 && n < (1ULL << 32);
  if (ok) {
    spans.resize(static_cast<std::size_t>(n));
    ok = std::fread(spans.data(), sizeof(Span), spans.size(), f) ==
         spans.size();
  }
  std::fclose(f);
  for (const Span& s : spans)
    ok = ok && s.name < kNameCount && s.parent < static_cast<std::int64_t>(n);
  return ok;
}

bool write_tsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok =
      std::fprintf(f, "index\tname\tparent\trequest\tstart_ns\tend_ns\n") > 0;
  for (std::size_t i = 0; ok && i < spans.size(); ++i) {
    const Span& s = spans[i];
    ok = std::fprintf(f, "%zu\t%s\t%d\t%llu\t%lld\t%lld\n", i,
                      name_of(static_cast<Name>(s.name)), s.parent,
                      static_cast<unsigned long long>(s.request),
                      static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns)) > 0;
  }
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace perfbench::trace
