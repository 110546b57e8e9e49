#include "generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "materials/dielectric.h"
#include "report/json.h"
#include "tech/ntrs.h"

namespace perfbench {

namespace {

using dsmt::service::Request;
using dsmt::service::RequestKind;
using dsmt::service::WireSpec;

/// The built-in technologies, in technology_names() order.
const std::vector<dsmt::tech::Technology>& technologies() {
  static const std::vector<dsmt::tech::Technology> techs = {
      dsmt::tech::make_ntrs_250nm_cu(),   dsmt::tech::make_ntrs_180nm_cu(),
      dsmt::tech::make_ntrs_130nm_cu(),   dsmt::tech::make_ntrs_100nm_cu(),
      dsmt::tech::make_ntrs_250nm_alcu(), dsmt::tech::make_ntrs_100nm_alcu(),
  };
  return techs;
}

/// The wire a level of `tech` draws under `gap_fill`: the level's width and
/// thickness over its whole dielectric path to the substrate, collapsed to
/// the one slab of the same thickness and series thermal resistance.
WireSpec wire_of(const dsmt::tech::Technology& tech, int level,
                 const std::string& gap_fill) {
  const dsmt::tech::MetalLayer& layer = tech.layer(level);
  const dsmt::tech::DielectricStack stack =
      tech.stack_below(level, dsmt::materials::dielectric_by_name(gap_fill));
  WireSpec w;
  w.metal = tech.metal.name == "AlCu" ? "alcu" : "cu";
  w.width_um = layer.width * 1e6;
  w.thickness_um = layer.thickness * 1e6;
  w.dielectric_um = stack.total_thickness() * 1e6;
  w.k_dielectric = stack.effective_conductivity();
  return w;
}

/// Smallest and largest wire of every technology, level and gap-fill, field
/// by field: the span unique wires are drawn from.
struct WireRange {
  WireSpec lo;
  WireSpec hi;
};

const WireRange& wire_range() {
  static const WireRange range = [] {
    WireRange r;
    bool first = true;
    for (const dsmt::tech::Technology& tech : technologies())
      for (int level = 1; level <= tech.num_levels(); ++level)
        for (const std::string& gap_fill : gap_fill_names()) {
          const WireSpec w = wire_of(tech, level, gap_fill);
          if (first) r.lo = r.hi = w;
          first = false;
          r.lo.width_um = std::min(r.lo.width_um, w.width_um);
          r.hi.width_um = std::max(r.hi.width_um, w.width_um);
          r.lo.thickness_um = std::min(r.lo.thickness_um, w.thickness_um);
          r.hi.thickness_um = std::max(r.hi.thickness_um, w.thickness_um);
          r.lo.dielectric_um = std::min(r.lo.dielectric_um, w.dielectric_um);
          r.hi.dielectric_um = std::max(r.hi.dielectric_um, w.dielectric_um);
          r.lo.k_dielectric = std::min(r.lo.k_dielectric, w.k_dielectric);
          r.hi.k_dielectric = std::max(r.hi.k_dielectric, w.k_dielectric);
        }
    return r;
  }();
  return range;
}

/// The chip's wires, one per level of the paper's 100 nm Cu technology
/// with oxide gap-fill.
const std::vector<WireSpec>& chip_wires() {
  static const std::vector<WireSpec> wires = [] {
    const dsmt::tech::Technology tech = dsmt::tech::make_ntrs_100nm_cu();
    std::vector<WireSpec> out;
    for (int level = 1; level <= tech.num_levels(); ++level)
      out.push_back(wire_of(tech, level, "oxide"));
    return out;
  }();
  return wires;
}

std::string make_id(std::uint64_t index) {
  std::string id(1, 'r');
  id += std::to_string(index);
  return id;
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

const std::vector<std::string>& technology_names() {
  static const std::vector<std::string> names = {
      "NTRS-250nm-Cu",   "NTRS-180nm-Cu",   "NTRS-130nm-Cu",
      "NTRS-100nm-Cu",   "NTRS-250nm-AlCu", "NTRS-100nm-AlCu"};
  return names;
}

const std::vector<std::string>& gap_fill_names() {
  static const std::vector<std::string> names = {
      "oxide", "hsq", "polyimide", "fsg", "aerogel", "air"};
  return names;
}

RequestStream::RequestStream(Mix mix, std::uint64_t seed)
    : mix_(mix), rng_(seed ^ (mix == Mix::kUnique ? 0x756E69717565ULL
                                                  : 0x63686970ULL)) {}

Request RequestStream::next() {
  Request r = mix_ == Mix::kUnique ? next_unique() : next_chip();
  r.id = make_id(index_++);
  // The payload carries numbers at the JSON writer's precision: decode it
  // back so the request held here is exactly the one the server receives.
  return dsmt::service::request_from_json(
      dsmt::report::Json::parse(payload_of(r)));
}

Request RequestStream::next_unique() {
  Request r;
  // Assumed: no trace ranks the three kinds, so each is a third.
  r.kind = static_cast<RequestKind>(rng_.below(3));
  // Continuous, so no two requests share an operating point: the duty
  // cycle log-uniform over the paper's Fig. 2 sweep, j0 between the
  // paper's two Cu design values (Tables 2 and 3). T_ref keeps the
  // paper's 100 C.
  r.duty_cycle = std::exp(rng_.uniform(std::log(1e-4), 0.0));
  r.j0_MA_cm2 = rng_.uniform(0.6, 1.8);
  if (r.kind == RequestKind::kTableCell) {
    const std::size_t t = rng_.below(technologies().size());
    r.technology = technology_names()[t];
    r.level = 1 + static_cast<int>(rng_.below(
                      static_cast<std::size_t>(technologies()[t].num_levels())));
    r.dielectric = gap_fill_names()[rng_.below(gap_fill_names().size())];
  } else {
    // Each field uniform over the span the built-in technologies' wires
    // cover (wire_range), in either of their metals.
    const WireRange& span = wire_range();
    r.wire.metal = rng_.uniform() < 0.5 ? "cu" : "alcu";
    r.wire.width_um = rng_.uniform(span.lo.width_um, span.hi.width_um);
    r.wire.thickness_um =
        rng_.uniform(span.lo.thickness_um, span.hi.thickness_um);
    r.wire.dielectric_um =
        rng_.uniform(span.lo.dielectric_um, span.hi.dielectric_um);
    r.wire.k_dielectric =
        rng_.uniform(span.lo.k_dielectric, span.hi.k_dielectric);
  }
  return r;
}

Request RequestStream::next_chip() {
  // One chip of the paper's 100 nm Cu technology asks for each wire's rule
  // from its geometry, as a per-wire sign-off caller does: a wire has its
  // level's geometry (chip_wires) and is a signal line (r = 0.1) or a power
  // line (r = 1.0), the paper's two design classes. Assumed, since no trace
  // gives a chip's wire counts: every level and both classes are equally
  // likely. j0 and T_ref keep the paper's Table 2 values (the defaults).
  Request r;
  r.kind = RequestKind::kSelfConsistent;
  r.wire = chip_wires()[rng_.below(chip_wires().size())];
  r.duty_cycle = rng_.uniform() < 0.5 ? 0.1 : 1.0;
  return r;
}

std::string payload_of(const Request& request) {
  return dsmt::service::request_to_json(request).dump(-1);
}

std::string key_of(const Request& request) {
  Request anonymous = request;
  anonymous.id.clear();
  return payload_of(anonymous);
}

long long index_of_id(const std::string& id) {
  if (id.size() < 2 || id[0] != 'r') return -1;
  char* end = nullptr;
  const long long v = std::strtoll(id.c_str() + 1, &end, 10);
  return (end != nullptr && *end == '\0' && v >= 0) ? v : -1;
}

void StreamStats::add(const Request& request) {
  ++total_;
  ++kinds_[static_cast<std::size_t>(request.kind)];
  seen_.insert(std::hash<std::string>{}(key_of(request)));
}

double StreamStats::kind_share(RequestKind kind) const {
  const std::size_t n = kinds_[static_cast<std::size_t>(kind)];
  return total_ == 0 ? 0.0
                     : static_cast<double>(n) / static_cast<double>(total_);
}

double StreamStats::repeat_share() const {
  return total_ == 0 ? 0.0
                     : static_cast<double>(total_ - seen_.size()) /
                           static_cast<double>(total_);
}

std::string StreamStats::describe() const {
  char line[200];
  std::snprintf(line, sizeof line,
                "stream n=%zu self-consistent=%.3f duty-cycle-point=%.3f "
                "table-cell=%.3f repeated-keys=%.4f",
                total_, kind_share(RequestKind::kSelfConsistent),
                kind_share(RequestKind::kDutyCyclePoint),
                kind_share(RequestKind::kTableCell), repeat_share());
  return line;
}

}  // namespace perfbench
