// Portable governance packs (§III-C).
//
// "This modularity can enable the development of portable tools that can be
// adapted to different platforms and use cases." A GovernancePack captures
// the platform-independent part of a metaverse's governance configuration —
// which governance concerns (federated modules) exist and which regulation
// module each region runs — in a canonical wire format, so one platform's
// governance layout can be applied to another (or archived/audited).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/metaverse.h"

namespace mv::core {

struct GovernancePack {
  std::vector<std::string> governance_modules;  ///< federated concern names
  std::map<std::string, std::string> region_regulations;  ///< region → module name

  [[nodiscard]] Bytes encode() const;
  /// Strict: region bindings must be strictly ascending (one encoding per
  /// pack), and the whole buffer must be one pack.
  [[nodiscard]] static Result<GovernancePack> decode(
      std::span<const std::uint8_t> bytes);

  friend bool operator==(const GovernancePack&, const GovernancePack&) = default;
};

/// Snapshot the portable governance layout of a platform.
[[nodiscard]] GovernancePack export_governance_pack(Metaverse& metaverse);

/// Apply a pack to a platform: create any missing governance concerns and
/// bind each region to the named regulation module. Unknown regulation names
/// fail the whole application (nothing is partially applied).
[[nodiscard]] Status apply_governance_pack(Metaverse& metaverse,
                                           const GovernancePack& pack);

/// The registry of portable regulation modules ("gdpr", "ccpa", "baseline",
/// and "+"-joined compositions such as "gdpr+ccpa").
[[nodiscard]] Result<policy::ModulePtr> regulation_by_name(const std::string& name);

}  // namespace mv::core
