#include "core/portability.h"

namespace mv::core {

Bytes GovernancePack::encode() const {
  ByteWriter w;
  w.str("mvgovpack/1");  // format tag + version
  w.u32(static_cast<std::uint32_t>(governance_modules.size()));
  for (const auto& name : governance_modules) w.str(name);
  w.u32(static_cast<std::uint32_t>(region_regulations.size()));
  for (const auto& [region, regulation] : region_regulations) {
    w.str(region);
    w.str(regulation);
  }
  return w.take();
}

Result<GovernancePack> GovernancePack::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  r.require(r.str() == "mvgovpack/1", "pack.bad_format", "unknown pack format tag");
  GovernancePack pack;
  pack.governance_modules.resize(r.count(SIZE_MAX, 4, "pack.bad_count"));
  for (auto& name : pack.governance_modules) name = r.str();
  const std::size_t binding_count = r.count(SIZE_MAX, 8, "pack.bad_count");
  for (std::size_t i = 0; i < binding_count && r.ok(); ++i) {
    std::string region = r.str();
    std::string regulation = r.str();
    // Strictly ascending regions, as encode() writes them: a duplicate or
    // reordered binding would give the same pack a second encoding.
    r.require(pack.region_regulations.empty() ||
                  pack.region_regulations.rbegin()->first < region,
              "pack.bad_order", "region bindings not strictly ascending");
    pack.region_regulations.emplace_hint(pack.region_regulations.end(),
                                         std::move(region), std::move(regulation));
  }
  return r.finish(std::move(pack), "pack.trailing_bytes", "unparsed trailing data");
}

GovernancePack export_governance_pack(Metaverse& metaverse) {
  GovernancePack pack;
  auto& governance = metaverse.governance();
  for (std::size_t m = 0; m < governance.module_count(); ++m) {
    pack.governance_modules.push_back(governance.module_name(ModuleId(m)));
  }
  for (const auto& [region, regulation] : metaverse.policy().region_bindings()) {
    pack.region_regulations.emplace(region, regulation);
  }
  return pack;
}

Result<policy::ModulePtr> regulation_by_name(const std::string& name) {
  if (name == "gdpr") return policy::make_gdpr_module();
  if (name == "ccpa") return policy::make_ccpa_module();
  if (name == "baseline") return policy::make_baseline_module();
  // Compositions: "a+b" = union of the named modules' rules.
  const auto plus = name.find('+');
  if (plus != std::string::npos && plus > 0 && plus + 1 < name.size()) {
    auto left = regulation_by_name(name.substr(0, plus));
    if (!left.ok()) return left.error();
    auto right = regulation_by_name(name.substr(plus + 1));
    if (!right.ok()) return right.error();
    return policy::compose(left.value(), right.value(), name);
  }
  return make_error("pack.unknown_regulation", name);
}

Status apply_governance_pack(Metaverse& metaverse, const GovernancePack& pack) {
  // Resolve every regulation first so the application is all-or-nothing.
  std::vector<std::pair<std::string, policy::ModulePtr>> resolved;
  resolved.reserve(pack.region_regulations.size());
  for (const auto& [region, regulation] : pack.region_regulations) {
    auto module = regulation_by_name(regulation);
    if (!module.ok()) {
      return Status::fail(module.error().code, module.error().message);
    }
    resolved.emplace_back(region, module.value());
  }
  auto& governance = metaverse.governance();
  // Create any concern not already present (by name).
  for (const auto& wanted : pack.governance_modules) {
    bool exists = false;
    for (std::size_t m = 0; m < governance.module_count(); ++m) {
      if (governance.module_name(ModuleId(m)) == wanted) {
        exists = true;
        break;
      }
    }
    if (!exists) governance.create_module(wanted);
  }
  for (auto& [region, module] : resolved) {
    metaverse.policy().set_region_module(region, std::move(module));
  }
  return {};
}

}  // namespace mv::core
