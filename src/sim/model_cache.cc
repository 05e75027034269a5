#include "sim/model_cache.h"

#include <stdexcept>

#include "floorplan/multicore.h"
#include "obs/obs.h"
#include "util/fields.h"
#include "util/hash.h"

namespace hydra::sim {

std::uint64_t model_key(const SimConfig& cfg) {
  util::HashSink h;
  util::encode_fields(h, cfg.package);
  h.f64(cfg.time_scale).u64(cfg.multicore.cores);
  return h.digest();
}

std::shared_ptr<const SharedModel> ModelCache::get(const SimConfig& cfg) {
  if (cfg.time_scale <= 0.0) {
    throw std::invalid_argument("time_scale must be positive");
  }
  const std::uint64_t key = model_key(cfg);
  static const obs::Counter hit_counter =
      obs::metrics().counter("model_cache.hits");
  static const obs::Counter miss_counter =
      obs::metrics().counter("model_cache.misses");
  const util::LockGuard lock(mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    miss_counter.add();
    const obs::ScopedSpan span(obs::tracer(), "engine", "build_model");
    auto shared = std::make_shared<SharedModel>();
    shared->fp = floorplan::multicore_floorplan(cfg.multicore.cores);
    shared->model = thermal::build_thermal_model(shared->fp, cfg.package);
    shared->model.network.scale_capacitances(cfg.time_scale);
    shared->lu_cache =
        std::make_shared<const thermal::LuCache>(shared->model.network);
    it = cache_.emplace(key, std::move(shared)).first;
  } else {
    hit_counter.add();
  }
  return it->second;
}

std::size_t ModelCache::size() const {
  const util::LockGuard lock(mu_);
  return cache_.size();
}

ModelCache& ModelCache::global() {
  static ModelCache cache;
  return cache;
}

}  // namespace hydra::sim
