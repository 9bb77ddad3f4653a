#include "serve/service.hpp"

#include <unordered_set>

namespace emusim::serve {

bool verify_forest(const BTreeForest& forest,
                   const std::vector<Request>& stream, std::string* err) {
  auto fail = [err](const std::string& m) {
    if (err) *err = m;
    return false;
  };
  if (!forest.check_all(err)) return false;
  std::unordered_set<std::uint64_t> expected;
  for (std::uint64_t k = 0; k < forest.key_space(); k += 2) expected.insert(k);
  for (const Request& r : stream) {
    if (r.op == OpKind::insert) expected.insert(r.key);
  }
  if (forest.total_keys() != expected.size()) {
    return fail("key count mismatch: tree holds " +
                std::to_string(forest.total_keys()) + ", expected " +
                std::to_string(expected.size()));
  }
  for (const std::uint64_t k : expected) {
    std::uint64_t v = 0;
    const int f = forest.family_of(k);
    if (!forest.family(f).lookup(k, &v)) {
      return fail("missing key " + std::to_string(k));
    }
    if (v != value_of_key(k)) {
      return fail("wrong value for key " + std::to_string(k));
    }
  }
  return true;
}

void finish_result(Time elapsed, const BTreeForest& forest,
                   const std::vector<Request>& stream, ServeResult* r) {
  r->elapsed = elapsed;
  r->ops = stream.size();
  r->mops_per_sec = elapsed > 0 ? static_cast<double>(r->ops) /
                                      to_seconds(elapsed) / 1e6
                                : 0.0;
  r->range_ops = forest.range_ops;
  r->verified = verify_forest(forest, stream, &r->error);
  const std::uint64_t bad = r->lookups - r->hits;
  if (r->verified && bad != 0) {
    r->verified = false;
    r->error = std::to_string(bad) + " lookups missed or saw stale values";
  }
  if (r->verified && r->lat.overall().count() != r->ops) {
    r->verified = false;
    r->error = "latency samples != ops";
  }
}

}  // namespace emusim::serve
