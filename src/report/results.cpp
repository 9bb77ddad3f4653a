#include "report/results.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace emusim::report {

namespace {

bool x_matches(double px, double x) {
  const double tol = 1e-9 * std::fmax(1.0, std::fabs(x));
  return std::fabs(px - x) <= tol;
}

}  // namespace

const double* ResultPoint::metric(const std::string& name) const {
  for (const auto& [k, v] : extra) {
    if (k == name) return &v;
  }
  return nullptr;
}

const ResultPoint* ResultSeries::find(double x) const {
  for (const auto& p : points) {
    if (p.label.empty() && x_matches(p.x, x)) return &p;
  }
  return nullptr;
}

const ResultPoint* ResultSeries::find_label(const std::string& label) const {
  for (const auto& p : points) {
    if (p.label == label) return &p;
  }
  return nullptr;
}

const ResultSeries* BenchResult::find(const std::string& name) const {
  for (const auto& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string result_fingerprint(const BenchResult& r) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ULL;
  };
  mix(r.bench);
  mix(r.quick ? "quick" : "full");
  for (const auto& [k, v] : r.config) {
    mix(k);
    mix(v);
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Json BenchResult::to_json() const {
  Json j = Json::object();
  j.set("schema_version", Json::number(schema_version));
  j.set("bench", Json::string(bench));
  j.set("quick", Json::boolean(quick));
  j.set("wall_seconds", Json::number(wall_seconds));
  j.set("sim_seconds", Json::number(sim_seconds));
  j.set("fingerprint", Json::string(fingerprint));

  Json axes = Json::object();
  axes.set("x", Json::string(x_axis));
  axes.set("y", Json::string(y_axis));
  j.set("axes", std::move(axes));

  Json cfg = Json::object();
  for (const auto& [k, v] : config) cfg.set(k, Json::string(v));
  j.set("config", std::move(cfg));

  Json arr = Json::array();
  for (const auto& s : series) {
    Json js = Json::object();
    js.set("name", Json::string(s.name));
    Json pts = Json::array();
    for (const auto& p : s.points) {
      Json jp = Json::object();
      jp.set("x", Json::number(p.x));
      if (!p.label.empty()) jp.set("label", Json::string(p.label));
      jp.set("y", Json::number(p.y));
      if (!p.extra.empty()) {
        Json ex = Json::object();
        for (const auto& [k, v] : p.extra) ex.set(k, Json::number(v));
        jp.set("extra", std::move(ex));
      }
      pts.push_back(std::move(jp));
    }
    js.set("points", std::move(pts));
    arr.push_back(std::move(js));
  }
  j.set("series", std::move(arr));
  if (!observe.is_null()) j.set("observe", observe);
  return j;
}

bool BenchResult::from_json(const Json& j, BenchResult* out,
                            std::string* err) {
  auto fail = [err](const std::string& what) {
    if (err != nullptr) *err = what;
    return false;
  };
  if (!j.is_object()) return fail("result is not a JSON object");
  BenchResult r;
  r.schema_version = static_cast<int>(j.get_number("schema_version", -1));
  if (r.schema_version != kResultsSchemaVersion) {
    return fail("unsupported schema_version " +
                std::to_string(r.schema_version) + " (want " +
                std::to_string(kResultsSchemaVersion) + ")");
  }
  r.bench = j.get_string("bench");
  if (r.bench.empty()) return fail("missing bench name");
  r.quick = j.get_bool("quick");
  r.wall_seconds = j.get_number("wall_seconds");
  r.sim_seconds = j.get_number("sim_seconds");
  r.fingerprint = j.get_string("fingerprint");
  if (const Json* axes = j.find("axes"); axes != nullptr) {
    r.x_axis = axes->get_string("x");
    r.y_axis = axes->get_string("y");
  }
  if (const Json* cfg = j.find("config"); cfg != nullptr && cfg->is_object()) {
    for (const auto& [k, v] : cfg->members()) {
      r.config.emplace_back(k, v.is_string() ? v.as_string() : v.dump(0));
    }
  }
  const Json* series = j.find("series");
  if (series == nullptr || !series->is_array()) {
    return fail("missing series array");
  }
  for (const Json& js : series->items()) {
    ResultSeries s;
    s.name = js.get_string("name");
    if (s.name.empty()) return fail("series with missing name");
    const Json* pts = js.find("points");
    if (pts == nullptr || !pts->is_array()) {
      return fail("series '" + s.name + "' missing points array");
    }
    for (const Json& jp : pts->items()) {
      ResultPoint p;
      const Json* x = jp.find("x");
      const Json* y = jp.find("y");
      if (x == nullptr || !x->is_number() || y == nullptr || !y->is_number()) {
        return fail("series '" + s.name + "' has a point without numeric x/y");
      }
      p.x = x->as_number();
      p.y = y->as_number();
      p.label = jp.get_string("label");
      if (const Json* ex = jp.find("extra");
          ex != nullptr && ex->is_object()) {
        for (const auto& [k, v] : ex->members()) {
          if (v.is_number()) p.extra.emplace_back(k, v.as_number());
        }
      }
      s.points.push_back(std::move(p));
    }
    r.series.push_back(std::move(s));
  }
  if (const Json* obs = j.find("observe"); obs != nullptr) r.observe = *obs;
  *out = std::move(r);
  return true;
}

bool BenchResult::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "emusim: cannot open JSON output '%s': %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  const std::string text = to_json().dump(2);
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fputc('\n', f) != EOF && ok;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "emusim: error writing JSON output '%s'\n",
                 path.c_str());
  }
  return ok;
}

bool BenchResult::load(const std::string& path, BenchResult* out,
                       std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) {
      *err = std::string("cannot open '") + path + "': " + std::strerror(errno);
    }
    return false;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  Json j;
  std::string perr;
  if (!Json::parse(text, &j, &perr)) {
    if (err != nullptr) *err = path + ": " + perr;
    return false;
  }
  std::string merr;
  if (!from_json(j, out, &merr)) {
    if (err != nullptr) *err = path + ": " + merr;
    return false;
  }
  return true;
}

}  // namespace emusim::report
