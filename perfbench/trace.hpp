// In-memory span recorder for the benchmark's traced run.
//
// A span is (name, start, end, parent); a name starts with its layer, as in
// "xeon.run_chase_xeon".  Spans are kept in memory and written out once,
// when the run ends, so recording costs two clock reads and a push_back.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "report/json.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  /// Open a span as a child of the innermost open span; returns its id.
  int open(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Close the innermost open span, which must be `id`; returns its length.
  std::int64_t close(int id) {
    EMUSIM_CHECK_MSG(!open_.empty() && open_.back() == id,
                     "spans must close innermost first");
    open_.pop_back();
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    return s.end_ns - s.start_ns;
  }

  emusim::report::Json to_json() const {
    using emusim::report::Json;
    Json arr = Json::array();
    for (const Span& s : spans_) {
      Json j = Json::object();
      j.set("name", Json::string(s.name));
      j.set("start_ns", Json::number(static_cast<double>(s.start_ns)));
      j.set("end_ns", Json::number(static_cast<double>(s.end_ns)));
      j.set("parent", Json::number(s.parent));
      arr.push_back(std::move(j));
    }
    Json out = Json::object();
    out.set("spans", std::move(arr));
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Call `f` inside a span named `name` when `tr` is set (plain call
/// otherwise).  Stores the span's length in `*ns` when given.
template <class F>
auto span(Tracer* tr, const char* name, F&& f, std::int64_t* ns = nullptr) {
  if (tr == nullptr) return f();
  const int id = tr->open(name);
  auto result = f();
  const std::int64_t len = tr->close(id);
  if (ns != nullptr) *ns = len;
  return result;
}

}  // namespace perfbench
