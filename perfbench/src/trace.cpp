#include <algorithm>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

}  // namespace

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double end = spans[i].t0;
    for (auto [a, b] : iv) {
      a = std::max(a, end);
      b = std::min(b, spans[i].t1);
      if (b > a) {
        covered += b - a;
        end = b;
      }
    }
    self[i] = (spans[i].t1 - spans[i].t0) - covered;
  }
  return self;
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i];
  }
  return by_layer;
}

int Trace::open(std::string name, int job) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{std::move(name), t, t, t_open.empty() ? -1 : t_open.back(), job});
  t_open.push_back(id);
  return id;
}

void Trace::close(int id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Trace::write_chrome(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    dmtk::serve::Json args;
    args.set("id", dmtk::serve::Json(static_cast<std::int64_t>(i)));
    args.set("parent", dmtk::serve::Json(s.parent));
    args.set("job", dmtk::serve::Json(s.job));
    dmtk::serve::Json e;
    e.set("name", dmtk::serve::Json(s.name));
    e.set("cat", dmtk::serve::Json(s.name.substr(0, s.name.find('.'))));
    e.set("ph", dmtk::serve::Json("X"));
    e.set("ts", dmtk::serve::Json(s.t0 * 1e6));
    e.set("dur", dmtk::serve::Json((s.t1 - s.t0) * 1e6));
    e.set("pid", dmtk::serve::Json(1));
    // Jobs and requests get their own row; probes share row 0.
    e.set("tid", dmtk::serve::Json(s.job + 1));
    e.set("args", std::move(args));
    out << e.dump() << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

Trace& trace() {
  static Trace t;
  return t;
}

Scope::Scope(std::string name, int job) : t0_(Clock::now()) {
  if (trace().enabled()) id_ = trace().open(std::move(name), job);
}

double Scope::stop() {
  if (seconds_ < 0.0) {
    seconds_ = seconds_since(t0_);
    if (id_ >= 0) trace().close(id_);
  }
  return seconds_;
}

}  // namespace perfbench
