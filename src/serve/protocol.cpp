#include "serve/protocol.hpp"

#include <cmath>
#include <limits>
#include <set>

namespace dmtk::serve {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw ProtocolError("invalid_request", message);
}

const Json& require(const Json& j, const char* key) {
  const Json* v = j.find(key);
  if (v == nullptr) bad(std::string("missing required field \"") + key + '"');
  return *v;
}

std::string get_string(const Json& v, const char* key) {
  if (!v.is_string()) bad(std::string("field \"") + key + "\" must be a string");
  return v.as_string();
}

double get_number(const Json& v, const char* key) {
  if (!v.is_number()) bad(std::string("field \"") + key + "\" must be a number");
  return v.as_number();
}

bool get_bool(const Json& v, const char* key) {
  if (!v.is_bool()) bad(std::string("field \"") + key + "\" must be a boolean");
  return v.as_bool();
}

std::int64_t get_int(const Json& v, const char* key, std::int64_t lo,
                     std::int64_t hi) {
  const double d = get_number(v, key);
  if (std::floor(d) != d) {
    bad(std::string("field \"") + key + "\" must be an integer");
  }
  if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
    bad(std::string("field \"") + key + "\" out of range [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<std::int64_t>(d);
}

bool get_f32(const Json& v) {
  const std::string p = get_string(v, "precision");
  if (p == "double" || p == "f64" || p == "fp64") return false;
  if (p == "float" || p == "f32" || p == "fp32") return true;
  bad("field \"precision\" must be \"double\" or \"float\" (got \"" + p +
      "\")");
}

/// Reject any field outside `allowed` — the strictness that turns a typo
/// into a diagnosable error instead of a silently-defaulted run.
void check_fields(const Json& j, const std::set<std::string>& allowed) {
  for (const auto& [key, value] : j.as_object()) {
    if (!allowed.contains(key)) {
      bad("unknown field \"" + key + '"');
    }
  }
}

}  // namespace

std::string_view to_string(RequestType t) {
  switch (t) {
    case RequestType::Decompose: return "decompose";
    case RequestType::Mttkrp: return "mttkrp";
    case RequestType::Info: return "info";
    case RequestType::Stats: return "stats";
    case RequestType::Shutdown: return "shutdown";
    case RequestType::Health: return "health";
  }
  return "?";
}

Request parse_request(const Json& j) {
  if (!j.is_object()) bad("request must be a JSON object");
  Request r;
  if (const Json* id = j.find("id")) r.id = *id;

  const std::string type = get_string(require(j, "type"), "type");
  if (type == "decompose") {
    r.type = RequestType::Decompose;
  } else if (type == "mttkrp") {
    r.type = RequestType::Mttkrp;
  } else if (type == "info") {
    r.type = RequestType::Info;
  } else if (type == "stats") {
    r.type = RequestType::Stats;
  } else if (type == "shutdown") {
    r.type = RequestType::Shutdown;
  } else if (type == "health") {
    r.type = RequestType::Health;
  } else {
    bad("unknown request type \"" + type + '"');
  }

  if (r.type == RequestType::Stats || r.type == RequestType::Shutdown ||
      r.type == RequestType::Health) {
    check_fields(j, {"type", "id"});
    return r;
  }

  r.tensor = get_string(require(j, "tensor"), "tensor");
  if (r.tensor.empty()) bad("field \"tensor\" must be a non-empty path");

  if (r.type == RequestType::Info) {
    check_fields(j, {"type", "id", "tensor"});
    return r;
  }

  if (const Json* v = j.find("precision")) r.f32 = get_f32(*v);
  if (const Json* v = j.find("rank")) {
    r.rank = static_cast<index_t>(get_int(*v, "rank", 1, 1 << 20));
  }
  if (r.type == RequestType::Mttkrp) r.seed = 7;  // factor-draw convention
  if (const Json* v = j.find("seed")) {
    r.seed = static_cast<std::uint64_t>(
        get_int(*v, "seed", 0, (std::int64_t{1} << 53) - 1));
  }
  if (const Json* v = j.find("out")) {
    r.out = get_string(*v, "out");
    if (r.out.empty()) bad("field \"out\" must be a non-empty path");
  }

  if (r.type == RequestType::Mttkrp) {
    check_fields(j, {"type", "id", "tensor", "precision", "rank", "seed",
                     "mode", "out"});
    r.mode = static_cast<index_t>(get_int(require(j, "mode"), "mode", 0, 255));
    return r;
  }

  // decompose
  check_fields(j, {"type", "id", "tensor", "precision", "rank", "iters",
                   "tol", "seed", "sweep", "method", "out", "inline_model",
                   "cold"});
  if (const Json* v = j.find("iters")) {
    r.iters = static_cast<int>(get_int(*v, "iters", 1, 1'000'000));
  }
  if (const Json* v = j.find("tol")) {
    r.tol = get_number(*v, "tol");
    if (!(r.tol >= 0.0)) bad("field \"tol\" must be >= 0");
  }
  if (const Json* v = j.find("sweep")) {
    const std::string name = get_string(*v, "sweep");
    const auto s = parse_sweep_scheme(name);
    if (!s) bad("unknown sweep scheme \"" + name + '"');
    r.sweep = *s;
  }
  if (const Json* v = j.find("method")) {
    const std::string name = get_string(*v, "method");
    const auto m = parse_mttkrp_method(name);
    if (!m) bad("unknown mttkrp method \"" + name + '"');
    r.method = *m;
  }
  if (const Json* v = j.find("cold")) r.cold = get_bool(*v, "cold");
  // Default: inline the model exactly when it is not going to a file.
  r.inline_model = r.out.empty();
  if (const Json* v = j.find("inline_model")) {
    r.inline_model = get_bool(*v, "inline_model");
  }
  return r;
}

Json make_error(const std::string& code, const std::string& message,
                const Json& id) {
  Json e;
  e.set("ok", Json(false));
  Json detail;
  detail.set("code", Json(code));
  detail.set("message", Json(message));
  e.set("error", std::move(detail));
  if (!id.is_null()) e.set("id", id);
  return e;
}

template <typename T>
Json ktensor_to_json(const KtensorT<T>& K) {
  Json out;
  Json::Array dims;
  for (const MatrixT<T>& U : K.factors) dims.emplace_back(U.rows());
  out.set("dims", Json(std::move(dims)));
  out.set("rank", Json(K.rank()));
  Json::Array lambda;
  const index_t C = K.rank();
  for (index_t c = 0; c < C; ++c) {
    lambda.emplace_back(static_cast<double>(K.lambda_or_one(c)));
  }
  out.set("lambda", Json(std::move(lambda)));
  Json::Array factors;
  for (const MatrixT<T>& U : K.factors) {
    Json::Array flat;
    flat.reserve(U.span().size());
    for (const T x : U.span()) flat.emplace_back(static_cast<double>(x));
    factors.emplace_back(std::move(flat));
  }
  out.set("factors", Json(std::move(factors)));
  return out;
}

template Json ktensor_to_json<double>(const Ktensor&);
template Json ktensor_to_json<float>(const KtensorF&);

}  // namespace dmtk::serve
