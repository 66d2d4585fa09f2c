#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "blas/blas.hpp"
#include "core/cp_als.hpp"
#include "core/krp.hpp"
#include "core/reorder.hpp"
#include "io/tensor_io.hpp"
#include "sparse/sparse_tensor.hpp"
#include "tune/wisdom.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace dmtk::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// SO_SNDTIMEO on accepted sockets: the longest one blocking send() may
/// stall a server thread behind a client that stopped reading.
constexpr int kSendTimeoutMs = 30000;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool is_tns(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".tns") == 0;
}

[[noreturn]] void invalid(const std::string& message) {
  throw ProtocolError("invalid_request", message);
}

Json timings_json(double queue, double read, double plan, double exec,
                  double total) {
  Json t;
  t.set("queue", Json(queue));
  t.set("read", Json(read));
  t.set("plan", Json(plan));
  t.set("exec", Json(exec));
  t.set("total", Json(total));
  return t;
}

Json batch_json(std::size_t size, std::size_t index) {
  Json b;
  b.set("size", Json(size));
  b.set("index", Json(index));
  return b;
}

}  // namespace

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)), queue_(std::max<std::size_t>(1, opts_.queue_depth)) {}

Server::~Server() {
  try {
    stop();
  } catch (...) {
    // Destructor teardown must not throw.
  }
}

void Server::start() {
  if (started_) return;
  if (opts_.socket.empty()) throw ServeError("serve: socket path required");

  // Explicit wisdom is strict: a server the operator believes is tuned must
  // not silently run untuned, so a bad profile fails startup.
  if (!opts_.wisdom.empty()) {
    std::string why;
    if (!tune::load_wisdom(opts_.wisdom, &why)) {
      throw ServeError("serve: --wisdom " + opts_.wisdom + ": " + why);
    }
  }

  sockaddr_un addr{};
  if (opts_.socket.size() >= sizeof(addr.sun_path)) {
    throw ServeError("serve: socket path too long (max " +
                     std::to_string(sizeof(addr.sun_path) - 1) + " bytes): " +
                     opts_.socket);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ServeError(std::string("serve: socket(): ") + std::strerror(errno));
  }
  // A stale socket file from a dead server would make bind fail forever;
  // take the path over unconditionally (documented CLI behavior).
  ::unlink(opts_.socket.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opts_.socket.c_str(), sizeof(addr.sun_path) - 1);
  // dmtk-lint: allow(reinterpret-cast): POSIX sockaddr_un -> sockaddr is
  // the API's own type-erasure idiom; the kernel only reads sun_family.
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ServeError("serve: bind('" + opts_.socket + "'): " + why);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket.c_str());
    throw ServeError("serve: listen('" + opts_.socket + "'): " + why);
  }

  started_at_ = Clock::now();
  const int nworkers = std::max(1, opts_.workers);
  workers_.reserve(static_cast<std::size_t>(nworkers));
  for (int i = 0; i < nworkers; ++i) {
    workers_.push_back(std::make_unique<Worker>(
        opts_.threads, opts_.cache_entries, opts_.cache_bytes));
  }
  for (auto& w : workers_) {
    worker_threads_.emplace_back(&Server::worker_loop, this, std::ref(*w));
  }
  accept_thread_ = std::thread(&Server::accept_loop, this);
  started_ = true;
}

void Server::wait() {
  using namespace std::chrono_literals;
  while (!stop_requested_.load()) std::this_thread::sleep_for(50ms);
}

void Server::stop() {
  if (!started_ || stopped_) {
    stopped_ = true;
    return;
  }
  stopped_ = true;
  stop_requested_.store(true);
  stopping_.store(true);

  // Accept loop polls with a timeout, so it notices stopping_ promptly.
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Workers drain what's queued (every admitted job still gets its
  // response), then exit on the empty+stopped signal.
  queue_.stop();
  for (std::thread& t : worker_threads_) t.join();
  worker_threads_.clear();

  // Readers sit in recv(); shutdown() unblocks them, and each reader
  // closes its own fd on the way out. This happens AFTER the workers
  // drained so in-flight responses still had live sockets. Only
  // still-live connections remain here — finished ones were reaped by
  // the accept loop.
  std::vector<ReaderSlot> slots;
  {
    LockGuard lk(conns_mu_);
    slots.swap(readers_);
  }
  for (ReaderSlot& s : slots) {
    LockGuard lk(s.conn->write_mu);
    if (s.conn->fd >= 0) ::shutdown(s.conn->fd, SHUT_RDWR);
  }
  for (ReaderSlot& s : slots) s.thread.join();
  ::unlink(opts_.socket.c_str());
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    reap_readers();
    pollfd p{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, 100);
    if (rc <= 0) continue;  // timeout or EINTR: re-check stopping_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        // Resource exhaustion is transient for a resident server (fds
        // free up as connections close); back off and keep accepting.
        // The pending connection waits in the listen backlog.
        std::fprintf(stderr, "dmtk serve: accept(): %s; retrying\n",
                     std::strerror(err));
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        continue;
      }
      if (stopping_.load()) break;
      std::fprintf(stderr,
                   "dmtk serve: accept(): %s; no longer accepting "
                   "connections\n",
                   std::strerror(err));
      break;
    }
    // Fault site `serve.accept`: a connection dropped right after
    // accept(), the deterministic stand-in for a client that vanishes
    // (or an fd-level failure) between accept and reader start. The
    // server counts it and keeps accepting; the client sees a closed
    // connection and retries.
    if (fault::any_armed() && fault::should_fail("serve.accept")) {
      accept_faults_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    // Bound send() (SO_SNDTIMEO) so a client that stops reading cannot
    // wedge a worker thread behind a full socket buffer forever;
    // send_line drops the connection when the timeout fires.
    timeval tv{};
    tv.tv_sec = kSendTimeoutMs / 1000;
    tv.tv_usec = static_cast<suseconds_t>(kSendTimeoutMs % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    auto conn = std::make_shared<Conn>();
    {
      // Nothing can contend yet (the reader thread starts below), but fd
      // is guarded state: take the lock so the handoff to the reader is
      // inside the annotated discipline rather than an exception to it.
      LockGuard lk(conn->write_mu);
      conn->fd = fd;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    LockGuard lk(conns_mu_);
    readers_.push_back(
        ReaderSlot{conn, std::thread(&Server::reader_loop, this, conn)});
  }
}

void Server::reap_readers() {
  std::vector<std::thread> finished;
  {
    LockGuard lk(conns_mu_);
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (it->conn->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(it->thread));
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : finished) t.join();
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  constexpr std::size_t kMaxLine = 1u << 20;
  // Snapshot the fd once, under its lock. The old code read conn->fd
  // unlocked in every recv() call below — -Wthread-safety rightly flags
  // that as an access to write_mu-guarded state, and the fix is a local:
  // the value cannot change for the lifetime of this loop because this
  // reader is the only code that closes or reassigns the fd, and it only
  // does so after the loop exits.
  int fd = -1;
  {
    LockGuard lk(conn->write_mu);
    fd = conn->fd;
  }
  std::string buf;
  char tmp[1 << 16];
  while (true) {
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle_line(conn, line);
    }
    if (buf.size() > kMaxLine) {
      send_line(conn, make_error("invalid_request",
                                 "request line exceeds 1 MiB", Json()));
      break;
    }
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n <= 0) break;  // peer closed, error, or stop()'s shutdown()
    buf.append(tmp, static_cast<std::size_t>(n));
  }
  // Close now, not at stop(): a resident server must not hold one fd per
  // connection ever served. Workers still holding this Conn for queued
  // jobs see fd == -1 under write_mu and drop their responses — the peer
  // is gone anyway. done flags the slot for the accept loop's reaper.
  {
    LockGuard lk(conn->write_mu);
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true, std::memory_order_release);
}

void Server::handle_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Json id;  // best-effort echo even when validation fails later
  try {
    const Json j = Json::parse(line);
    if (const Json* v = j.find("id")) id = *v;
    Request r = parse_request(j);
    switch (r.type) {
      case RequestType::Info:
        send_line(conn, handle_info(r));
        return;
      case RequestType::Stats: {
        Json s = stats_json();
        if (!r.id.is_null()) s.set("id", r.id);
        send_line(conn, s);
        return;
      }
      case RequestType::Health: {
        Json h = health_json();
        if (!r.id.is_null()) h.set("id", r.id);
        send_line(conn, h);
        return;
      }
      case RequestType::Shutdown: {
        Json ack;
        ack.set("ok", Json(true));
        ack.set("type", Json("shutdown"));
        if (!r.id.is_null()) ack.set("id", r.id);
        send_line(conn, ack);
        request_stop();
        return;
      }
      default:
        break;
    }
    Job job = make_job(std::move(r), conn);
    std::string bkey;
    if (job.dense && !job.req.cold) {
      // The batch key: plan identity, plus the mode for mttkrp (two
      // same-shape mttkrps of different modes must not share a
      // gemm_batched sweep — their GEMM shapes differ).
      bkey = (job.req.type == RequestType::Mttkrp ? "mk|" : "cp|") +
             job.key.to_string();
      if (job.req.type == RequestType::Mttkrp) {
        bkey += "|mode=" + std::to_string(job.req.mode);
      }
    }
    if (!queue_.try_push(std::move(job), std::move(bkey))) {
      send_line(conn,
                make_error("busy",
                           "job queue full (depth " +
                               std::to_string(queue_.stats().capacity) +
                               "); retry later",
                           id));
    }
  } catch (...) {
    send_error_for_exception(conn, id);
  }
}

Server::Job Server::make_job(Request r, const std::shared_ptr<Conn>& conn) {
  Job job;
  job.received = Clock::now();
  job.conn = conn;

  if (is_tns(r.tensor)) {
    if (r.type == RequestType::Mttkrp) {
      invalid("mttkrp requests need a dense tensor (.dten input)");
    }
    if (r.sweep == SweepScheme::PerMode || r.sweep == SweepScheme::DimTree) {
      invalid("sweep scheme \"" + std::string(dmtk::to_string(r.sweep)) +
              "\" is dense-only; .tns input takes auto/csf");
    }
    if (r.method != MttkrpMethod::Auto) {
      invalid("\"method\" selects dense per-mode kernels; sparse input "
              "chooses its own");
    }
    if (!std::filesystem::exists(r.tensor)) {
      throw ProtocolError("io_error", "no such tensor file: " + r.tensor);
    }
    job.dense = false;
    job.req = std::move(r);
    return job;  // sparse jobs never batch (plans snapshot the tensor)
  }

  if (r.sweep == SweepScheme::SparseCsf) {
    invalid("sweep scheme \"" + std::string(dmtk::to_string(r.sweep)) +
            "\" needs sparse (.tns) input");
  }
  // Header probe: extents without payload traffic. Throws IoError
  // (-> "io_error") for missing or non-tensor files.
  std::vector<index_t> dims = io::tensor_extents(r.tensor);
  const auto order = static_cast<index_t>(dims.size());

  if (r.type == RequestType::Mttkrp) {
    if (r.mode >= order) {
      invalid("mode " + std::to_string(r.mode) + " out of range for a " +
              std::to_string(order) + "-way tensor");
    }
    // mttkrp batching keys on shape/rank/precision/mode only; the sweep
    // fields stay at their defaults in the key.
    job.key = PlanKey{dims, r.rank, SweepScheme::PerMode, MttkrpMethod::Auto,
                      r.f32};
  } else {
    const SweepScheme resolved =
        resolve_sweep_scheme(r.sweep, order, r.method);
    if (r.method != MttkrpMethod::Auto && resolved == SweepScheme::DimTree) {
      invalid("\"method\" selects per-mode kernels; the dimtree scheme has "
              "its own");
    }
    job.key = PlanKey{dims, r.rank, resolved, r.method, r.f32};
  }
  job.dims = std::move(dims);
  job.dense = true;
  job.req = std::move(r);
  return job;
}

void Server::worker_loop(Worker& ws) {
  while (auto item = queue_.pop()) {
    std::vector<Queue::Item> batch;
    batch.push_back(std::move(*item));
    // By value: extract_matching appends to `batch`, and a reallocation
    // would invalidate a reference into batch.front().
    const std::string key = batch.front().key;
    if (!key.empty() && opts_.max_batch > 1) {
      if (opts_.batch_window_ms > 0 && !stopping_.load()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.batch_window_ms));
      }
      queue_.extract_matching(key, opts_.max_batch - 1, batch);
    }
    if (batch.size() > 1) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      batched_jobs_.fetch_add(batch.size(), std::memory_order_relaxed);
      std::uint64_t seen = max_batch_observed_.load(std::memory_order_relaxed);
      while (batch.size() > seen &&
             !max_batch_observed_.compare_exchange_weak(seen, batch.size())) {
      }
    }
    try {
      // Fault site `serve.worker`: an exception escaping batch
      // processing itself (not one job's handler) — exactly what the
      // backstop below must isolate for the worker to survive.
      DMTK_FAULT_POINT("serve.worker");
      if (batch.front().job.req.type == RequestType::Mttkrp) {
        run_mttkrp_batch(ws, batch);
      } else {
        run_decompose_batch(ws, batch);
      }
    } catch (...) {
      // Backstop: per-job handlers map their own failures, so anything
      // arriving here escaped batch processing (shared-sweep machinery,
      // an injected worker fault). Fail every job in the batch with a
      // structured error instead of taking the worker thread down — a
      // resident server must outlive any single bad batch.
      worker_failures_.fetch_add(1, std::memory_order_relaxed);
      for (const Queue::Item& item : batch) {
        try {
          send_error_for_exception(item.job.conn, item.job.req.id);
        } catch (...) {
          // A send failure must not kill the worker either.
        }
      }
    }
  }
}

bool Server::admit_or_timeout(const Queue::Item& item) {
  if (opts_.queue_timeout_ms <= 0) return true;
  const double age = ms_since(item.enqueued);
  if (age <= static_cast<double>(opts_.queue_timeout_ms)) return true;
  timed_out_.fetch_add(1, std::memory_order_relaxed);
  send_line(item.job.conn,
            make_error("timeout",
                       "job waited " + std::to_string(static_cast<long>(age)) +
                           " ms in queue (bound " +
                           std::to_string(opts_.queue_timeout_ms) + " ms)",
                       item.job.req.id));
  return false;
}

void Server::run_decompose_batch(Worker& ws, std::vector<Queue::Item>& jobs) {
  const Job& lead = jobs.front().job;
  // Cold and sparse jobs carry an empty batch key, so they arrive alone.
  if (!lead.dense) {
    try {
      if (admit_or_timeout(jobs.front())) decompose_sparse(ws, jobs.front());
    } catch (...) {
      send_error_for_exception(lead.conn, lead.req.id);
    }
    return;
  }
  if (lead.req.cold) {
    try {
      if (admit_or_timeout(jobs.front())) {
        ws.cache.note_bypass();
        if (lead.key.f32) {
          decompose_one<float>(jobs.front(), nullptr, "bypass", 0.0, 1, 0);
        } else {
          decompose_one<double>(jobs.front(), nullptr, "bypass", 0.0, 1,
                                0);
        }
      }
    } catch (...) {
      send_error_for_exception(lead.conn, lead.req.id);
    }
    return;
  }

  // Warm dense path: the first fresh job acquires the plan (hit or
  // miss); every later batch member reuses it and reports plan:"batch".
  PlanCache::Entry* entry = nullptr;
  const char* next_tag = "hit";
  double plan_ms = 0.0;
  for (std::size_t index = 0; index < jobs.size(); ++index) {
    Queue::Item& item = jobs[index];
    const Job& job = item.job;
    try {
      if (!admit_or_timeout(item)) continue;
      if (entry == nullptr) {
        WallTimer t;
        bool built = false;
        entry = ws.cache.get_or_build(job.key, ws.ctx, &built);
        plan_ms = t.seconds() * 1e3;
        next_tag = entry == nullptr ? "bypass" : (built ? "miss" : "hit");
      }
      if (entry == nullptr) {
        // Cache disabled (--cache-entries 0): every job runs like a warm
        // context with a transient plan.
        if (job.key.f32) {
          CpAlsSweepPlanF plan(ws.ctx, job.key.dims, job.key.rank,
                               job.key.scheme, job.key.method);
          decompose_one<float>(item, &plan, "bypass", plan_ms,
                               jobs.size(), index);
        } else {
          CpAlsSweepPlan plan(ws.ctx, job.key.dims, job.key.rank,
                              job.key.scheme, job.key.method);
          decompose_one<double>(item, &plan, "bypass", plan_ms,
                                jobs.size(), index);
        }
      } else if (job.key.f32) {
        decompose_one<float>(item, entry->f32.get(), next_tag, plan_ms,
                             jobs.size(), index);
      } else {
        decompose_one<double>(item, entry->f64.get(), next_tag, plan_ms,
                              jobs.size(), index);
      }
      next_tag = "batch";
      plan_ms = 0.0;
    } catch (...) {
      send_error_for_exception(job.conn, job.req.id);
    }
  }
}

template <typename T>
void Server::decompose_one(const Queue::Item& item,
                           CpAlsSweepPlanT<T>* plan, const char* plan_tag,
                           double plan_ms, std::size_t batch_size,
                           std::size_t batch_index) {
  const Job& job = item.job;
  const Request& r = job.req;
  const double queue_ms = ms_since(item.enqueued);

  WallTimer read_t;
  const TensorT<T> X = io::read_tensor_as<T>(r.tensor, opts_.threads);
  const double read_ms = read_t.seconds() * 1e3;

  CpAlsOptionsT<T> o;
  o.rank = r.rank;
  o.max_iters = r.iters;
  o.tol = r.tol;
  o.seed = r.seed;
  o.compute_fit = true;
  o.sweep_scheme = job.key.scheme;
  o.method = job.key.method;

  WallTimer exec_t;
  CpAlsResultT<T> res;
  SweepScheme ran = job.key.scheme;
  if (plan != nullptr) {
    // Timings accumulate over a plan's lifetime; reset so this response
    // reports this request's sweeps, not the cache entry's history.
    plan->reset_timings();
    res = cp_als(X, o, *plan);
    ran = plan->scheme();
  } else {
    // Cold: the batch CLI's one-shot cost, faithfully — a fresh context
    // (arena allocation + first touch) and a transient plan.
    ExecContext fresh(opts_.threads);
    o.exec = &fresh;
    res = cp_als(X, o);
  }
  const double exec_ms = exec_t.seconds() * 1e3;

  Json resp;
  resp.set("ok", Json(true));
  resp.set("type", Json("decompose"));
  if (!r.id.is_null()) resp.set("id", r.id);
  resp.set("iterations", Json(res.iterations));
  resp.set("final_fit", Json(res.final_fit));
  resp.set("converged", Json(res.converged));
  resp.set("scheme", Json(std::string(dmtk::to_string(ran))));
  resp.set("precision", Json(r.f32 ? "float" : "double"));
  resp.set("key", Json(job.key.to_string()));
  resp.set("plan", Json(plan_tag));
  resp.set("batch", batch_json(batch_size, batch_index));
  if (!r.out.empty()) {
    // Native payload for either scalar ('DMTKKTNf' for fp32) — identical
    // bytes to what the CLI writes for the same run.
    io::write_ktensor(r.out, res.model);
    resp.set("out", Json(r.out));
  }
  if (r.inline_model) resp.set("model", ktensor_to_json(res.model));
  resp.set("timings_ms",
           timings_json(queue_ms, read_ms, plan_ms, exec_ms,
                        ms_since(job.received)));
  send_line(job.conn, resp);
}

void Server::decompose_sparse(Worker& ws, const Queue::Item& item) {
  const Job& job = item.job;
  const Request& r = job.req;
  const double queue_ms = ms_since(item.enqueued);

  WallTimer read_t;
  const sparse::SparseTensor S = io::read_tns(r.tensor);
  const double read_ms = read_t.seconds() * 1e3;

  // One templated body for both precisions: .tns text parses as double
  // (the format's natural scalar); an fp32 job narrows the coordinates'
  // values once, then runs the same plan-bypassing sparse sweep with the
  // kernels' fp64 accumulators.
  const auto run = [&]<typename T>(const sparse::SparseTensorT<T>& X) {
    CpAlsOptionsT<T> o;
    o.rank = r.rank;
    o.max_iters = r.iters;
    o.tol = r.tol;
    o.seed = r.seed;
    o.compute_fit = true;
    o.sweep_scheme = r.sweep;
    o.exec = &ws.ctx;  // warm context; the plan itself binds X, so no cache
    ws.cache.note_bypass();

    WallTimer exec_t;
    const CpAlsResultT<T> res = sparse::cp_als(X, o);
    const double exec_ms = exec_t.seconds() * 1e3;

    Json resp;
    resp.set("ok", Json(true));
    resp.set("type", Json("decompose"));
    if (!r.id.is_null()) resp.set("id", r.id);
    resp.set("iterations", Json(res.iterations));
    resp.set("final_fit", Json(res.final_fit));
    resp.set("converged", Json(res.converged));
    resp.set("scheme",
             Json(std::string(dmtk::to_string(
                 resolve_sparse_sweep_scheme(r.sweep)))));
    resp.set("precision", Json(r.f32 ? "float" : "double"));
    resp.set("plan", Json("bypass"));
    resp.set("batch", batch_json(1, 0));
    if (!r.out.empty()) {
      // Native payload for either scalar — identical bytes to the CLI's
      // model file for the same run configuration.
      io::write_ktensor(r.out, res.model);
      resp.set("out", Json(r.out));
    }
    if (r.inline_model) resp.set("model", ktensor_to_json(res.model));
    resp.set("timings_ms",
             timings_json(queue_ms, read_ms, 0.0, exec_ms,
                          ms_since(job.received)));
    send_line(job.conn, resp);
  };
  if (r.f32) {
    run(sparse::sparse_cast<float>(S));
  } else {
    run(S);
  }
}

void Server::run_mttkrp_batch(Worker& ws, std::vector<Queue::Item>& jobs) {
  std::vector<Queue::Item*> live;
  live.reserve(jobs.size());
  for (Queue::Item& item : jobs) {
    if (admit_or_timeout(item)) live.push_back(&item);
  }
  if (live.empty()) return;
  if (live.front()->job.key.f32) {
    mttkrp_exec<float>(ws, live);
  } else {
    mttkrp_exec<double>(ws, live);
  }
}

template <typename T>
void Server::mttkrp_exec(Worker& ws, std::vector<Queue::Item*>& live) {
  struct Prep {
    const Queue::Item* item = nullptr;
    MatrixT<T> Xn;  ///< I_n x J matricization
    MatrixT<T> Kt;  ///< C x J transposed KRP
    MatrixT<T> M;   ///< I_n x C output
    double queue_ms = 0.0;
    double read_ms = 0.0;
  };
  std::vector<Prep> preps;
  preps.reserve(live.size());
  const int nt = ws.ctx.threads();

  for (const Queue::Item* item : live) {
    const Job& job = item->job;
    const Request& r = job.req;
    try {
      Prep p;
      p.item = item;
      p.queue_ms = ms_since(item->enqueued);
      WallTimer read_t;
      const TensorT<T> X = io::read_tensor_as<T>(r.tensor, nt);
      DMTK_CHECK(std::equal(X.dims().begin(), X.dims().end(),
                            job.dims.begin(), job.dims.end()),
                 "mttkrp: tensor extents changed between probe and read");
      Rng rng(r.seed);
      const KtensorT<T> F = KtensorT<T>::random(X.dims(), r.rank, rng);
      const index_t In = X.dim(r.mode);
      const index_t J = X.numel() / In;
      p.Xn = MatrixT<T>(In, J);
      matricize_into(X, r.mode, p.Xn.data(), nt);
      const FactorListT<T> fl = mttkrp_krp_factors(F.factors, r.mode);
      krp_transposed_into(fl, p.Kt, KrpVariant::Reuse, nt);
      p.M = MatrixT<T>(In, r.rank);
      p.read_ms = read_t.seconds() * 1e3;
      preps.push_back(std::move(p));
    } catch (...) {
      send_error_for_exception(job.conn, r.id);
    }
  }
  if (preps.empty()) return;

  // The whole batch shares one GEMM shape (the batch key pins shape,
  // rank, precision, and mode), so every request's M = X(n) * K runs in
  // a single parallel batched-GEMM sweep.
  const Job& lead = preps.front().item->job;
  const index_t In = preps.front().Xn.rows();
  const index_t J = preps.front().Xn.cols();
  const index_t C = lead.req.rank;
  std::vector<const T*> A(preps.size());
  std::vector<const T*> B(preps.size());
  std::vector<T*> Cp(preps.size());
  for (std::size_t i = 0; i < preps.size(); ++i) {
    A[i] = preps[i].Xn.data();
    B[i] = preps[i].Kt.data();
    Cp[i] = preps[i].M.data();
  }
  WallTimer exec_t;
  blas::gemm_batched(blas::Layout::ColMajor, blas::Trans::NoTrans,
                     blas::Trans::Trans, In, C, J, T{1}, A.data(), In,
                     B.data(), C, T{0}, Cp.data(), In,
                     static_cast<index_t>(preps.size()), nt);
  const double exec_ms = exec_t.seconds() * 1e3;

  for (std::size_t i = 0; i < preps.size(); ++i) {
    const Prep& p = preps[i];
    const Request& r = p.item->job.req;
    try {
      Json resp;
      resp.set("ok", Json(true));
      resp.set("type", Json("mttkrp"));
      if (!r.id.is_null()) resp.set("id", r.id);
      resp.set("rows", Json(In));
      resp.set("cols", Json(C));
      resp.set("mode", Json(r.mode));
      resp.set("precision", Json(r.f32 ? "float" : "double"));
      resp.set("norm", Json(p.M.norm()));
      resp.set("plan", Json(preps.size() > 1 ? "batch" : "bypass"));
      resp.set("batch", batch_json(preps.size(), i));
      if (!r.out.empty()) {
        if constexpr (std::is_same_v<T, double>) {
          io::write_matrix(r.out, p.M);
        } else {
          io::write_matrix(r.out, matrix_cast<double>(p.M));
        }
        resp.set("out", Json(r.out));
      }
      resp.set("timings_ms",
               timings_json(p.queue_ms, p.read_ms, 0.0, exec_ms,
                            ms_since(p.item->job.received)));
      send_line(p.item->job.conn, resp);
    } catch (...) {
      send_error_for_exception(p.item->job.conn, r.id);
    }
  }
}

Json Server::handle_info(const Request& r) {
  Json resp;
  resp.set("ok", Json(true));
  resp.set("type", Json("info"));
  if (!r.id.is_null()) resp.set("id", r.id);
  resp.set("tensor", Json(r.tensor));
  if (is_tns(r.tensor)) {
    const sparse::SparseTensor S = io::read_tns(r.tensor);
    resp.set("kind", Json("sparse"));
    Json::Array dims;
    for (const index_t d : S.dims()) dims.emplace_back(d);
    resp.set("dims", Json(std::move(dims)));
    resp.set("nnz", Json(S.nnz()));
  } else {
    const std::vector<index_t> ext = io::tensor_extents(r.tensor);
    resp.set("kind", Json("dense"));
    Json::Array dims;
    index_t numel = ext.empty() ? 0 : 1;
    for (const index_t d : ext) {
      dims.emplace_back(d);
      numel *= d;
    }
    resp.set("dims", Json(std::move(dims)));
    resp.set("numel", Json(numel));
    resp.set("precision",
             Json(io::tensor_scalar_kind(r.tensor) == io::ScalarKind::F32
                      ? "float"
                      : "double"));
  }
  return resp;
}

Json Server::stats_json() const {
  Json resp;
  resp.set("ok", Json(true));
  resp.set("type", Json("stats"));

  Json server;
  server.set("uptime_s",
             Json(std::chrono::duration<double>(Clock::now() - started_at_)
                      .count()));
  server.set("workers", Json(static_cast<std::int64_t>(workers_.size())));
  server.set("threads", Json(workers_.empty()
                                 ? 0
                                 : workers_.front()->ctx.threads()));
  server.set("requests", Json(requests_.load(std::memory_order_relaxed)));
  server.set("connections",
             Json(connections_.load(std::memory_order_relaxed)));
  server.set("worker_failures",
             Json(worker_failures_.load(std::memory_order_relaxed)));
  server.set("simd", Json(std::string(blas::to_string(blas::simd_level()))));
  server.set("wisdom", Json(tune::wisdom_loaded() ? tune::wisdom_source()
                                                  : std::string()));
  resp.set("server", std::move(server));

  PlanCacheStats agg;  // per-worker caps sum: the fleet-wide budget
  for (const auto& w : workers_) agg += w->cache.stats();
  Json cache;
  cache.set("hits", Json(agg.hits));
  cache.set("misses", Json(agg.misses));
  cache.set("evictions", Json(agg.evictions));
  cache.set("bypass", Json(agg.bypass));
  cache.set("build_failures", Json(agg.build_failures));
  cache.set("degraded_workers", Json(agg.degraded));
  cache.set("entries", Json(agg.entries));
  cache.set("bytes", Json(agg.bytes));
  cache.set("max_entries", Json(agg.max_entries));
  cache.set("max_bytes", Json(agg.max_bytes));
  const std::uint64_t lookups = agg.hits + agg.misses;
  cache.set("hit_rate",
            Json(lookups == 0
                     ? 0.0
                     : static_cast<double>(agg.hits) /
                           static_cast<double>(lookups)));
  resp.set("cache", std::move(cache));

  const JobQueueStats qs = queue_.stats();
  Json queue;
  queue.set("depth", Json(qs.depth));
  queue.set("capacity", Json(qs.capacity));
  queue.set("admitted", Json(qs.admitted));
  queue.set("rejected_busy", Json(qs.rejected_busy));
  queue.set("timed_out", Json(timed_out_.load(std::memory_order_relaxed)));
  queue.set("batches", Json(batches_.load(std::memory_order_relaxed)));
  queue.set("batched_jobs",
            Json(batched_jobs_.load(std::memory_order_relaxed)));
  queue.set("max_batch_observed",
            Json(max_batch_observed_.load(std::memory_order_relaxed)));
  resp.set("queue", std::move(queue));
  return resp;
}

Json Server::health_json() const {
  Json resp;
  resp.set("ok", Json(true));
  resp.set("type", Json("health"));
  resp.set("uptime_s",
           Json(std::chrono::duration<double>(Clock::now() - started_at_)
                    .count()));
  resp.set("workers", Json(static_cast<std::int64_t>(workers_.size())));
  resp.set("wisdom", Json(tune::wisdom_loaded() ? tune::wisdom_source()
                                                : std::string()));

  const JobQueueStats qs = queue_.stats();
  Json queue;
  queue.set("depth", Json(qs.depth));
  queue.set("capacity", Json(qs.capacity));
  resp.set("queue", std::move(queue));

  Json heal;
  heal.set("worker_failures",
           Json(worker_failures_.load(std::memory_order_relaxed)));
  heal.set("accept_faults",
           Json(accept_faults_.load(std::memory_order_relaxed)));
  PlanCacheStats agg;
  for (const auto& w : workers_) agg += w->cache.stats();
  heal.set("cache_build_failures", Json(agg.build_failures));
  heal.set("degraded_workers", Json(agg.degraded));
  resp.set("self_healing", std::move(heal));

  // Armed fault sites and their trigger counts — empty object when no
  // faults are armed (the normal case), so probes can assert on it.
  Json faults{Json::Object{}};
  for (const auto& [site, count] : fault::counters()) {
    faults.set(site, Json(count));
  }
  resp.set("faults", std::move(faults));
  return resp;
}

void Server::send_line(const std::shared_ptr<Conn>& conn, const Json& j) {
  std::string s = j.dump();
  s += '\n';
  LockGuard lk(conn->write_mu);
  if (conn->fd < 0) return;
  const char* p = s.data();
  std::size_t left = s.size();
  while (left > 0) {
    const ssize_t n = ::send(conn->fd, p, left, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // Client gone, or it stopped reading and SO_SNDTIMEO fired.
      // Nothing to report the failure to; drop the connection so the
      // next response for it cannot stall this thread again. The reader
      // sees recv() fail and closes the fd.
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

void Server::send_error_for_exception(const std::shared_ptr<Conn>& conn,
                                      const Json& id) {
  try {
    throw;
  } catch (const ProtocolError& e) {
    send_line(conn, make_error(e.code(), e.what(), id));
  } catch (const io::IoError& e) {
    send_line(conn, make_error("io_error", e.what(), id));
  } catch (const JsonError& e) {
    send_line(conn, make_error("invalid_request", e.what(), id));
  } catch (const DimensionError& e) {
    send_line(conn, make_error("invalid_request", e.what(), id));
  } catch (const std::exception& e) {
    send_line(conn, make_error("internal", e.what(), id));
  }
}

}  // namespace dmtk::serve
