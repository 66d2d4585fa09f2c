#pragma once
/// \file server.hpp
/// \brief The resident decomposition server behind `dmtk serve`.
///
/// The batch CLI pays the full cold-start bill on every invocation:
/// process launch, ExecContext construction (arena allocation and first
/// touch), sweep-plan construction, then the actual sweeps. A resident
/// server keeps the expensive parts warm — per-worker ExecContexts stay
/// alive, and a per-worker PlanCache holds constructed CpAlsSweepPlans
/// keyed on (shape, rank, scheme, method, precision) — so a
/// repeat request of a shape already seen skips straight to the sweeps.
/// That is the paper's plan-amortization argument lifted from "many
/// sweeps per plan" to "many requests per plan".
///
/// Architecture (one process, three thread kinds):
///
///  - The ACCEPT thread owns the listening Unix-domain socket and spawns
///    one reader per connection.
///  - READER threads parse and validate newline-delimited JSON requests.
///    Cheap requests (info/stats/shutdown) are answered inline; compute
///    requests (decompose/mttkrp) are validated, their tensor header
///    probed, their plan key computed, and then enqueued — or refused
///    with a structured "busy" error when the bounded queue is full.
///    Validation up front means a malformed request never occupies a
///    queue slot and a worker never throws on bad input.
///  - WORKER threads (--workers) each own a private ExecContext and a
///    private PlanCache. A workspace arena is therefore touched by
///    exactly one thread for its whole life — the single rule that keeps
///    the whole server ASan/TSan-clean without locking the hot path.
///
/// Batching: when a worker dequeues a compute job it also extracts every
/// queued job with the same batch key (the plan-cache key, plus the mode
/// for mttkrp). Same-shape decompose jobs run back to back through ONE
/// cached plan — construction amortized across the batch, arena already
/// sized. Same-shape mttkrp jobs coalesce into a single gemm_batched
/// sweep: one parallel GEMM pass over all matricized tensors instead of
/// one GEMM per request. `batch_window_ms` optionally lingers before
/// extraction so closely-spaced clients can coalesce.
///
/// Admission control: `queue_depth` bounds queued jobs (excess rejected
/// "busy" immediately), `queue_timeout_ms` bounds how stale a job may
/// get before a worker sheds it with a "timeout" error instead of
/// burning compute for a client that has likely given up.
///
/// Self-healing: per-job exceptions map to structured errors where they
/// happen, and a backstop in the worker loop catches anything that
/// escapes batch processing itself — every job in the batch gets an
/// "internal" error and the worker thread survives to take the next
/// batch (counted in `worker_failures`). Plan-construction failures
/// degrade the worker's cache to bypass mode instead of failing requests
/// (see plan_cache.hpp), and a "health" request reports all of it:
/// uptime, queue occupancy, failure counters, and any armed fault-site
/// trigger counts (util/fault.hpp).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec_context.hpp"
#include "serve/job_queue.hpp"
#include "serve/json.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "util/mutex.hpp"

namespace dmtk::serve {

struct ServeOptions {
  std::string socket;            ///< Unix-domain socket path (required)
  int workers = 1;               ///< decomposition worker threads
  int threads = 0;               ///< threads per worker ExecContext (0=auto)
  std::size_t queue_depth = 64;  ///< admission bound; beyond it -> "busy"
  int queue_timeout_ms = 30000;  ///< oldest-job age bound; beyond -> "timeout"
  int batch_window_ms = 0;       ///< linger before same-key extraction
  std::size_t max_batch = 16;    ///< jobs coalesced per batch (>= 1)
  std::size_t cache_entries = 32;        ///< plan-cache entry cap (0=disable)
  std::size_t cache_bytes = 256u << 20;  ///< plan-cache byte budget per worker
  std::string wisdom;  ///< tuned-profile path loaded at start() ("" = none;
                       ///< a bad/mismatched file fails startup — explicit
                       ///< flags are strict, unlike the DMTK_WISDOM env)
};

/// Thrown by Server::start on socket setup failures (bad path, bind).
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Server {
 public:
  explicit Server(ServeOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket (unlinking any stale file at the path), start the
  /// accept/worker threads. Throws ServeError on socket failures.
  void start();

  /// Block until a shutdown has been requested (by a client's shutdown
  /// request, request_stop(), or a signal handler calling
  /// request_stop()). Polls an atomic so it coexists with signal
  /// handlers that cannot touch condition variables.
  void wait();

  /// Ask the server to shut down. Async-signal-safe (one atomic store);
  /// wakes wait() within its poll interval. Does not tear down — the
  /// owning thread calls stop().
  void request_stop() noexcept { stop_requested_.store(true); }

  /// Full teardown: stop accepting, drain and join workers (queued jobs
  /// still get responses), unblock and join readers, unlink the socket.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] const ServeOptions& options() const { return opts_; }

  /// The stats-request payload (cache counters aggregated across
  /// workers) — exposed for in-process tests and the bench harness.
  [[nodiscard]] Json stats_json() const;

  /// The health-request payload: uptime, worker/queue occupancy, the
  /// self-healing counters (worker batch failures, accept faults, cache
  /// build failures and degraded workers), and armed fault-site trigger
  /// counts. Cheap enough to poll from a liveness probe.
  [[nodiscard]] Json health_json() const;

 private:
  struct Conn {
    Mutex write_mu;  ///< one response line at a time; guards fd
    /// -1 once closed. Written by the accept loop (before the reader
    /// exists) and by the reader's close; read by every sender. The
    /// reader additionally snapshots it once under the lock for its recv
    /// loop — see reader_loop.
    int fd DMTK_GUARDED_BY(write_mu) = -1;
    std::atomic<bool> done{false};  ///< reader exited; slot is reapable
  };

  /// A connection and the reader thread that owns its receive side.
  struct ReaderSlot {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };

  struct Job {
    Request req;
    std::shared_ptr<Conn> conn;
    std::vector<index_t> dims;  ///< probed extents (dense jobs)
    PlanKey key;                ///< plan key (dense decompose / mttkrp)
    bool dense = false;
    std::chrono::steady_clock::time_point received;
  };

  using Queue = JobQueue<Job>;

  /// A worker's whole private world; workers never share these.
  struct Worker {
    explicit Worker(int threads, std::size_t cache_entries,
                    std::size_t cache_bytes)
        : ctx(threads), cache(cache_entries, cache_bytes) {}
    ExecContext ctx;
    PlanCache cache;
  };

  void accept_loop();
  /// Join and drop every reader whose connection has finished. Called
  /// from the accept loop so a resident server's fd/thread footprint
  /// tracks LIVE connections, not total connections ever served.
  void reap_readers();
  void reader_loop(std::shared_ptr<Conn> conn);
  void handle_line(const std::shared_ptr<Conn>& conn, const std::string& line);
  /// Validate a compute request against its tensor's header and build
  /// the job (+ batch key). Throws ProtocolError.
  Job make_job(Request r, const std::shared_ptr<Conn>& conn);
  void worker_loop(Worker& ws);
  void run_decompose_batch(Worker& ws, std::vector<Queue::Item>& jobs);
  void run_mttkrp_batch(Worker& ws, std::vector<Queue::Item>& jobs);
  /// One warm/cold dense decompose; sends the success response itself.
  /// Execution context comes from the plan (warm) or a fresh private one
  /// (plan == nullptr -> cold), never from the worker directly — which
  /// is why, uniquely among the handlers, this one takes no Worker.
  template <typename T>
  void decompose_one(const Queue::Item& item, CpAlsSweepPlanT<T>* plan,
                     const char* plan_tag, double plan_ms,
                     std::size_t batch_size, std::size_t batch_index);
  void decompose_sparse(Worker& ws, const Queue::Item& item);
  /// The coalesced same-shape mttkrp sweep: per-job matricize + KRP,
  /// then ONE gemm_batched over the whole batch.
  template <typename T>
  void mttkrp_exec(Worker& ws, std::vector<Queue::Item*>& live);
  Json handle_info(const Request& r);
  void send_line(const std::shared_ptr<Conn>& conn, const Json& j);
  /// Inside a catch block: map the in-flight exception to a structured
  /// error response (ProtocolError keeps its code; IoError -> io_error;
  /// DimensionError -> invalid_request; anything else -> internal).
  void send_error_for_exception(const std::shared_ptr<Conn>& conn,
                                const Json& id);
  /// Age-check one job: true = still fresh; false = timeout response sent.
  bool admit_or_timeout(const Queue::Item& item);

  ServeOptions opts_;
  Queue queue_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::thread accept_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> worker_threads_;
  Mutex conns_mu_;
  /// Live (unreaped) connections.
  std::vector<ReaderSlot> readers_ DMTK_GUARDED_BY(conns_mu_);

  std::chrono::steady_clock::time_point started_at_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  /// Batches whose processing escaped the per-job handlers (worker
  /// backstop fired): every job in the batch got an "internal" error and
  /// the worker thread survived to take the next batch.
  std::atomic<std::uint64_t> worker_failures_{0};
  /// Accepted connections dropped by the `serve.accept` fault site.
  std::atomic<std::uint64_t> accept_faults_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_jobs_{0};
  std::atomic<std::uint64_t> max_batch_observed_{0};
};

}  // namespace dmtk::serve
