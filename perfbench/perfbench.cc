// perfbench: the measuring program behind the repository benchmark
// (BENCHMARK.json, driven by perfbench/run.py).
//
//   perfbench --workload <step_loop|visit_count|pagerank> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny]
//
// Every job runs the Mitos engine on the threads backend at 3 machines
// (3 worker threads plus the driver thread) and is checked against the
// reference interpreter on the same inputs; a non-OK Status or a mismatch
// counts as a failed job and never stops the run.
//
// --trace 0 (the timed run) repeats untraced api::Run jobs for --seconds
// and reports the end-to-end metrics: median job wall time, median process
// CPU time per job, input set-up time, peak RSS and the failure rate. The
// timed jobs of step_loop and visit_count run with all their threads on one
// CPU, taking the CPUs in turn (see Workload::one_cpu); all other jobs use
// all CPUs at once.
//
// --trace 1 (the traced run) reports per-layer metrics. Spans are recorded
// here, around calls into each layer's public functions; exact counters
// come from a DES run of the same job (threads-run chunk and message counts
// vary slightly between runs); the threads backend's own wall-clock
// instrumentation is attached through RunConfig::trace/metrics. Untraced
// jobs are interleaved with the traced ones to give the tracing overhead.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The lines before it print every metric by name and unit, with the sample
// count behind each median.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/chunk.h"
#include "dataflow/operators.h"
#include "ir/dce.h"
#include "ir/ssa.h"
#include "ir/verify.h"
#include "lang/functions.h"
#include "obs/analysis/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "runtime/threads_backend.h"
#include "runtime/translator.h"
#include "sim/filesystem.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::perfbench {
namespace {

constexpr int kMachines = 3;
// Fewest timed jobs behind a median, whatever --seconds says.
constexpr int kMinJobs = 5;
// Set-ups timed per run (two per CPU on four CPUs); setup_s is their
// median.
constexpr int kSetupReps = 8;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Host-wide CPU time counters from /proc/stat: the time the hypervisor ran
// something else on this machine's virtual CPUs (steal), and the total.
struct HostTicks {
  double steal = 0;
  double total = 0;
};

HostTicks ReadHostTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostTicks ticks;
  double v = 0;
  // Fields: user nice system idle iowait irq softirq steal.
  for (int i = 0; i < 8 && stat >> v; ++i) {
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

// The CPUs this thread may run on, ascending, or exits: the set-ups, and
// the timed jobs of one_cpu workloads, are placed on them one at a time.
std::vector<int> AllowedCpusOrExit() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    std::fprintf(stderr, "cannot read this process's CPU affinity\n");
    std::exit(1);
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

// Restricts this thread, and every thread it starts later, to `cpus`, or
// exits.
void PinToOrExit(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::fprintf(stderr, "cannot set this thread's CPU affinity\n");
    std::exit(1);
  }
}

double StealShareSince(const HostTicks& t0) {
  const HostTicks t1 = ReadHostTicks();
  const double total = t1.total - t0.total;
  return total > 0 ? (t1.steal - t0.steal) / total : 0;
}

// Peak resident set size of this process image. VmHWM rather than
// getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so a process
// started from a larger parent (the Python driver) would report the
// parent's footprint instead of its own.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median seconds per call of `fn`. Calls are grouped into batches of at
// least 5 ms so that sub-microsecond calls are timed reliably; batches
// repeat for at least 0.1 s and at least 5 times.
double MedianSecondsPerCall(const std::function<void()>& fn) {
  int calls = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    if (SecondsSince(t0) >= 0.005 || calls >= (1 << 20)) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  const Clock::time_point start = Clock::now();
  while (per_call.size() < 5 || SecondsSince(start) < 0.1) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(SecondsSince(t0) / calls);
  }
  return Median(per_call);
}

// ----- workloads -----

struct Sizes {
  int steps;  // step_loop
  int days;   // visit_count
  int64_t visits_per_day;
  int64_t pages;
  int64_t vertices;  // pagerank
  int64_t edges;
  int iterations;
};

constexpr Sizes kFullSizes{2000, 365, 10'000, 1'000, 5'000, 50'000, 10};
constexpr Sizes kTinySizes{20, 4, 200, 50, 100, 500, 3};

struct Workload {
  std::string name;
  // Writes the workload's inputs (from the seed) into *fs and returns the
  // program.
  std::function<lang::Program(sim::SimFileSystem*)> setup;
  // Output file compared with keyed approximate equality ("" = none):
  // distributed double summation reorders the adds.
  std::string approx_file;
  // Runs each timed job with the driver and all three workers on one CPU,
  // the next job on the next CPU. Spread over the virtual CPUs of a shared
  // host, the CPU time of a job made of many short steps follows what the
  // host runs besides it: every hand-off wakes an idle CPU, a descheduled
  // CPU can hold a lock the others wait for, and four busy CPUs draw far
  // more hypervisor steal than one (see perfbench/README.md). On one CPU a
  // hand-off is a context switch, and cpu_s counts the program's own work.
  // pagerank's few long steps keep all workers busy; its CPU time is
  // steadier spread over all CPUs than timeshared on one.
  bool one_cpu = false;
};

bool MakeWorkload(const std::string& name, uint64_t seed, const Sizes& sz,
                  Workload* out) {
  out->name = name;
  if (name == "step_loop") {
    out->setup = [sz](sim::SimFileSystem*) {
      return workloads::StepOverheadProgram(sz.steps);
    };
    out->one_cpu = true;
  } else if (name == "visit_count") {
    out->setup = [sz, seed](sim::SimFileSystem* fs) {
      workloads::GenerateVisitLogs(fs, {.days = sz.days,
                                        .entries_per_day = sz.visits_per_day,
                                        .num_pages = sz.pages,
                                        .seed = seed});
      return workloads::VisitCountProgram({.days = sz.days});
    };
    out->one_cpu = true;
  } else if (name == "pagerank") {
    out->setup = [sz, seed](sim::SimFileSystem* fs) {
      workloads::GenerateGraph(fs, {.num_vertices = sz.vertices,
                                    .num_edges = sz.edges,
                                    .seed = seed});
      return workloads::PageRankProgram(
          {.iterations = sz.iterations, .num_vertices = sz.vertices});
    };
    out->approx_file = "ranks";
  } else {
    return false;
  }
  return true;
}

// ----- correctness gate -----

bool ApproxEqual(const Datum& a, const Datum& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_double()) {
    const double x = a.dbl(), y = b.dbl();
    return std::abs(x - y) <= 1e-9 * (1.0 + std::abs(x) + std::abs(y));
  }
  if (a.is_tuple()) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!ApproxEqual(a.field(i), b.field(i))) return false;
    }
    return true;
  }
  return a == b;
}

void SortDatums(DatumVector* v) {
  std::sort(v->begin(), v->end(),
            [](const Datum& x, const Datum& y) { return x < y; });
}

// The reference interpreter's output files for the workload's inputs, and
// the rule every job's outputs are checked by: multiset equality, except
// for the approximate file, which is compared by key at 1e-9 relative
// tolerance.
class Oracle {
 public:
  Oracle(const sim::SimFileSystem& inputs, std::string approx_file)
      : approx_file_(std::move(approx_file)) {
    for (const std::string& name : inputs.ListFiles()) inputs_.insert(name);
  }

  void SetExpected(const sim::SimFileSystem& fs) {
    expected_.clear();
    for (const std::string& name : OutputFiles(fs)) {
      DatumVector data = *fs.Read(name);
      SortDatums(&data);
      expected_[name] = std::move(data);
    }
  }

  // Compares fs's outputs with the expected ones; on a mismatch writes the
  // first difference to *why.
  bool Matches(const sim::SimFileSystem& fs, std::string* why) const {
    const std::vector<std::string> names = OutputFiles(fs);
    if (names.size() != expected_.size()) {
      *why = "wrote " + std::to_string(names.size()) + " files, expected " +
             std::to_string(expected_.size());
      return false;
    }
    for (const std::string& name : names) {
      auto it = expected_.find(name);
      if (it == expected_.end()) {
        *why = "unexpected output file " + name;
        return false;
      }
      DatumVector actual = *fs.Read(name);
      if (actual.size() != it->second.size()) {
        *why = name + ": " + std::to_string(actual.size()) +
               " elements, expected " + std::to_string(it->second.size());
        return false;
      }
      if (name == approx_file_) {
        std::map<Datum, const Datum*> by_key;
        for (const Datum& e : it->second) by_key[e.field(0)] = &e;
        for (const Datum& a : actual) {
          auto hit = by_key.find(a.field(0));
          if (hit == by_key.end() || !ApproxEqual(*hit->second, a)) {
            *why = name + ": " + a.ToString() + " has no match";
            return false;
          }
        }
      } else {
        SortDatums(&actual);
        if (actual != it->second) {
          *why = name + ": contents differ";
          return false;
        }
      }
    }
    return true;
  }

  // Removes every file a job wrote, leaving only the inputs.
  void ClearOutputs(sim::SimFileSystem* fs) const {
    for (const std::string& name : OutputFiles(*fs)) fs->Remove(name);
  }

 private:
  std::vector<std::string> OutputFiles(const sim::SimFileSystem& fs) const {
    std::vector<std::string> out;
    for (const std::string& name : fs.ListFiles()) {
      if (inputs_.count(name) == 0) out.push_back(name);
    }
    return out;
  }

  std::string approx_file_;
  std::set<std::string> inputs_;
  std::map<std::string, DatumVector> expected_;
};

// One benchmark session: the workload's inputs, its program, the oracle,
// and the job tallies behind `attempted` / `failed`.
class Session {
 public:
  Session(std::unique_ptr<sim::SimFileSystem> fs, lang::Program program,
          const std::string& approx_file)
      : fs_(std::move(fs)), program_(std::move(program)),
        oracle_(*fs_, approx_file) {}

  sim::SimFileSystem* fs() { return fs_.get(); }
  const lang::Program& program() const { return program_; }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

  // Runs every later job with all its threads on one CPU, taking the given
  // CPUs in turn, so that no single CPU's share of the host sets the result.
  void RunJobsOnOneCpu(std::vector<int> cpus) { job_cpus_ = std::move(cpus); }

  // Runs the reference interpreter; its outputs become the expected ones.
  // Returns its wall time.
  double RunReference() {
    oracle_.ClearOutputs(fs_.get());
    const Clock::time_point t0 = Clock::now();
    auto result = api::Run(api::EngineKind::kReference, program_, fs_.get());
    const double wall = SecondsSince(t0);
    if (!result.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    oracle_.SetExpected(*fs_);
    oracle_.ClearOutputs(fs_.get());
    return wall;
  }

  // Runs `job` on a clean output set and checks what it wrote: the job
  // fails on a non-OK Status or outputs that differ from the reference's.
  void Job(const std::function<Status()>& job) {
    oracle_.ClearOutputs(fs_.get());
    if (!job_cpus_.empty()) {
      PinToOrExit({job_cpus_[attempted_ % job_cpus_.size()]});
    }
    ++attempted_;
    const Status status = job();
    std::string why;
    const bool ok = status.ok() && oracle_.Matches(*fs_, &why);
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "job %d failed: %s\n", attempted_,
                   status.ok() ? why.c_str() : status.ToString().c_str());
    }
    oracle_.ClearOutputs(fs_.get());
  }

  // Tallies a check that is not a job (the kernel replays).
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "check %d failed: %s\n", attempted_, what.c_str());
    }
  }

 private:
  std::unique_ptr<sim::SimFileSystem> fs_;
  lang::Program program_;
  Oracle oracle_;
  std::vector<int> job_cpus_;
  int attempted_ = 0;
  int failed_ = 0;
};

api::RunConfig ThreadsConfig() {
  api::RunConfig config{.machines = kMachines};
  config.backend = api::BackendKind::kThreads;
  return config;
}

// The ExecutorOptions api::Run hands the Mitos engine, built from the same
// RunConfig defaults.
runtime::ExecutorOptions MitosExecutorOptions() {
  const api::RunConfig config = ThreadsConfig();
  runtime::ExecutorOptions options;
  options.pipelining = true;
  options.hoisting = true;
  options.launch_base = config.mitos_launch_base;
  options.launch_per_machine = config.mitos_launch_per_machine;
  options.max_path_len = config.max_path_len;
  options.operator_fusion = config.mitos_operator_fusion;
  options.step_templates = config.step_templates;
  options.columnar = config.columnar;
  return options;
}

sim::ClusterConfig ThreadsClusterConfig() {
  sim::ClusterConfig cluster = ThreadsConfig().cluster;
  cluster.num_machines = kMachines;
  return cluster;
}

// ----- report -----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  bool in_json;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note), true});
  }
  // A figure printed in the table but left out of the JSON metrics.
  void AddPrinted(std::string name, double value, std::string unit,
                  std::string note) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note), false});
  }

  void Print(bool correct, int attempted, int failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %16.9g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    const char* sep = "";
    for (const Metric& m : metrics_) {
      if (!m.in_json) continue;
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      json += sep;
      json += "\"" + m.name + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
      sep = ", ";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

std::string Samples(size_t n, const char* what) {
  return "median of " + std::to_string(n) + " " + what;
}

std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g s", s);
  return buf;
}

// "median of <n> <what>, quartiles <q1> .. <q3>".
std::string SamplesWithQuartiles(std::vector<double> v, const char* what) {
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
  };
  char range[96];
  std::snprintf(range, sizeof range, ", quartiles %.4g .. %.4g", at(0.25),
                at(0.75));
  return Samples(v.size(), what) + range;
}

// ----- --trace 0: end-to-end metrics from untraced jobs -----

int TimedRun(const Workload& workload, double seconds) {
  // Set-up: generate the inputs and build the program, several times, and
  // take the set-up thread's CPU time: the work is single-threaded, so it
  // equals the wall time on an idle host without counting hypervisor steal.
  // Set-ups under 1 ms (step_loop's) are timed in batches of at least
  // 50 ms, each set-up but the batch's last freed inside the batch; longer
  // ones are timed alone, so one copy of the inputs exists at a time. Each
  // set-up runs on one CPU, taking the CPUs in turn, so that no single
  // CPU's share of the host sets the median.
  const std::vector<int> cpus = AllowedCpusOrExit();
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<sim::SimFileSystem> inputs;
  lang::Program program;
  int batch = 1;
  while (static_cast<int>(setup_s.size()) < kSetupReps) {
    // One copy of the inputs at a time (peak_rss_mb), and its memory given
    // back to the system, so every set-up pays the page faults a set-up in
    // a fresh process pays.
    inputs.reset();
    malloc_trim(0);
    std::unique_ptr<sim::SimFileSystem> fs;
    lang::Program built;
    PinToOrExit({cpus[setup_s.size() % cpus.size()]});
    const double cpu0 = ThreadCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch; ++i) {
      fs = std::make_unique<sim::SimFileSystem>();
      built = workload.setup(fs.get());
    }
    const double wall = SecondsSince(t0);
    const double cpu = ThreadCpuSeconds() - cpu0;
    if (setup_s.empty() && batch < (1 << 20) &&
        wall < (batch == 1 ? 0.001 : 0.05)) {
      batch *= 2;
      continue;
    }
    setup_s.push_back(cpu / batch);
    setup_wall_s.push_back(wall / batch);
    inputs = std::move(fs);
    program = std::move(built);
  }
  PinToOrExit(cpus);
  Session session(std::move(inputs), std::move(program),
                  workload.approx_file);
  const double reference_s = session.RunReference();
  if (workload.one_cpu) {
    std::string cpu_list;
    for (int cpu : cpus) cpu_list += " " + std::to_string(cpu);
    std::printf("perfbench: each timed job runs on one CPU, in turn over "
                "CPUs%s\n",
                cpu_list.c_str());
    session.RunJobsOnOneCpu(cpus);
  }

  const api::RunConfig config = ThreadsConfig();
  std::vector<double> job_s;
  std::vector<double> cpu_s;
  std::vector<double> buffered_bytes;
  auto run_job = [&](bool timed) {
    double wall = 0, cpu = 0;
    session.Job([&] {
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      auto result = api::Run(api::EngineKind::kMitos, session.program(),
                             session.fs(), config);
      wall = SecondsSince(t0);
      cpu = ProcessCpuSeconds() - cpu0;
      if (result.ok() && timed) {
        buffered_bytes.push_back(
            static_cast<double>(result->stats.peak_buffered_bytes));
      }
      return result.status();
    });
    if (timed) {
      job_s.push_back(wall);
      cpu_s.push_back(cpu);
    }
  };
  run_job(/*timed=*/false);  // warm-up: allocator and caches
  const HostTicks host0 = ReadHostTicks();
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(job_s.size()) < kMinJobs ||
         SecondsSince(start) < seconds) {
    run_job(/*timed=*/true);
  }

  const double steal_share = StealShareSince(host0);

  const int attempted = session.attempted();
  const int failed = session.failed();
  std::printf("perfbench workload=%s trace=0 machines=%d backend=threads "
              "timed_jobs=%zu\n",
              workload.name.c_str(), kMachines, job_s.size());
  Report report;
  // Job wall time moves with hypervisor steal far beyond any bound a
  // regression gate could use (see perfbench/README.md), so it is printed
  // with its witnesses but gated only as cpu_s.
  report.AddPrinted("job_s", Median(job_s), "s",
                    SamplesWithQuartiles(job_s, "jobs"));
  report.Add("cpu_s", Median(cpu_s), "s",
             SamplesWithQuartiles(cpu_s, "jobs"));
  report.Add("setup_s", Median(setup_s), "s",
             Samples(setup_s.size(), "set-ups") + " (CPU; wall " +
                 FormatSeconds(Median(setup_wall_s)) + ")");
  report.Add("peak_rss_mb", PeakRssMb(), "MB", "VmHWM of this process");
  report.AddPrinted("runtime.peak_buffered_bytes", Median(buffered_bytes),
                    "bytes", Samples(buffered_bytes.size(), "jobs"));
  report.AddPrinted("fail_rate", static_cast<double>(failed) / attempted,
                    "ratio",
                    std::to_string(failed) + " of " +
                        std::to_string(attempted) + " jobs failed");
  report.AddPrinted("lang.reference_s", reference_s, "s",
                    "1 run; host-speed witness");
  report.AddPrinted("host.steal_share", steal_share, "ratio",
                    "hypervisor steal over the timed jobs, all CPUs");
  report.Print(failed == 0, attempted, failed);
  return 0;
}

// ----- --trace 1: per-layer metrics -----

struct KernelReplay {
  double kernel_ns_per_elem = 0;
  double chunk_build_ns_per_elem = 0;
  double hash_ns_per_elem = 0;
  std::string note;
  bool applicable = true;
  // Empty when the replayed kernels produced the expected result.
  std::string mismatch;
};

// Slices `chunk` the way the runtime re-chunks batches.
std::vector<Chunk> Slices(const Chunk& chunk, size_t chunk_elements) {
  std::vector<Chunk> out;
  for (size_t begin = 0; begin < chunk.size(); begin += chunk_elements) {
    out.push_back(
        chunk.Slice(begin, std::min(chunk_elements, chunk.size() - begin)));
  }
  return out;
}

double NsPerElem(const std::function<void()>& fn, size_t elements) {
  return MedianSecondsPerCall(fn) * 1e9 / static_cast<double>(elements);
}

// Chunk build and field-0 hash cost over one input batch.
void ChunkCosts(const DatumVector& input, KernelReplay* out) {
  // Chunk::OfDatums consumes its vector, so each batch builds from copies
  // made before its clock starts.
  constexpr int kBatches = 9;
  const size_t copies = std::max<size_t>(1, 200'000 / input.size());
  std::vector<double> build_ns;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<DatumVector> pending(copies, input);
    std::vector<Chunk> built;
    built.reserve(copies);
    const Clock::time_point t0 = Clock::now();
    for (DatumVector& v : pending) {
      built.push_back(Chunk::OfDatums(std::move(v)));
    }
    build_ns.push_back(SecondsSince(t0) * 1e9 /
                       static_cast<double>(copies * input.size()));
  }
  out->chunk_build_ns_per_elem = Median(build_ns);

  const Chunk chunk = Chunk::OfDatums(input);
  const bool tuples = chunk.rep() == Chunk::Rep::kInt64Pair ||
                      (chunk.rep() == Chunk::Rep::kDatums &&
                       chunk.datums()[0].is_tuple());
  size_t sink = 0;
  out->hash_ns_per_elem = NsPerElem(
      [&] {
        for (size_t i = 0; i < chunk.size(); ++i) {
          sink ^= tuples ? chunk.HashField0At(i) : chunk.HashAt(i);
        }
      },
      chunk.size());
  if (sink == 1) std::fprintf(stderr, " ");  // keeps the hashes observable
}

// Single-thread replay of the workload's hottest chain through the public
// kernels, in chunk_elements slices.
KernelReplay ReplayKernels(const std::string& workload,
                           const sim::SimFileSystem& fs) {
  const size_t chunk_elements = ThreadsClusterConfig().chunk_elements;
  const dataflow::BagOperator::EmitFn drop = [](Chunk&&) {};
  KernelReplay out;
  if (workload == "visit_count") {
    // MapOp(PairWithOne) -> ReduceByKeyOp(SumInt64) over one day's log.
    const DatumVector log = *fs.Read("pageVisitLog1");
    const std::vector<Chunk> slices =
        Slices(Chunk::OfDatums(log), chunk_elements);
    dataflow::MapOp map(lang::fns::PairWithOne());
    dataflow::ReduceByKeyOp reduce(lang::fns::SumInt64());
    int64_t total = 0;
    out.kernel_ns_per_elem = NsPerElem(
        [&] {
          reduce.Open();
          const dataflow::BagOperator::EmitFn to_reduce = [&](Chunk&& c) {
            reduce.Push(0, c, drop);
          };
          for (const Chunk& slice : slices) map.Push(0, slice, to_reduce);
          map.Finish(to_reduce);
          reduce.Close(0, drop);
          total = 0;
          reduce.Finish([&](Chunk&& c) {
            for (size_t i = 0; i < c.size(); ++i) {
              total += c.At(i).field(1).int64();
            }
          });
        },
        log.size());
    if (total != static_cast<int64_t>(log.size())) {
      out.mismatch = "replayed counts sum to " + std::to_string(total) +
                     ", expected " + std::to_string(log.size());
    }
    DatumVector pairs;
    for (const Datum& page : log) {
      pairs.push_back(Datum::Pair(page, Datum::Int64(1)));
    }
    ChunkCosts(pairs, &out);
    out.note = "MapOp(PairWithOne)->ReduceByKeyOp(SumInt64), 1 day";
  } else if (workload == "pagerank") {
    // JoinOp: build on the edges, probe with (vertex, rank) pairs.
    const DatumVector edges = *fs.Read("edges");
    const DatumVector vertices = *fs.Read("vertices");
    DatumVector ranks;
    for (const Datum& v : vertices) {
      ranks.push_back(Datum::Pair(v, Datum::Double(1.0 / vertices.size())));
    }
    const std::vector<Chunk> build =
        Slices(Chunk::OfDatums(edges), chunk_elements);
    const std::vector<Chunk> probe =
        Slices(Chunk::OfDatums(ranks), chunk_elements);
    dataflow::JoinOp join;
    size_t joined = 0;
    out.kernel_ns_per_elem = NsPerElem(
        [&] {
          joined = 0;
          const dataflow::BagOperator::EmitFn count = [&](Chunk&& c) {
            joined += c.size();
          };
          join.Open();
          for (const Chunk& c : build) join.Push(0, c, count);
          join.Close(0, count);
          for (const Chunk& c : probe) join.Push(1, c, count);
          join.Close(1, count);
          join.Finish(count);
        },
        edges.size() + ranks.size());
    if (joined != edges.size()) {
      out.mismatch = "replayed join emitted " + std::to_string(joined) +
                     " tuples, expected " + std::to_string(edges.size());
    }
    ChunkCosts(edges, &out);
    out.note = "JoinOp build on edges, probe with ranks";
  } else {
    // step_loop moves one int64 per step: there is no data-plane chain, so
    // these figures are only the per-call cost of its loop body's MapOp.
    const std::vector<Chunk> one = {Chunk::OfDatums({Datum::Int64(0)})};
    dataflow::MapOp map(lang::fns::AddInt64(1));
    constexpr size_t kCalls = 1000;
    out.kernel_ns_per_elem = NsPerElem(
        [&] {
          for (size_t i = 0; i < kCalls; ++i) map.Push(0, one[0], drop);
        },
        kCalls);
    ChunkCosts({Datum::Int64(0)}, &out);
    out.note = "one-element MapOp(AddInt64) per call";
    out.applicable = false;
  }
  return out;
}

// Wall-clock observations from one traced threads job.
struct TracedJob {
  double wall_s = 0;
  double queue_wait_s = 0;
  double queue_wait_p99_s = 0;
  double quiesce_wait_s = 0;
  double tasks = 0;
  double core_busy_s = 0;
  double busy_imbalance = 0;
};

int TracedRun(const Workload& workload, double seconds) {
  auto inputs = std::make_unique<sim::SimFileSystem>();
  lang::Program program = workload.setup(inputs.get());
  Session session(std::move(inputs), std::move(program),
                  workload.approx_file);
  std::vector<double> reference_s;
  const Clock::time_point ref_start = Clock::now();
  while (reference_s.empty() ||
         (reference_s.size() < 5 && SecondsSince(ref_start) < 0.3)) {
    reference_s.push_back(session.RunReference());
  }

  // Compile: the IR pipeline MitosExecutor::RunIr runs before translation.
  ir::Program optimized;
  const double compile_s = MedianSecondsPerCall([&] {
    StatusOr<ir::Program> ssa = ir::CompileToIr(session.program());
    MITOS_CHECK(ssa.ok()) << ssa.status().ToString();
    MITOS_CHECK(ir::Verify(*ssa).ok());
    StatusOr<ir::DceResult> pruned = ir::EliminateDeadCode(*ssa);
    MITOS_CHECK(pruned.ok()) << pruned.status().ToString();
    MITOS_CHECK(ir::Verify(pruned->program).ok());
    optimized = std::move(pruned->program);
  });
  runtime::TranslateResult translated;
  const double translate_s = MedianSecondsPerCall([&] {
    StatusOr<runtime::TranslateResult> t =
        runtime::Translate(optimized, kMachines);
    MITOS_CHECK(t.ok()) << t.status().ToString();
    translated = std::move(*t);
  });
  const sim::ClusterConfig cluster = ThreadsClusterConfig();
  const double spawn_s = MedianSecondsPerCall(
      [&] { runtime::ThreadsBackend backend(cluster); });

  // The same job on the DES: one thread, no hand-offs, exact counters.
  std::vector<double> des_s;
  runtime::RunStats des_stats;
  const Clock::time_point des_start = Clock::now();
  while (des_s.empty() ||
         (des_s.size() < 5 && SecondsSince(des_start) < 0.1 * seconds)) {
    session.Job([&] {
      const Clock::time_point t0 = Clock::now();
      auto result = api::Run(api::EngineKind::kMitos, session.program(),
                             session.fs(), {.machines = kMachines});
      des_s.push_back(SecondsSince(t0));
      if (result.ok()) des_stats = result->stats;
      return result.status();
    });
  }

  const KernelReplay replay = ReplayKernels(workload.name, *session.fs());
  session.Check(replay.mismatch.empty(), replay.mismatch);

  // Rounds of {untraced api::Run, traced api::Run, bare ExecuteJob}.
  const runtime::ExecutorOptions exec_options = MitosExecutorOptions();
  std::vector<double> untraced_s;
  std::vector<double> execute_s;
  std::vector<TracedJob> traced;
  const Clock::time_point start = Clock::now();
  while (traced.size() < 3 ||
         (SecondsSince(start) < seconds && traced.size() < 1000)) {
    session.Job([&] {
      const Clock::time_point t0 = Clock::now();
      auto result = api::Run(api::EngineKind::kMitos, session.program(),
                             session.fs(), ThreadsConfig());
      untraced_s.push_back(SecondsSince(t0));
      return result.status();
    });
    session.Job([&] {
      obs::TraceRecorder trace;
      obs::MetricsRegistry metrics;
      api::RunConfig config = ThreadsConfig();
      config.trace = &trace;
      config.metrics = &metrics;
      TracedJob job;
      const Clock::time_point t0 = Clock::now();
      auto result = api::Run(api::EngineKind::kMitos, session.program(),
                             session.fs(), config);
      job.wall_s = SecondsSince(t0);
      if (!result.ok()) return result.status();
      if (const obs::HistogramData* h =
              metrics.histogram("threads_queue_wait_seconds")) {
        job.queue_wait_s = h->mean();
        job.queue_wait_p99_s = h->p99();
      }
      if (const obs::HistogramData* h =
              metrics.histogram("threads_quiesce_wait_seconds")) {
        job.quiesce_wait_s = h->sum;
      }
      job.tasks = metrics.gauge("threads_tasks_total");
      for (const obs::TraceEvent& e : trace.events()) {
        if (e.phase == 'X' && std::strcmp(e.cat, "core") == 0) {
          job.core_busy_s += e.dur;
        }
      }
      job.busy_imbalance = obs::analysis::Analyze(trace).busy_imbalance;
      traced.push_back(job);
      return Status::Ok();
    });
    session.Job([&] {
      runtime::ThreadsBackend backend(cluster);
      const Clock::time_point t0 = Clock::now();
      StatusOr<runtime::RunStats> stats = runtime::ExecuteJob(
          &backend, session.fs(), optimized, translated.graph, exec_options);
      execute_s.push_back(SecondsSince(t0));
      return stats.status();
    });
  }

  auto traced_median = [&](double TracedJob::*field) {
    std::vector<double> v;
    for (const TracedJob& job : traced) v.push_back(job.*field);
    return Median(v);
  };
  const double traced_job_s = traced_median(&TracedJob::wall_s);
  const double untraced_job_s = Median(untraced_s);
  const std::string traced_note = Samples(traced.size(), "traced jobs");
  const int64_t template_lookups =
      des_stats.template_hits + des_stats.template_misses;

  std::printf("perfbench workload=%s trace=1 machines=%d backend=threads "
              "traced_jobs=%zu\n",
              workload.name.c_str(), kMachines, traced.size());
  Report report;
  report.Add("api.job_s", untraced_job_s, "s",
             Samples(untraced_s.size(), "untraced api::Run jobs"));
  report.Add("ir.compile_s", compile_s, "s",
             "CompileToIr+Verify+EliminateDeadCode");
  report.Add("runtime.translate_s", translate_s, "s", "Translate(ir, 3)");
  report.Add("runtime.spawn_s", spawn_s, "s",
             "construct+destroy ThreadsBackend");
  report.Add("runtime.execute_s", Median(execute_s), "s",
             Samples(execute_s.size(), "ExecuteJob calls"));
  report.Add("sim.des_wall_s", Median(des_s), "s",
             Samples(des_s.size(), "DES jobs"));
  report.Add("runtime.decisions", des_stats.decisions, "count", "DES");
  report.Add("runtime.messages", des_stats.cluster.messages, "count", "DES");
  report.Add("runtime.template_hit_ratio",
             template_lookups == 0
                 ? 0.0
                 : static_cast<double>(des_stats.template_hits) /
                       template_lookups,
             "ratio", "DES hits/(hits+misses)");
  report.Add("runtime.network_bytes", des_stats.cluster.network_bytes,
             "bytes", "DES");
  report.Add("runtime.hoisted_reuses", des_stats.hoisted_reuses, "count",
             "DES");
  report.Add("runtime.peak_buffered_bytes", des_stats.peak_buffered_bytes,
             "bytes", "DES");
  report.Add("dataflow.elements", des_stats.elements, "count", "DES");
  report.Add("common.chunks", des_stats.chunks, "count", "DES");
  report.Add("common.fallback_ratio",
             des_stats.chunks == 0
                 ? 0.0
                 : static_cast<double>(des_stats.chunk_fallbacks) /
                       des_stats.chunks,
             "ratio", "DES boxed chunks/chunks");
  const std::string na = replay.applicable
                             ? ""
                             : "n/a (no data-plane chain on " +
                                   workload.name + "): ";
  report.Add("dataflow.kernel_ns_per_elem", replay.kernel_ns_per_elem,
             "ns/elem", na + replay.note);
  report.Add("common.chunk_build_ns_per_elem",
             replay.chunk_build_ns_per_elem, "ns/elem",
             na + "Chunk::OfDatums");
  report.Add("common.hash_ns_per_elem", replay.hash_ns_per_elem, "ns/elem",
             na + "Chunk hash of field 0");
  report.Add("runtime.threads.queue_wait_s",
             traced_median(&TracedJob::queue_wait_s), "s",
             "mean per task; " + traced_note);
  report.Add("runtime.threads.queue_wait_p99_s",
             traced_median(&TracedJob::queue_wait_p99_s), "s", traced_note);
  report.Add("runtime.threads.quiesce_wait_s",
             traced_median(&TracedJob::quiesce_wait_s), "s",
             "per job; " + traced_note);
  report.Add("runtime.threads.tasks", traced_median(&TracedJob::tasks),
             "count", traced_note);
  report.Add("runtime.threads.core_busy_s",
             traced_median(&TracedJob::core_busy_s), "s",
             "sum of core spans; " + traced_note);
  report.Add("runtime.threads.busy_imbalance",
             traced_median(&TracedJob::busy_imbalance), "ratio",
             traced_note);
  report.Add("lang.reference_s", Median(reference_s), "s",
             Samples(reference_s.size(), "reference runs"));
  report.Add("obs.trace_overhead_ratio", traced_job_s / untraced_job_s,
             "ratio",
             "traced/untraced job_s over " +
                 std::to_string(untraced_s.size()) + " untraced jobs");
  report.Print(session.failed() == 0, session.attempted(), session.failed());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <step_loop|visit_count|pagerank>"
               " --seed <n> --seconds <s> --trace <0|1> [--tiny]\n");
  return 2;
}

}  // namespace
}  // namespace mitos::perfbench

int main(int argc, char** argv) {
  using namespace mitos::perfbench;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      tiny = true;
      continue;
    }
    if (value == nullptr) return Usage();
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
    ++i;
  }
  Workload workload;
  if (seconds < 0 || (trace != 0 && trace != 1) ||
      !MakeWorkload(workload_name, seed, tiny ? kTinySizes : kFullSizes,
                    &workload)) {
    return Usage();
  }
  return trace == 0 ? TimedRun(workload, seconds)
                    : TracedRun(workload, seconds);
}
