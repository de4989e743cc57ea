// Compile benchmark: end-to-end and per-layer cost of one HCA compile.
//
//   compile_bench --workload <primary-sweep|fallback-heavy|portfolio>
//                 --seed <n> --seconds <s> --trace <0|1>
//   compile_bench --selftest [--seed <n>]
//
// Each workload is a closed loop of one or more client processes. A client
// compiles one input at a time, the next starting when the previous one
// (and its output checks) returned. It walks whole passes over the
// workload's inputs, in a seed-shuffled order, and starts another pass only
// while the projected end stays within --seconds. Every compile is checked
// (verifier registry, coherency, modulo schedule plus its validator,
// simulator against the reference interpreter) and must repeat the first
// compile of the same input exactly.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, which need one extra traced pass whose spans are
// folded into self time per (rung, level, phase). Human-readable lines go
// first; the last stdout line is one JSON object. See README.md.

#include <sys/resource.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ddg/kernels.hpp"
#include "hca/driver.hpp"
#include "hca/mii.hpp"
#include "hca/postprocess.hpp"
#include "hca/report.hpp"
#include "sched/modulo.hpp"
#include "sim/simulator.hpp"
#include "support/context.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "verify/coherency.hpp"
#include "verify/verify.hpp"

namespace {

using namespace hca;

constexpr int kLevels = 3;  // DSPFabric 4x4x4: L0 cluster sets, L1, L2 leaves
// fallback-heavy compiles the first kRandomDdgs DDGs of one fixed random
// draw. The draw does not follow --seed: per-seed draws move
// final_mii_geomean by about 10% and primary_legal_share between 0 and
// 4/11 from seed to seed, more than any bound the benchmark can carry (see
// README.md). The seed still sets the compile order and the kernels'
// memory images.
constexpr std::uint64_t kRandomDrawSeed = 1;
constexpr int kRandomDdgs = 10;
// Set-up takes about a millisecond, and the host's speed changes on a
// scale of seconds, so setup_s is the median of repetitions spread over
// the whole run: kSetupRepeats before the clients start, then one every
// kSetupIntervalMs while they run. The benchmark process repeats them on
// its own clean heap; after a compile, a client's heap state would move
// the figure (portfolio: 0.97 vs 1.40 ms between two sets of runs).
constexpr int kSetupRepeats = 5;
constexpr int kSetupIntervalMs = 50;
// The tail percentile must leave at least this many compiles beyond it.
constexpr int kTailCount = 10;
// Every run compiles at least this often, split over its clients, so the
// tail is at least p75. On a 4-core host it also holds portfolio at 3
// passes of 17 inputs; "as many passes as fit" mixed runs of 2 and 3
// passes, which moved the tail between different inputs.
constexpr int kMinCompiles = 4 * kTailCount;

double secondsSince(MonotonicTime start) {
  return std::chrono::duration<double>(monotonicNow() - start).count();
}

/// User + system CPU time of the finished child processes.
double childrenCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  const auto toS = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return toS(usage.ru_utime) + toS(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  double logSum = 0.0;
  for (const double x : v) logSum += std::log(x);
  return v.empty() ? 0.0 : std::exp(logSum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string levelName(const char* base, int level) {
  return std::string(base) + ".L" + std::to_string(level);
}

// ---------------------------------------------------------------------------
// Workloads and their inputs.

struct Input {
  std::string name;
  ddg::Ddg ddg;
  int model = 0;  // index into Setup::models
  sim::SimConfig sim;
  int instructions = 0;
  bool table1 = false;  // a Table 1 kernel (gets its own trace breakdown)
};

struct Setup {
  std::vector<machine::DspFabricModel> models;
  std::vector<std::string> modelNames;
  std::vector<Input> inputs;
};

struct WorkloadSpec {
  bool primaryKernels = false;  // fir2dim/idcthor/mpeg2inter at 8/8/8, 4/4/2
  bool fallbackInputs = false;  // h264deblocking + random DDGs at 8/8/8
  int threads = 1;  // HcaOptions::numThreads of every compile
  int clients = 1;  // closed-loop clients compiling side by side
};

// The 1-thread workloads run one client process per core. The host this
// benchmark was tuned on alternates between a fast and a ~1.6x slower speed
// every few seconds, and the slow share drifts over minutes: one client's
// 30-second run of fallback-heavy moved 0.22-0.28 of its median from run to
// run, while clients on every core average the drift out. Each compile
// still runs on one thread, with no pool.
bool workloadSpec(const std::string& name, WorkloadSpec* spec) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (name == "primary-sweep") {
    *spec = {true, false, 1, nproc};
  } else if (name == "fallback-heavy") {
    *spec = {false, true, 1, nproc};
  } else if (name == "portfolio") {
    *spec = {true, true, nproc, 1};
  } else {
    return false;
  }
  return true;
}

machine::DspFabricConfig fabric(int n, int m, int k) {
  machine::DspFabricConfig config;
  config.n = n;
  config.m = m;
  config.k = k;
  return config;
}

Input kernelInput(ddg::Kernel kernel, int model, const std::string& machine,
                  std::uint64_t seed) {
  Input in;
  in.name = kernel.name + "@" + machine;
  in.sim.iterations = std::min(kernel.safeIterations, 8);
  in.sim.memory =
      ddg::kernelInterpConfig(kernel, in.sim.iterations, seed).memory;
  in.instructions = kernel.ddg.stats().numInstructions;
  in.ddg = std::move(kernel.ddg);
  in.model = model;
  in.table1 = true;
  return in;
}

/// Builds the workload's DDGs (timed into *ddgS) and fabric models (timed
/// into *modelS). Everything is a pure function of (spec, seed).
Setup buildSetup(const WorkloadSpec& spec, std::uint64_t seed, double* ddgS,
                 double* modelS) {
  Setup setup;
  auto t0 = monotonicNow();
  setup.models.emplace_back(fabric(8, 8, 8));
  setup.modelNames.push_back("8/8/8");
  if (spec.primaryKernels) {
    setup.models.emplace_back(fabric(4, 4, 2));
    setup.modelNames.push_back("4/4/2");
  }
  *modelS = secondsSince(t0);

  t0 = monotonicNow();
  if (spec.primaryKernels) {
    for (int model = 0; model < static_cast<int>(setup.models.size());
         ++model) {
      const std::string& machine = setup.modelNames[model];
      setup.inputs.push_back(kernelInput(ddg::buildFir2Dim(), model, machine, seed));
      setup.inputs.push_back(kernelInput(ddg::buildIdctHor(), model, machine, seed));
      setup.inputs.push_back(kernelInput(ddg::buildMpeg2Inter(), model, machine, seed));
    }
  }
  if (spec.fallbackInputs) {
    setup.inputs.push_back(
        kernelInput(ddg::buildH264Deblocking(), 0, "8/8/8", seed));
    Rng rng(kRandomDrawSeed);
    const ddg::RandomDdgParams params;
    for (int i = 0; i < kRandomDdgs; ++i) {
      Input in;
      in.name = "random" + std::to_string(i) + "@8/8/8";
      in.ddg = ddg::randomDdg(rng, params);
      in.instructions = in.ddg.stats().numInstructions;
      // As in tests/property_test.cpp: a constant-filled image of the
      // generator's memory size; every address stays in bounds.
      in.sim.iterations = 6;
      in.sim.memory.assign(static_cast<std::size_t>(params.memorySize), 3);
      setup.inputs.push_back(std::move(in));
    }
  }
  *ddgS = secondsSince(t0);
  return setup;
}

// ---------------------------------------------------------------------------
// One compile and its output checks.

struct Outcome {
  double compileS = 0.0;
  double postprocessS = 0.0;
  double verifyS = 0.0;
  double schedS = 0.0;
  double simS = 0.0;
  bool primary = false;  // legal with no fallback rung
  int finalMii = 0;
  int schedIi = 0;
  std::int64_t recvs = 0;
  std::int64_t diagnostics = 0;
  bool simMismatch = false;
  std::string failure;  // empty = every check passed
  std::vector<CnId> assignment;
  std::map<std::string, std::int64_t> counters;
  core::HcaStats stats;
  MetricsRegistry metrics;
};

Outcome compileAndCheck(const Input& in, const machine::DspFabricModel& model,
                        int threads, Tracer* tracer) {
  Outcome out;
  core::HcaOptions options;
  options.numThreads = threads;
  options.tracer = tracer;

  auto t0 = monotonicNow();
  const core::HcaDriver driver(model, options);
  core::HcaResult result = driver.run(in.ddg);
  out.compileS = secondsSince(t0);

  out.primary = result.legal && result.fallbackUsed.empty();
  out.assignment = result.assignment;
  out.counters = core::deterministicCounters(result.stats);
  out.stats = result.stats;
  out.metrics = std::move(result.metrics);
  if (!result.legal) {
    out.failure = "no legal mapping: " + result.failureReason;
    return out;
  }

  t0 = monotonicNow();
  const core::FinalMapping mapping =
      core::buildFinalMapping(in.ddg, model, result);
  out.postprocessS = secondsSince(t0);
  out.recvs = static_cast<std::int64_t>(mapping.recvs.size());

  t0 = monotonicNow();
  verify::VerifyInput verifyInput;
  verifyInput.ddg = &in.ddg;
  verifyInput.model = &model;
  verifyInput.result = &result;
  verifyInput.mapping = &mapping;
  const auto diagnostics = verify::CheckRegistry::builtin().run(verifyInput);
  const auto violations = core::checkCoherency(in.ddg, model, result);
  out.verifyS = secondsSince(t0);
  out.diagnostics = static_cast<std::int64_t>(diagnostics.size() +
                                              violations.size());
  if (!diagnostics.empty()) {
    out.failure = "verifier: " + diagnostics.front().toString();
    return out;
  }
  if (!violations.empty()) {
    out.failure = "coherency: " + violations.front().message;
    return out;
  }

  out.finalMii = core::computeMii(in.ddg, model, result).finalMii;
  t0 = monotonicNow();
  const auto sched = sched::moduloSchedule(mapping, model, out.finalMii);
  const auto schedErrors =
      sched.ok ? sched::validateSchedule(mapping, model, sched.schedule)
               : std::vector<std::string>{};
  out.schedS = secondsSince(t0);
  if (!sched.ok) {
    out.failure = "modulo scheduler: " + sched.failureReason;
    return out;
  }
  if (!schedErrors.empty()) {
    out.failure = "schedule validator: " + schedErrors.front();
    return out;
  }
  out.schedIi = sched.schedule.ii;
  if (out.schedIi < out.finalMii) {
    out.failure = "scheduled II below the final MII";
    return out;
  }

  t0 = monotonicNow();
  std::string why;
  out.simMismatch = !sim::matchesReference(in.ddg, mapping, model,
                                           sched.schedule, in.sim, &why);
  out.simS = secondsSince(t0);
  if (out.simMismatch) out.failure = "simulator vs interpreter: " + why;
  return out;
}


std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t assignmentDigest(const Outcome& out) {
  std::string bytes;
  for (const CnId cn : out.assignment) bytes += std::to_string(cn.value()) + ",";
  return fnv1a(kFnvBasis, bytes);
}

/// The HcaStats counters and every metrics-registry counter.
std::uint64_t countersDigest(const Outcome& out) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [name, value] : out.counters) {
    h = fnv1a(h, name + "=" + std::to_string(value) + ";");
  }
  for (const auto& [name, value] : out.metrics.counters()) {
    h = fnv1a(h, name + "=" + std::to_string(value) + ";");
  }
  return h;
}

/// What a repeated compile of the same input must reproduce: its final MII
/// and assignment and, at 1 thread, every HcaStats and metrics-registry
/// counter.
struct Fingerprint {
  int finalMii = 0;
  std::uint64_t assignment = 0;
  std::uint64_t counters = 0;
};

Fingerprint fingerprint(const Outcome& out) {
  return {out.finalMii, assignmentDigest(out), countersDigest(out)};
}

/// Empty when `b` repeats `a` (counters included when `counters`);
/// otherwise what differs.
std::string differs(const Fingerprint& a, const Fingerprint& b,
                    bool counters) {
  if (a.finalMii != b.finalMii) {
    return "final MII " + std::to_string(b.finalMii) + " instead of " +
           std::to_string(a.finalMii);
  }
  if (a.assignment != b.assignment) return "assignment differs";
  if (counters && a.counters != b.counters) return "counters differ";
  return "";
}

// ---------------------------------------------------------------------------
// Trace fold: self time per (rung, level, phase).

struct FoldCell {
  double selfS = 0.0;
  std::int64_t spans = 0;
  std::int64_t legal = 0;  // spans with arg legal=true
};
using FoldKey = std::tuple<std::string, std::string, std::string>;
using Fold = std::map<FoldKey, FoldCell>;

std::string argOf(const Tracer::SpanRecord& span, const char* key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return "";
}

std::string phaseOf(const std::string& name) {
  if (name.rfind("rung:", 0) == 0) return "rung";
  if (name.rfind("verify-", 0) == 0) return "verify";
  return name;  // run, attempt, solve, see, mapper
}

/// Folds one compile's spans. A span's rung is its outermost `rung:*`
/// ancestor (the degraded-bandwidth rung nests a whole ladder); spans with
/// none — the `run` span itself, and portfolio attempts, which start on
/// pool threads and so have no parent — are `unattributed`. Its level is
/// the `level` arg of the nearest `solve` span at or above it.
void foldSpans(const std::vector<Tracer::SpanRecord>& spans, Fold& fold) {
  std::map<std::int64_t, std::size_t> byId;
  for (std::size_t i = 0; i < spans.size(); ++i) byId[spans[i].id] = i;
  std::vector<std::int64_t> childUs(spans.size(), 0);
  for (const auto& span : spans) {
    const auto it = byId.find(span.parentId);
    if (it != byId.end()) childUs[it->second] += span.durUs;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    std::string rung = "unattributed";
    std::string level;
    for (std::size_t at = i;;) {
      const auto& s = spans[at];
      const std::string name = s.name;
      if (name.rfind("rung:", 0) == 0) rung = name.substr(5);
      if (level.empty() && name == "solve") level = "L" + argOf(s, "level");
      const auto up = byId.find(s.parentId);
      if (up == byId.end()) break;
      at = up->second;
    }
    FoldCell& cell = fold[{rung, level.empty() ? "-" : level,
                           phaseOf(span.name)}];
    cell.selfS +=
        static_cast<double>(std::max<std::int64_t>(0, span.durUs - childUs[i])) *
        1e-6;
    ++cell.spans;
    if (argOf(span, "legal") == "true") ++cell.legal;
  }
}

void printFold(const std::string& title, const Fold& fold) {
  std::printf("trace breakdown [%s]: self time by rung / level / phase\n",
              title.c_str());
  std::printf("  %-20s %-5s %-8s %12s %9s\n", "rung", "level", "phase",
              "self_s", "spans");
  std::vector<std::pair<FoldKey, FoldCell>> rows(fold.begin(), fold.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.selfS > b.second.selfS;
  });
  for (const auto& [key, cell] : rows) {
    std::printf("  %-20s %-5s %-8s %12.6f %9lld\n", std::get<0>(key).c_str(),
                std::get<1>(key).c_str(), std::get<2>(key).c_str(), cell.selfS,
                static_cast<long long>(cell.spans));
  }
}

// ---------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void printMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const auto& m : metrics) {
    std::printf("  %-32s %18.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ---------------------------------------------------------------------------
// The benchmark run.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
};

/// One untraced compile as a client process reports it.
struct Sample {
  std::size_t input = 0;
  int pass = 0;
  double compileS = 0.0;
  double postprocessS = 0.0;
  double verifyS = 0.0;
  double schedS = 0.0;
  double simS = 0.0;
  int primary = 0;
  int simMismatch = 0;
  int schedIi = 0;
  std::int64_t diagnostics = 0;
  Fingerprint fp;
  std::string failure;  // last on the line: may contain spaces
};

std::string encode(const Sample& s) {
  std::ostringstream os;
  os.precision(17);
  os << "C " << s.input << ' ' << s.pass << ' ' << s.compileS << ' '
     << s.postprocessS << ' ' << s.verifyS << ' ' << s.schedS << ' ' << s.simS
     << ' ' << s.primary << ' '
     << s.simMismatch << ' ' << s.fp.finalMii << ' ' << s.schedIi << ' '
     << s.diagnostics << ' ' << s.fp.assignment << ' ' << s.fp.counters
     << ' ';
  for (const char c : s.failure) os << (c == '\n' ? ' ' : c);
  os << '\n';
  return os.str();
}

bool decode(const std::string& line, Sample* s) {
  std::istringstream is(line);
  std::string tag;
  is >> tag >> s->input >> s->pass >> s->compileS >> s->postprocessS >>
      s->verifyS >> s->schedS >> s->simS >> s->primary >> s->simMismatch >> s->fp.finalMii >> s->schedIi >>
      s->diagnostics >> s->fp.assignment >> s->fp.counters;
  if (!is || tag != "C") return false;
  is.get();  // the separating space
  std::getline(is, s->failure);
  return true;
}

/// One closed-loop client: whole passes over the inputs, each in an order
/// shuffled from (seed, client). A new pass starts only if the projected
/// end (elapsed + mean pass time so far) stays within `seconds`; there is
/// always at least one pass and this client's share of kMinCompiles.
/// Returns one encoded line per compile, then `R <peak RSS in MB>`.
std::string runClient(const WorkloadSpec& spec, const Setup& setup,
                      std::uint64_t seed, int client, double seconds) {
  std::vector<std::size_t> order(setup.inputs.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(client));
  std::string lines;
  int compiles = 0;
  const int minCompiles = (kMinCompiles + spec.clients - 1) / spec.clients;
  const auto start = monotonicNow();
  for (int pass = 0;; ++pass) {
    const double elapsed = secondsSince(start);
    if (pass > 0 && compiles >= minCompiles &&
        elapsed + elapsed / pass > seconds) {
      break;
    }
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next() % i]);
    }
    for (const std::size_t idx : order) {
      const Input& in = setup.inputs[idx];
      const Outcome out = compileAndCheck(in, setup.models[in.model],
                                          spec.threads, nullptr);
      Sample s;
      s.input = idx;
      s.pass = pass;
      s.compileS = out.compileS;
      s.postprocessS = out.postprocessS;
      s.verifyS = out.verifyS;
      s.schedS = out.schedS;
      s.simS = out.simS;
      s.primary = out.primary ? 1 : 0;
      s.simMismatch = out.simMismatch ? 1 : 0;
      s.schedIi = out.schedIi;
      s.diagnostics = out.diagnostics;
      s.fp = fingerprint(out);
      s.failure = out.failure;
      lines += encode(s);
      ++compiles;
    }
  }
  std::ostringstream rss;
  rss.precision(17);
  rss << "R " << peakRssMb() << '\n';
  return lines + rss.str();
}

bool writeAll(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Runs `spec.clients` client processes side by side and collects their
/// reports, calling `idle` about every kSetupIntervalMs while it waits.
/// Clients are processes, like the compiler invocations of a parallel
/// build, so each has its own heap and its own peak RSS. Must be called
/// while this process has a single thread (fork copies only the calling
/// thread). Returns false, with the reason, when a client dies.
bool runClients(const WorkloadSpec& spec, const Setup& setup,
                std::uint64_t seed, double seconds,
                const std::function<void()>& idle,
                std::vector<std::string>* reports, std::string* why) {
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<std::pair<pid_t, int>> children;  // pid, read end
  for (int c = 0; c < spec.clients; ++c) {
    int fds[2];
    if (pipe(fds) != 0) {
      *why = "pipe failed";
      break;
    }
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      for (const auto& [otherPid, fd] : children) close(fd);
      std::string report;
      try {
        report = runClient(spec, setup, seed, c, seconds);
      } catch (const std::exception& e) {
        report = std::string("E ") + e.what() + "\n";
      }
      _exit(writeAll(fds[1], report) ? 0 : 1);
    }
    close(fds[1]);
    if (pid < 0) {
      close(fds[0]);
      *why = "fork failed";
      break;
    }
    children.emplace_back(pid, fds[0]);
  }
  // Clients write their whole report when they finish, so the pipes stay
  // quiet, and `idle` runs, for almost the whole run.
  std::vector<pollfd> polls;
  for (const auto& [pid, fd] : children) polls.push_back({fd, POLLIN, 0});
  reports->assign(children.size(), "");
  std::size_t open = polls.size();
  while (open > 0) {
    const int ready = poll(polls.data(), polls.size(), kSetupIntervalMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) {
      *why = "poll failed";
      break;
    }
    if (ready == 0) {
      idle();
      continue;
    }
    for (std::size_t i = 0; i < polls.size(); ++i) {
      if (polls[i].fd < 0 || polls[i].revents == 0) continue;
      char buf[65536];
      const ssize_t n = read(polls[i].fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n > 0) {
        (*reports)[i].append(buf, static_cast<std::size_t>(n));
        continue;
      }
      close(polls[i].fd);
      polls[i].fd = -1;  // poll skips negative descriptors
      --open;
    }
  }
  for (const pollfd& p : polls) {
    if (p.fd >= 0) close(p.fd);
  }
  bool ok = why->empty();
  for (const auto& [pid, fd] : children) {
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ok = false;
      *why = "a client process exited abnormally";
    }
  }
  return ok;
}

int runBenchmark(const Args& args) {
  WorkloadSpec spec;
  if (!workloadSpec(args.workload, &spec)) {
    std::fprintf(stderr, "compile_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // --- Set-up, repeated: setup_s is the median of the repetitions. -------
  std::vector<double> ddgS, modelS, setupS;
  const auto addSetup = [&](double d, double m) {
    ddgS.push_back(d);
    modelS.push_back(m);
    setupS.push_back(d + m);
  };
  Setup setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    double d = 0.0, m = 0.0;
    setup = buildSetup(spec, args.seed, &d, &m);
    addSetup(d, m);
  }
  const std::vector<Input>& inputs = setup.inputs;

  // Provenance: the build, the host, and exactly what this run compiles.
  {
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.key("context");
    RunContext::current(args.workload + "/seed" + std::to_string(args.seed))
        .writeJson(json);
    json.key("nproc").value(
        static_cast<int>(std::thread::hardware_concurrency()));
    json.key("clients").value(spec.clients);
    json.key("threads").value(spec.threads);
    json.key("workload").value(args.workload);
    json.key("seed").value(static_cast<std::int64_t>(args.seed));
    json.key("seconds").value(args.seconds);
    json.key("inputs").beginArray();
    for (const auto& in : inputs) json.value(in.name);
    json.endArray();
    json.endObject();
    std::printf("provenance: %s\n", os.str().c_str());
  }

  // --- The untraced closed loop, in client processes. ---------------------
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto fail = [&](const std::string& what, const std::string& why) {
    ++failed;
    std::printf("FAILED %s: %s\n", what.c_str(), why.c_str());
  };
  const auto loopStart = monotonicNow();
  std::vector<std::string> reports;
  std::string clientError;
  const auto timeSetup = [&] {
    double d = 0.0, m = 0.0;
    (void)buildSetup(spec, args.seed, &d, &m);
    addSetup(d, m);
  };
  if (!runClients(spec, setup, args.seed, args.seconds, timeSetup, &reports,
                  &clientError)) {
    fail("client", clientError);
  }
  const double loopS = secondsSince(loopStart);
  const double clientCpuS = childrenCpuSeconds();

  std::vector<Sample> samples;
  double peakRss = 0.0;
  int passes = 0;
  for (const std::string& report : reports) {
    std::istringstream lines(report);
    std::string line;
    int clientPasses = 0;
    while (std::getline(lines, line)) {
      Sample s;
      if (decode(line, &s)) {
        clientPasses = std::max(clientPasses, s.pass + 1);
        samples.push_back(std::move(s));
      } else if (line.rfind("R ", 0) == 0) {
        peakRss = std::max(peakRss, std::strtod(line.c_str() + 2, nullptr));
      } else {
        fail("client", line);
      }
    }
    passes += clientPasses;
  }

  // Every compile is checked; every repeat of an input must match its first
  // compile (mapping and final MII; at 1 thread, every counter too).
  const bool serial = spec.threads == 1;
  std::vector<const Sample*> reference(inputs.size(), nullptr);
  std::vector<std::vector<double>> perInputS(inputs.size());
  std::vector<double> compileS;
  double compileWallS = 0.0, postprocessS = 0.0, verifyS = 0.0, schedS = 0.0,
         simS = 0.0;
  std::int64_t instructions = 0, diagnostics = 0, simMismatches = 0;
  for (const Sample& s : samples) {
    const Input& in = inputs[s.input];
    ++attempted;
    compileS.push_back(s.compileS);
    perInputS[s.input].push_back(s.compileS);
    compileWallS += s.compileS;
    postprocessS += s.postprocessS;
    verifyS += s.verifyS;
    schedS += s.schedS;
    simS += s.simS;
    instructions += in.instructions;
    diagnostics += s.diagnostics;
    simMismatches += s.simMismatch;
    if (!s.failure.empty()) {
      fail(in.name, s.failure);
      continue;
    }
    const Sample*& ref = reference[s.input];
    if (ref == nullptr) {
      ref = &s;
    } else if (const std::string why = differs(ref->fp, s.fp, serial);
               !why.empty()) {
      fail(in.name, "differs from its first compile: " + why);
    }
  }
  if (samples.empty()) fail("client", "no compile reported");

  // --- End-to-end metrics (all from the untraced loop). -------------------
  std::vector<double> sorted = compileS;
  std::sort(sorted.begin(), sorted.end());
  const int n = static_cast<int>(sorted.size());
  const int tailIndex = std::max(0, n - kTailCount - 1);  // kTailCount beyond
  const double tailPct = n > 0 ? 100.0 * (tailIndex + 1) / n : 0.0;
  std::vector<double> finalMii, schedIi, iiOverMii;
  std::int64_t primaryLegal = 0;
  for (const Sample* ref : reference) {
    if (ref == nullptr) continue;
    primaryLegal += ref->primary;
    finalMii.push_back(ref->fp.finalMii);
    schedIi.push_back(ref->schedIi);
    iiOverMii.push_back(static_cast<double>(ref->schedIi) / ref->fp.finalMii);
  }
  std::printf(
      "compiles: %d over %d passes of %zu inputs, %d client(s) x %d "
      "thread(s), %.1f s; tail is p%.1f (%d compiles beyond it)\n",
      n, passes, inputs.size(), spec.clients, spec.threads, loopS, tailPct,
      kTailCount);
  std::printf("failed_share: %.6f (%lld of %lld compiles)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Sample* ref = reference[i];
    std::printf(
        "input %-24s instr %4d verified %d primary %d finalMII %3d schedII "
        "%3d compiles %3zu median_s %.4f\n",
        inputs[i].name.c_str(), inputs[i].instructions, ref != nullptr,
        ref != nullptr ? ref->primary : 0, ref != nullptr ? ref->fp.finalMii : 0,
        ref != nullptr ? ref->schedIi : 0, perInputS[i].size(),
        median(perInputS[i]));
  }
  const std::vector<Metric> endToEnd = {
      {"compile_s_p50", median(compileS), "s"},
      {"compile_s_tail", sorted.empty() ? 0.0 : sorted[tailIndex], "s"},
      {"instr_per_s", ratio(static_cast<double>(instructions), compileWallS),
       "instr/s"},
      {"setup_s", median(setupS), "s"},
      {"peak_rss_mb", peakRss, "MB"},
      {"final_mii_geomean", geomean(finalMii), "cycles"},
      {"sched_ii_geomean", geomean(schedIi), "cycles"},
      {"primary_legal_share",
       static_cast<double>(primaryLegal) / static_cast<double>(inputs.size()),
       "ratio"},
      {"verified_share",
       1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
  };
  printMetrics("end-to-end metrics:", endToEnd);

  std::vector<Metric> perLayer;
  if (args.trace) {
    // --- One traced pass, folded. It runs with the loop's client count (as
    // threads of this process), so its compiles see similar contention. --
    std::mutex mutex;  // guards nextTraced and traced
    std::size_t nextTraced = 0;
    std::vector<Outcome> traced(inputs.size());
    std::vector<Fold> folds(inputs.size());
    std::int64_t dropped = 0;
    const auto tracedClient = [&] {
      for (;;) {
        std::size_t i = 0;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (nextTraced == inputs.size()) return;
          i = nextTraced++;
        }
        const Input& in = inputs[i];
        Tracer tracer;
        Outcome out =
            compileAndCheck(in, setup.models[in.model], spec.threads, &tracer);
        Fold fold;
        foldSpans(tracer.spans(), fold);
        const std::lock_guard<std::mutex> lock(mutex);
        dropped += tracer.droppedSpans();
        traced[i] = std::move(out);
        folds[i] = std::move(fold);
      }
    };
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < spec.clients; ++c) clients.emplace_back(tracedClient);
    }

    // Per-layer counts: the traced pass's driver metrics (tracing does not
    // change results; checked below against the untraced compiles).
    Fold total;
    MetricsRegistry m;
    core::HcaStats stats;
    std::int64_t recvs = 0;
    double tracedS = 0.0, untracedS = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Outcome& out = traced[i];
      ++attempted;
      std::string why = out.failure;
      const Sample* ref = reference[i];
      if (why.empty() && ref != nullptr) {
        why = differs(ref->fp, fingerprint(out), serial);
      }
      if (!why.empty()) fail(inputs[i].name + " (traced)", why);
      m.merge(out.metrics);
      stats.merge(out.stats);
      recvs += out.recvs;
      tracedS += out.compileS;
      untracedS += median(perInputS[i]);
      if (inputs[i].table1) printFold(inputs[i].name, folds[i]);
      for (const auto& [key, cell] : folds[i]) {
        FoldCell& t = total[key];
        t.selfS += cell.selfS;
        t.spans += cell.spans;
        t.legal += cell.legal;
      }
    }
    printFold("all inputs", total);
    if (dropped != 0) {
      fail("trace", std::to_string(dropped) + " spans dropped");
    }
    const auto counter = [&](const std::string& name) {
      return static_cast<double>(m.counterValue(name));
    };
    const auto histMean = [&](const std::string& name) {
      const Histogram* h = m.findHistogram(name);
      return h != nullptr && h->stats().count() > 0 ? h->stats().mean() : 0.0;
    };
    const auto histSum = [&](const std::string& name) {
      const Histogram* h = m.findHistogram(name);
      return h != nullptr ? h->stats().sum() : 0.0;
    };
    const auto foldSum = [&](const std::string& rung, const std::string& level,
                             const std::string& phase, bool legalOnly) {
      double sum = 0.0;
      for (const auto& [key, cell] : total) {
        if ((rung.empty() || std::get<0>(key) == rung) &&
            (level.empty() || std::get<1>(key) == level) &&
            (phase.empty() || std::get<2>(key) == phase)) {
          sum += legalOnly ? static_cast<double>(cell.legal) : cell.selfS;
        }
      }
      return sum;
    };
    const auto spanCount = [&](const std::string& level,
                               const std::string& phase) {
      double count = 0.0;
      for (const auto& [key, cell] : total) {
        if (std::get<1>(key) == level && std::get<2>(key) == phase) {
          count += static_cast<double>(cell.spans);
        }
      }
      return count;
    };
    const double perPass = passes > 0 ? 1.0 / passes : 0.0;
    const auto attempts = counter("attempt.legal") + counter("attempt.illegal");
    const double poolWait = histSum("pool.task_wait_us");
    const double poolRun = histSum("pool.task_run_us");
    perLayer = {
        {"ddg.build_s", median(ddgS), "s"},
        {"machine.model_s", median(modelS), "s"},
        {"hca.attempts", static_cast<double>(stats.outerAttempts), "count"},
        {"hca.attempt_yield", ratio(counter("attempt.legal"), attempts),
         "ratio"},
        {"hca.attempts_cancelled", static_cast<double>(stats.attemptsCancelled),
         "count"},
        {"hca.rung_share.primary",
         ratio(foldSum("primary-sweep", "", "", false), tracedS), "ratio"},
        {"hca.rung_share.degraded",
         ratio(foldSum("degraded-bandwidth", "", "", false), tracedS),
         "ratio"},
    };
    for (int l = 0; l < kLevels; ++l) {
      perLayer.push_back({levelName("hca.backtracks", l),
                          counter(levelName("hca.backtracks", l)), "count"});
    }
    for (int l = 0; l < kLevels; ++l) {
      const double hits = counter(levelName("cache.hits", l));
      perLayer.push_back({levelName("cache.hit_ratio", l),
                          ratio(hits, hits + counter(levelName("cache.misses", l))),
                          "ratio"});
    }
    perLayer.push_back({"cache.entries", counter("cache.entries"), "count"});
    for (int l = 0; l < kLevels; ++l) {
      const std::string L = "L" + std::to_string(l);
      perLayer.push_back({levelName("see.self_s", l),
                          foldSum("", L, "see", false), "s"});
      for (const char* name :
           {"see.problems", "see.expansions", "see.candidates",
            "see.route_invocations", "see.route_failures",
            "see.oracle_rejects"}) {
        perLayer.push_back({levelName(name, l), counter(levelName(name, l)),
                            "count"});
      }
      perLayer.push_back({levelName("see.legal_ratio", l),
                          ratio(foldSum("", L, "see", true), spanCount(L, "see")),
                          "ratio"});
    }
    perLayer.push_back({"see.arena_peak_bytes",
                        static_cast<double>(stats.seeArenaBytesPeak), "bytes"});
    for (int l = 0; l < kLevels; ++l) {
      const std::string L = "L" + std::to_string(l);
      perLayer.push_back({levelName("mapper.self_s", l),
                          foldSum("", L, "mapper", false), "s"});
      perLayer.push_back({levelName("mapper.failures", l),
                          counter(levelName("mapper.failures", l)), "count"});
      perLayer.push_back({levelName("mapper.wire_utilization", l),
                          histMean(levelName("mapper.wire_utilization", l)),
                          "ratio"});
    }
    const std::vector<Metric> tail = {
        {"pool.task_wait_share", ratio(poolWait, poolWait + poolRun), "ratio"},
        {"pool.busy_share",
         ratio(poolRun * 1e-6, tracedS * spec.threads),
         "ratio"},
        {"pool.cpu_per_wall", ratio(clientCpuS, loopS * spec.clients),
         "ratio"},
        {"postprocess.s", postprocessS * perPass, "s"},
        {"postprocess.recvs", static_cast<double>(recvs), "count"},
        {"sched.schedule_s", schedS * perPass, "s"},
        {"sched.ii_over_mii", geomean(iiOverMii), "ratio"},
        {"verify.check_s", verifyS * perPass, "s"},
        {"verify.diagnostics", static_cast<double>(diagnostics), "count"},
        {"sim.check_s", simS * perPass, "s"},
        {"sim.mismatches", static_cast<double>(simMismatches), "count"},
        {"trace.overhead_ratio", ratio(tracedS, untracedS), "ratio"},
        {"trace.spans_dropped", static_cast<double>(dropped), "count"},
    };
    perLayer.insert(perLayer.end(), tail.begin(), tail.end());
    printMetrics("per-layer metrics:", perLayer);
  }

  // --- Result line. --------------------------------------------------------
  std::ostringstream os;
  JsonWriter json(os);
  json.beginObject();
  json.key("correct").value(failed == 0);
  json.key("attempted").value(attempted);
  json.key("failed").value(failed);
  json.key("metrics").beginObject();
  for (const auto& metric : args.trace ? perLayer : endToEnd) {
    json.key(metric.name).beginObject();
    json.key("value").value(metric.value);
    json.key("unit").value(metric.unit);
    json.endObject();
  }
  json.endObject();
  json.endObject();
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Determinism self-test.

/// Two passes of each 1-thread workload must repeat their mappings and
/// deterministic counters exactly, and every input compiled by the
/// portfolio at hardware concurrency must get the serial mapping.
int runSelftest(std::uint64_t seed) {
  int failures = 0;
  const auto report = [&](const std::string& what, const std::string& why) {
    if (why.empty()) return;
    ++failures;
    std::printf("FAILED %s: %s\n", what.c_str(), why.c_str());
  };
  WorkloadSpec portfolio;
  workloadSpec("portfolio", &portfolio);
  const int threads = ThreadPool::effectiveThreads(portfolio.threads, false);
  for (const char* name : {"primary-sweep", "fallback-heavy"}) {
    WorkloadSpec spec;
    workloadSpec(name, &spec);
    double d = 0.0, m = 0.0;
    const Setup setup = buildSetup(spec, seed, &d, &m);
    for (const Input& in : setup.inputs) {
      const int failuresBefore = failures;
      const auto& model = setup.models[in.model];
      const Outcome a = compileAndCheck(in, model, 1, nullptr);
      const Outcome b = compileAndCheck(in, model, 1, nullptr);
      const Outcome p = compileAndCheck(in, model, threads, nullptr);
      report(in.name, a.failure);
      report(in.name + " (second serial run)",
             differs(fingerprint(a), fingerprint(b), true));
      report(in.name + " (portfolio, " + std::to_string(threads) +
                 " threads)",
             p.failure.empty()
                 ? differs(fingerprint(a), fingerprint(p), false)
                 : p.failure);
      std::printf("selftest %-24s finalMII %3d counters %zu: %s\n",
                  in.name.c_str(), a.finalMii,
                  a.counters.size() + a.metrics.counters().size(),
                  failures == failuresBefore ? "ok" : "FAILED");
    }
  }
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

bool parseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->selftest || !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: compile_bench --workload <primary-sweep|"
                 "fallback-heavy|portfolio> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       compile_bench --selftest "
                 "[--seed <n>]\n");
    return 2;
  }
  // Timings from an unoptimized build are not comparable: refuse to report.
  if (warnIfDebugBuild("compile_bench")) return 2;
  try {
    return args.selftest ? runSelftest(args.seed) : runBenchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compile_bench: %s\n", e.what());
    return 3;
  }
}
