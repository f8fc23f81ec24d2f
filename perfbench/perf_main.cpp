// lisasim_perf: the seeded end-to-end benchmark binary (see README.md).
//
//   lisasim_perf --workload edit-run|serve-static|native-cold
//                --seed N --seconds S --trace 0|1 --scratch DIR
//                [--spans FILE]
//
// Runs one closed-loop workload through the public APIs for S seconds
// (at least a fixed prefix of units, so the digest is comparable), checks
// every output, and prints one JSON object on stdout: attempted/failed
// counts, the metrics, the simulated-statistics digest and the native
// toolchain it found. With --trace 1 every other unit (job or batch) also
// records spans around each call into a layer; the per-layer metrics come
// from those spans plus the layers' own counters, and the span list is
// written to --spans at exit. The untraced units of the same run give the
// tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "asm/assembler.hpp"
#include "decode/decoder.hpp"
#include "model/sema.hpp"
#include "serve/session_manager.hpp"
#include "sim/compiled.hpp"
#include "sim/native.hpp"
#include "support/rng.hpp"
#include "targets/c62x.hpp"
#include "workloads/workloads.hpp"

using namespace lisasim;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Spans -----------------------------------------------------------------

struct SpanRecord {
  const char* name;
  std::uint64_t id;  // job or batch id; setup spans use the repetition
  int parent;        // index into the span list, -1 for a root
  double start;      // seconds since the tracer's epoch
  double end;
};

/// In-memory span list. Open/close are no-ops while the current unit is
/// untraced, so the untraced units pay one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Spans of the current unit are recorded only while `on` (and tracing
  /// was requested for the run).
  void set_active(bool on) { active_ = enabled_ && on; }
  bool active() const { return active_; }

  int open(const char* name, std::uint64_t id, int parent = -1) {
    if (!active_) return -1;
    spans_.push_back({name, id, parent, now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = now();
  }

  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_)
      if (std::strcmp(s.name, name) == 0) out.push_back(s.end - s.start);
    return out;
  }
  /// Share of the `parent_name` spans' time their direct children cover.
  double child_coverage(const char* parent_name) const {
    double parents = 0, children = 0;
    for (const SpanRecord& s : spans_) {
      if (std::strcmp(s.name, parent_name) == 0) parents += s.end - s.start;
      if (s.parent >= 0 &&
          std::strcmp(spans_[static_cast<std::size_t>(s.parent)].name,
                      parent_name) == 0)
        children += s.end - s.start;
    }
    return parents > 0 ? children / parents : 0;
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"span\": %zu, \"name\": \"%s\", \"id\": %llu, "
                    "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                    i, s.name, static_cast<unsigned long long>(s.id),
                    s.parent, s.start, s.end);
      f << line;
    }
  }

 private:
  double now() const { return seconds_since(epoch_); }

  bool enabled_;
  bool active_ = false;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: closes on scope exit (exceptions included).
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t id, int parent = -1)
      : tracer_(&tracer), index_(tracer.open(name, id, parent)) {}
  ~Span() { tracer_->close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

// ---- Statistics and output -------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// FNV-1a over the verified outputs: the digest's hash part.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  char buffer[160];
  for (const auto& [name, m] : metrics) {
    // %.17g keeps every digit of a measured value.
    std::snprintf(buffer, sizeof buffer,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit);
    out += buffer;
  }
  return out + "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Setup -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string spans;
};

/// Everything before the first timed unit: the model built from LISA
/// source, its decoder, the native toolchain probe and (serve workloads)
/// the fleet's programs generated and assembled.
struct Setup {
  std::unique_ptr<Model> model;
  std::unique_ptr<Decoder> decoder;
  std::string toolchain;
  std::vector<std::shared_ptr<const LoadedProgram>> fleet_programs;
};

constexpr int kSetupReps = 21;  // setup_s is the median of these

const std::vector<workloads::Workload>& serve_programs() {
  // The three paper applications stretched to 0.12-0.28 M cycles each, so
  // a session spans about ten default (16384-cycle) quanta and a run
  // holds several fleet batches.
  static const std::vector<workloads::Workload> programs = {
      workloads::make_fir(16, 64, 8), workloads::make_adpcm(256, 8),
      workloads::make_gsm(160, 8)};
  return programs;
}

Setup build_setup(const Options& opt, Tracer& tracer, int rep) {
  Setup s;
  const auto id = static_cast<std::uint64_t>(rep);
  Span root(tracer, "setup", id);
  {
    Span span(tracer, "model.build", id, root.index());
    s.model = compile_model_source_or_throw(targets::c62x_model_source(),
                                            "c62x");
  }
  {
    Span span(tracer, "decode.build", id, root.index());
    s.decoder = std::make_unique<Decoder>(*s.model);
  }
  {
    Span span(tracer, "toolchain.probe", id, root.index());
    s.toolchain = NativeRuntime::toolchain();
  }
  if (opt.workload == "serve-static") {
    Span span(tracer, "fleet.assemble", id, root.index());
    for (const workloads::Workload& w : serve_programs())
      s.fleet_programs.push_back(std::make_shared<const LoadedProgram>(
          assemble_or_throw(*s.model, *s.decoder, w.asm_source, w.name)));
  }
  return s;
}

// ---- Job workloads (edit-run, native-cold) ----------------------------------

/// dmem word no paper workload touches: each job stores a distinct tag
/// there, so every job's text and image differ, and checks it survived.
constexpr std::uint64_t kTagAddr = 16383;
constexpr std::uint64_t kMaxCycles = 50'000'000;

struct JobSpec {
  int kind = 0;  // 0 fir, 1 adpcm, 2 gsm
  int a = 0, b = 0;
  std::int64_t tag = 0;
};

const char* kind_name(int kind) {
  return kind == 0 ? "fir" : kind == 1 ? "adpcm" : "gsm";
}

/// Draw the next job at paper size (fir 16x64, adpcm 256, gsm 160) give
/// or take a quarter. `kinds` is 3 for edit-run (fir/adpcm/gsm drawn) and
/// 2 for native-cold (fir and adpcm alternate, so every run has an even
/// mix of the two cold-compile shapes).
JobSpec draw_job(support::SplitMix64& rng, std::uint64_t index, int kinds) {
  JobSpec j;
  j.kind = kinds == 3 ? static_cast<int>(rng.range(0, 2))
                      : static_cast<int>(index % 2);
  switch (j.kind) {
    case 0:
      j.a = static_cast<int>(rng.range(12, 20));  // taps
      j.b = static_cast<int>(rng.range(48, 80));  // samples
      break;
    case 1: j.a = static_cast<int>(rng.range(192, 320)); break;
    default: j.a = static_cast<int>(rng.range(120, 160)); break;
  }
  j.tag = rng.range(1, 0x3FFFFFFF);
  return j;
}

workloads::Workload make_job(const JobSpec& j) {
  workloads::Workload w = j.kind == 0   ? workloads::make_fir(j.a, j.b)
                          : j.kind == 1 ? workloads::make_adpcm(j.a)
                                        : workloads::make_gsm(j.a);
  w.asm_source += "        .data dmem " + std::to_string(kTagAddr) +
                  "\n        .word " + std::to_string(j.tag) + "\n";
  w.expected_dmem.emplace_back(kTagAddr, j.tag);
  return w;
}

/// Check a finished run against the C reference; throws on any mismatch.
void verify_dmem(CompiledSimulator& sim, const RunResult& result,
                 const workloads::Workload& w, Digest* digest) {
  if (!result.halted) throw SimError(w.name + ": did not halt");
  const Resource* dmem = sim.model().resource_by_name("dmem");
  for (const auto& [addr, value] : w.expected_dmem) {
    const std::int64_t got = sim.state().read(dmem->id, addr);
    if (got != value)
      throw SimError(w.name + ": dmem[" + std::to_string(addr) + "] = " +
                     std::to_string(got) + ", expected " +
                     std::to_string(value));
    if (digest) digest->add(static_cast<std::uint64_t>(got));
  }
}

void add_result(Digest& digest, const RunResult& r) {
  digest.add(r.cycles);
  digest.add(r.packets_retired);
  digest.add(r.slots_retired);
  digest.add(r.fetches);
  digest.add(r.halted ? 1 : 0);
}

/// One job's observations; the per-layer metrics read the traced jobs'.
struct JobRecord {
  bool traced = false;
  int kind = 0;
  double latency = 0;   // source text to verified result, seconds
  std::vector<double> steps;  // seconds per run() call counted as a step
  double step_slots = 0;      // slots retired over those steps
  std::uint64_t cycles = 0, slots = 0;  // the first (verified) run
  std::uint64_t words = 0;
  SimCompileStats compile;
  TraceStats trace;
  std::uint64_t cold_toolchain_ns = 0;  // up to the first verified result
  NativeStats native_steady;  // after warm-up and the timed reruns
  double all_cycles = 0;      // every run of the simulator (trace share)
};

struct RunTotals {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

// A block that runs once per program run turns hot only after
// hot_threshold runs, so the warm-up ends after two thresholds' worth of
// consecutive reruns that launched no compile round.
const int kNativeQuietRuns =
    2 * static_cast<int>(TraceConfig{}.hot_threshold);
constexpr int kNativeWarmupCap = 1000;
constexpr int kNativeReruns = 512;  // timed steady reruns per job

JobRecord run_job(const Setup& setup, const workloads::Workload& w,
                  bool native, std::uint64_t id, Tracer& tracer,
                  Digest* digest) {
  JobRecord rec;
  rec.traced = tracer.active();
  // Declared before the job span, so their teardown falls outside it.
  LoadedProgram program;
  std::unique_ptr<CompiledSimulator> sim;
  const Clock::time_point t0 = Clock::now();
  Span job(tracer, "job", id);
  {
    Span span(tracer, "asm.assemble", id, job.index());
    program = assemble_or_throw(*setup.model, *setup.decoder, w.asm_source,
                                w.name);
  }
  rec.words = program.words.size();
  {
    Span span(tracer, "sim.load", id, job.index());
    sim = std::make_unique<CompiledSimulator>(
        *setup.model, native ? SimLevel::kNative : SimLevel::kTrace);
    if (native) {
      NativeConfig config;  // as `lisasim run --level native`
      config.blocking = true;
      sim->set_native_config(config);
    }
    rec.compile = sim->load(program);
  }
  RunResult result;
  const Clock::time_point run0 = Clock::now();
  {
    Span span(tracer, "sim.run", id, job.index());
    result = sim->run(kMaxCycles);
  }
  const double first_run = seconds_since(run0);
  {
    Span span(tracer, "verify", id, job.index());
    verify_dmem(*sim, result, w, digest);
  }
  rec.latency = seconds_since(t0);
  rec.cycles = result.cycles;
  rec.slots = result.slots_retired;
  if (digest) add_result(*digest, result);
  if (!native) {
    rec.steps.push_back(first_run);
    rec.step_slots = static_cast<double>(result.slots_retired);
    rec.trace = *sim->trace_stats();
    rec.all_cycles = static_cast<double>(result.cycles);
    return rec;
  }

  const NativeStats* ns = sim->native_stats();
  if (ns == nullptr) throw SimError("native tier unavailable (no toolchain)");
  rec.cold_toolchain_ns = ns->compile_ns;
  int runs = 1;
  {
    // Rerun untimed until no compile round fires any more.
    Span span(tracer, "native.warmup", id, job.index());
    int quiet = 0;
    for (int i = 0; quiet < kNativeQuietRuns; ++i) {
      if (i == kNativeWarmupCap)
        throw SimError(w.name + ": native compile rounds did not settle");
      const std::uint64_t rounds = ns->rounds;
      sim->reload(program);
      if (sim->run(kMaxCycles) != result)
        throw SimError(w.name + ": warm-up run diverged");
      ++runs;
      quiet = ns->rounds == rounds ? quiet + 1 : 0;
    }
  }
  if (!sim->native_active())
    throw SimError(w.name + ": no native region installed");
  {
    Span span(tracer, "native.reruns", id, job.index());
    rec.steps.reserve(kNativeReruns);
    for (int i = 0; i < kNativeReruns; ++i) {
      // Only run(), the native dispatch, is timed; the reload before it is
      // a memory-bound state reset.
      sim->reload(program);
      const Clock::time_point s0 = Clock::now();
      const RunResult r = sim->run(kMaxCycles);
      rec.steps.push_back(seconds_since(s0));
      if (r != result) throw SimError(w.name + ": rerun diverged");
    }
    verify_dmem(*sim, result, w, nullptr);
  }
  rec.step_slots = static_cast<double>(result.slots_retired) * kNativeReruns;
  rec.native_steady = *ns;
  rec.trace = *sim->trace_stats();
  rec.all_cycles =
      static_cast<double>(result.cycles) * (runs + kNativeReruns);
  if (digest) digest->add(ns->rounds);
  return rec;
}

// ---- Serve workloads -----------------------------------------------------------

constexpr unsigned kServeWorkers = 2;
constexpr int kFleetSize = 64;
constexpr std::size_t kEvictResident = 12;

struct Reference {
  RunResult result;
  std::string dump;
  double run_seconds = 0;
  SimCompileStats compile;
  double load_seconds = 0;
};

/// One standalone static run per fleet program: the result every session
/// of that program must reproduce bit for bit.
std::vector<Reference> standalone_references(const Setup& setup,
                                             Tracer& tracer) {
  std::vector<Reference> refs;
  for (std::size_t p = 0; p < setup.fleet_programs.size(); ++p) {
    Reference ref;
    CompiledSimulator sim(*setup.model, SimLevel::kCompiledStatic);
    Clock::time_point t0 = Clock::now();
    {
      Span span(tracer, "sim.load", p);
      ref.compile = sim.load(*setup.fleet_programs[p]);
    }
    ref.load_seconds = seconds_since(t0);
    t0 = Clock::now();
    {
      Span span(tracer, "sim.run", p);
      ref.result = sim.run(kMaxCycles);
    }
    ref.run_seconds = seconds_since(t0);
    if (!ref.result.halted)
      throw SimError("fleet program " + std::to_string(p) + " did not halt");
    ref.dump = sim.state().dump_nonzero();
    refs.push_back(std::move(ref));
  }
  return refs;
}

/// The seeded fleet: 64 sessions over the three programs, as even as 64
/// allows (the seed picks which program gets the extra session), in a
/// seeded order.
std::vector<int> draw_fleet(std::uint64_t seed) {
  support::SplitMix64 rng(seed ^ 0x5E55105E55105ull);
  const int extra = static_cast<int>(rng.range(0, 2));
  std::vector<int> fleet;
  for (int p = 0; p < 3; ++p)
    for (int i = 0; i < kFleetSize / 3 + (p == extra ? 1 : 0); ++i)
      fleet.push_back(p);
  for (std::size_t i = fleet.size() - 1; i > 0; --i)
    std::swap(fleet[i], fleet[static_cast<std::size_t>(
                            rng.range(0, static_cast<std::int64_t>(i)))]);
  return fleet;
}

struct BatchRecord {
  bool traced = false;
  double latency = 0;  // fleet submission to every session verified
  double run_all = 0;
  ServeMetrics metrics;
  SimTableCache::Stats cache;
  double standalone = 0;  // sum of the sessions' standalone run times
};

BatchRecord run_batch(const Setup& setup, const std::vector<Reference>& refs,
                      const std::vector<int>& fleet,
                      std::size_t max_resident, const std::string& evict_dir,
                      std::uint64_t id, Tracer& tracer, Digest* digest) {
  BatchRecord rec;
  rec.traced = tracer.active();
  const Clock::time_point t0 = Clock::now();
  Span batch(tracer, "job", id);
  ServeConfig config;
  config.threads = kServeWorkers;
  config.max_resident = max_resident;
  config.evict_dir = evict_dir;
  SessionManager manager(config);
  for (int p : fleet) {
    SessionSpec spec;
    spec.model = setup.model.get();
    spec.program = setup.fleet_programs[static_cast<std::size_t>(p)];
    spec.level = SimLevel::kCompiledStatic;
    manager.add_session(std::move(spec));
    rec.standalone += refs[static_cast<std::size_t>(p)].run_seconds;
  }
  const Clock::time_point r0 = Clock::now();
  {
    Span span(tracer, "serve.run_all", id, batch.index());
    manager.run_all();
  }
  rec.run_all = seconds_since(r0);
  {
    Span span(tracer, "verify", id, batch.index());
    const std::vector<SessionReport> reports = manager.reports();
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const SessionReport& report = reports[i];
      const Reference& ref = refs[static_cast<std::size_t>(fleet[i])];
      if (report.outcome != SessionOutcome::kHalted)
        throw SimError(report.name + ": outcome " +
                       session_outcome_name(report.outcome) + " " +
                       report.error);
      if (report.result != ref.result || report.state_dump != ref.dump)
        throw SimError(report.name + ": diverged from its standalone run");
      if (digest) {
        add_result(*digest, report.result);
        digest->add(report.state_dump);
        digest->add(report.quanta);
      }
    }
  }
  rec.metrics = manager.metrics();
  rec.cache = manager.cache().stats();
  rec.latency = seconds_since(t0);
  return rec;
}

/// Time checkpoint_session and restore_session on one mid-flight session
/// (traced runs only), then finish it and check it against its reference.
struct CheckpointProbe {
  std::vector<double> checkpoint, restore;
  double bytes = 0;
};

CheckpointProbe probe_checkpoints(const Setup& setup,
                                  const std::vector<Reference>& refs,
                                  const std::string& dir, Tracer& tracer) {
  CheckpointProbe probe;
  ServeConfig config;
  config.threads = 1;
  SessionManager manager(config);
  SessionSpec spec;
  spec.model = setup.model.get();
  spec.program = setup.fleet_programs[0];
  spec.level = SimLevel::kCompiledStatic;
  const std::size_t id = manager.add_session(std::move(spec));
  manager.run_session(id, refs[0].result.cycles / 2);
  const std::string path = dir + "/probe.ckpt";
  for (int i = 0; i < 9; ++i) {
    Clock::time_point t0 = Clock::now();
    {
      Span span(tracer, "serve.checkpoint", static_cast<std::uint64_t>(i));
      manager.checkpoint_session(id, path);
    }
    probe.checkpoint.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      Span span(tracer, "serve.restore", static_cast<std::uint64_t>(i));
      manager.restore_session(id, path);
    }
    probe.restore.push_back(seconds_since(t0));
  }
  probe.bytes = static_cast<double>(fs::file_size(path));
  manager.run_session(id, UINT64_MAX);
  const SessionReport report = manager.report(id);
  if (report.outcome != SessionOutcome::kHalted ||
      report.result != refs[0].result || report.state_dump != refs[0].dump)
    throw SimError("checkpoint probe session diverged from standalone");
  return probe;
}

// ---- Metrics ------------------------------------------------------------------

/// Digest prefix: the first units of every run, whatever --seconds is.
int digest_prefix(const std::string& workload) {
  if (workload == "edit-run") return 64;
  if (workload == "native-cold") return 2;  // one fir/adpcm pair
  return 1;  // one serve batch
}

struct RunOutput {
  Metrics end_to_end, per_layer;
  Metrics tails;  // reported with their sample counts, not gated
  Digest digest;
  double digest_cycles = 0, digest_slots = 0;
  double digest_count = 0;  // trace.formed (edit-run) / native.rounds
  std::string digest_count_name;
};

template <class R, class F>
std::vector<double> collect(const std::vector<R>& recs, bool traced, F f) {
  std::vector<double> out;
  for (const R& r : recs)
    if (r.traced == traced) out.push_back(f(r));
  return out;
}

/// Mean of `f` over the digest-prefix units: the count metrics, which
/// repeat exactly for a given seed.
template <class R, class F>
double prefix_mean(const std::vector<R>& recs, int prefix, F f) {
  double total = 0;
  int n = 0;
  for (const R& r : recs)
    if (n < prefix) {
      total += f(r);
      ++n;
    }
  return n > 0 ? total / n : 0;
}

void setup_metrics(const Tracer& tracer, const std::vector<double>& setup_s,
                   RunOutput& out) {
  out.end_to_end["setup_s"] = {median(setup_s), "s"};
  out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out.per_layer["model.build_ms"] = {
      median(tracer.durations("model.build")) * 1e3, "ms"};
  out.per_layer["decode.build_ms"] = {
      median(tracer.durations("decode.build")) * 1e3, "ms"};
}

/// Every per-layer metric is reported on every workload; a layer the
/// workload does not exercise reads 0.
const char* const kPerLayerNames[][2] = {
    {"asm.ms", "ms"}, {"asm.share", "ratio"}, {"asm.words", "count"},
    {"compile.ms", "ms"}, {"compile.share", "ratio"},
    {"compile.insns_per_s", "1/s"}, {"compile.microops", "count"},
    {"compile.decode_calls", "count"}, {"cache.misses", "count"},
    {"cache.hits", "count"}, {"cache.coalesced", "count"},
    {"cache.hit_ratio", "ratio"}, {"run.ms", "ms"}, {"run.share", "ratio"},
    {"run.ns_per_cycle", "ns"}, {"run.cycles", "count"},
    {"run.slots", "count"}, {"trace.formed", "count"},
    {"trace.cycle_share", "ratio"}, {"trace.side_exit_ratio", "ratio"},
    {"trace.chained_ratio", "ratio"}, {"trace.invalidated", "count"},
    {"native.load_ms", "ms"}, {"native.first_run_ms", "ms"},
    {"native.rounds", "count"}, {"native.compiles", "count"},
    {"native.compile_failures", "count"}, {"native.toolchain_s", "s"},
    {"native.toolchain_share", "ratio"}, {"native.regions", "count"},
    {"native.trace_dispatches", "count"}, {"native.span_dispatches", "count"},
    {"native.stand_downs", "count"}, {"serve.run_all_s", "s"},
    {"serve.quanta", "count"}, {"serve.overhead_frac", "ratio"},
    {"serve.evict_run_all_s", "s"}, {"serve.evict_mips", "MIPS"},
    {"serve.evictions", "count"}, {"serve.rehydrations", "count"},
    {"serve.evict_failures", "count"}, {"serve.checkpoint_ms", "ms"},
    {"serve.restore_ms", "ms"}, {"serve.checkpoint_bytes", "bytes"},
    {"verify.ms", "ms"}, {"span.coverage", "ratio"},
    {"tracing.overhead_frac", "ratio"}, {"traced.units", "count"},
};

void zero_per_layer(Metrics& m) {
  for (const auto& [name, unit] : kPerLayerNames) m[name] = {0, unit};
}

void set(Metrics& m, const char* name, double value) {
  m.at(name).value = value;
}

void job_metrics(const std::vector<JobRecord>& jobs, bool native, int prefix,
                 const Tracer& tracer, RunOutput& out) {
  // End to end, over the untraced jobs (all jobs when tracing is off).
  const bool traced_run = tracer.enabled();
  std::vector<double> latency, steps;
  std::map<int, std::vector<double>> latency_by_kind, steps_by_kind;
  double step_slots = 0, step_time = 0;
  for (const JobRecord& j : jobs) {
    if (j.traced) continue;
    latency.push_back(j.latency);
    steps.insert(steps.end(), j.steps.begin(), j.steps.end());
    latency_by_kind[j.kind].push_back(j.latency);
    auto& kind_steps = steps_by_kind[j.kind];
    kind_steps.insert(kind_steps.end(), j.steps.begin(), j.steps.end());
    if (native) {
      // Steady native dispatch: one run's slots over the job's median
      // rerun, so a preempted rerun does not weigh on the rate.
      step_slots += j.step_slots / static_cast<double>(j.steps.size());
      step_time += median(j.steps);
    } else {
      // Slots per second of whole jobs, source text to verified result.
      step_slots += j.step_slots;
      step_time += j.latency;
    }
  }
  // native-cold's few jobs are half fir, half adpcm: the median of each
  // kind, averaged, keeps the median off the seam between the two.
  auto p50 = [&](const std::vector<double>& all,
                 const std::map<int, std::vector<double>>& by_kind) {
    if (!native) return median(all);
    double total = 0;
    for (const auto& [kind, v] : by_kind) total += median(v);
    return by_kind.empty() ? 0 : total / static_cast<double>(by_kind.size());
  };
  Metrics& e = out.end_to_end;
  e["sim_mips"] = {ratio(step_slots, step_time) / 1e6, "MIPS"};
  e["job_p50_ms"] = {p50(latency, latency_by_kind) * 1e3, "ms"};
  e["step_p50_us"] = {p50(steps, steps_by_kind) * 1e6, "us"};
  Metrics& t = out.tails;
  t["job_p90_ms"] = {percentile(latency, 90) * 1e3, "ms"};
  t["job_p99_ms"] = {percentile(latency, 99) * 1e3, "ms"};
  t["step_p90_us"] = {percentile(steps, 90) * 1e6, "us"};
  t["step_p99_us"] = {percentile(steps, 99) * 1e6, "us"};
  t["jobs"] = {static_cast<double>(latency.size()), "count"};
  t["steps"] = {static_cast<double>(steps.size()), "count"};

  for (int i = 0; i < prefix && i < static_cast<int>(jobs.size()); ++i) {
    out.digest_cycles += static_cast<double>(jobs[i].cycles);
    out.digest_slots += static_cast<double>(jobs[i].slots);
    out.digest_count += static_cast<double>(
        native ? jobs[i].native_steady.rounds : jobs[i].trace.formed);
  }
  out.digest_count_name = native ? "native.rounds" : "trace.formed";
  if (!traced_run) return;

  // Per layer, over the traced jobs.
  Metrics& m = out.per_layer;
  auto traced = [&](auto f) { return collect(jobs, true, f); };
  auto pmean = [&](auto f) { return prefix_mean(jobs, prefix, f); };
  const std::vector<double> job_lat =
      traced([](const JobRecord& j) { return j.latency; });
  const double job_total = sum(job_lat);
  const std::vector<double> asm_s = tracer.durations("asm.assemble");
  const std::vector<double> load_s = tracer.durations("sim.load");
  const std::vector<double> run_s = tracer.durations("sim.run");
  set(m, "asm.ms", median(asm_s) * 1e3);
  set(m, "asm.share", ratio(sum(asm_s), job_total));
  set(m, "asm.words", pmean([](const JobRecord& j) {
        return static_cast<double>(j.words);
      }));
  const double compile_insns = sum(traced([](const JobRecord& j) {
    return static_cast<double>(j.compile.instructions);
  }));
  if (native) {
    // The native load also waits for the first region compile; the table
    // compile alone is what the simulation compiler reports.
    const std::vector<double> table = traced([](const JobRecord& j) {
      return static_cast<double>(j.compile.compile_ns) / 1e9;
    });
    set(m, "compile.ms", median(table) * 1e3);
    set(m, "compile.share", ratio(sum(table), job_total));
    set(m, "compile.insns_per_s", ratio(compile_insns, sum(table)));
  } else {
    set(m, "compile.ms", median(load_s) * 1e3);
    set(m, "compile.share", ratio(sum(load_s), job_total));
    set(m, "compile.insns_per_s", ratio(compile_insns, sum(load_s)));
  }
  set(m, "compile.microops", pmean([](const JobRecord& j) {
        return static_cast<double>(j.compile.microops);
      }));
  set(m, "compile.decode_calls", pmean([](const JobRecord& j) {
        return static_cast<double>(j.compile.decode_calls);
      }));
  set(m, "run.cycles", pmean([](const JobRecord& j) {
        return static_cast<double>(j.cycles);
      }));
  set(m, "run.slots", pmean([](const JobRecord& j) {
        return static_cast<double>(j.slots);
      }));
  if (native) {
    std::vector<double> rerun;
    double rerun_time = 0, rerun_cycles = 0;
    for (const JobRecord& j : jobs)
      if (j.traced) {
        rerun.insert(rerun.end(), j.steps.begin(), j.steps.end());
        rerun_time += sum(j.steps);
        rerun_cycles += static_cast<double>(j.cycles) * kNativeReruns;
      }
    set(m, "run.ms", median(rerun) * 1e3);
    set(m, "run.share", ratio(sum(run_s), job_total));
    set(m, "run.ns_per_cycle", ratio(rerun_time, rerun_cycles) * 1e9);
  } else {
    double cycles = 0;
    for (const JobRecord& j : jobs)
      if (j.traced) cycles += static_cast<double>(j.cycles);
    set(m, "run.ms", median(run_s) * 1e3);
    set(m, "run.share", ratio(sum(run_s), job_total));
    set(m, "run.ns_per_cycle", ratio(sum(run_s), cycles) * 1e9);
  }
  double entries = 0, chained = 0, side_exits = 0, trace_cycles = 0,
         cycles = 0;
  for (const JobRecord& j : jobs)
    if (j.traced) {
      entries += static_cast<double>(j.trace.entries);
      chained += static_cast<double>(j.trace.chained);
      side_exits += static_cast<double>(j.trace.side_exits);
      trace_cycles += static_cast<double>(j.trace.trace_cycles);
      cycles += j.all_cycles;
    }
  set(m, "trace.formed", pmean([](const JobRecord& j) {
        return static_cast<double>(j.trace.formed);
      }));
  set(m, "trace.invalidated", pmean([](const JobRecord& j) {
        return static_cast<double>(j.trace.invalidated);
      }));
  set(m, "trace.cycle_share", ratio(trace_cycles, cycles));
  set(m, "trace.side_exit_ratio", ratio(side_exits, entries));
  set(m, "trace.chained_ratio", ratio(chained, entries));
  set(m, "verify.ms", median(tracer.durations("verify")) * 1e3);
  set(m, "span.coverage", tracer.child_coverage("job"));

  if (native) {
    set(m, "native.load_ms", median(load_s) * 1e3);
    set(m, "native.first_run_ms", median(run_s) * 1e3);
    auto steady = [&](std::uint64_t NativeStats::*field) {
      return pmean([field](const JobRecord& j) {
        return static_cast<double>(j.native_steady.*field);
      });
    };
    set(m, "native.rounds", steady(&NativeStats::rounds));
    set(m, "native.compiles", steady(&NativeStats::compiles));
    set(m, "native.compile_failures", steady(&NativeStats::compile_failures));
    set(m, "native.regions", steady(&NativeStats::regions));
    set(m, "native.trace_dispatches", steady(&NativeStats::trace_dispatches));
    set(m, "native.span_dispatches", steady(&NativeStats::span_dispatches));
    set(m, "native.stand_downs", steady(&NativeStats::stand_downs));
    const std::vector<double> toolchain = traced([](const JobRecord& j) {
      return static_cast<double>(j.cold_toolchain_ns) / 1e9;
    });
    set(m, "native.toolchain_s", median(toolchain));
    set(m, "native.toolchain_share", ratio(sum(toolchain), job_total));
  }
  const std::vector<double> untraced_lat =
      collect(jobs, false, [](const JobRecord& j) { return j.latency; });
  set(m, "tracing.overhead_frac",
      ratio(median(job_lat), median(untraced_lat)) - 1);
  set(m, "traced.units", static_cast<double>(job_lat.size()));
}

void serve_metrics(const std::vector<BatchRecord>& batches,
                   const BatchRecord& evict,
                   const std::vector<Reference>& refs,
                   const CheckpointProbe& probe, const Tracer& tracer,
                   RunOutput& out) {
  std::vector<double> latency, mips, p50, p99;
  for (const BatchRecord& b : batches) {
    if (b.traced) continue;
    latency.push_back(b.latency);
    mips.push_back(ratio(static_cast<double>(b.metrics.total_slots),
                         b.run_all) / 1e6);
    p50.push_back(static_cast<double>(b.metrics.p50_step_ns));
    p99.push_back(static_cast<double>(b.metrics.p99_step_ns));
  }
  // Medians over the batches: one batch disturbed by the host does not
  // move them. Each batch's own step percentiles cover hundreds of quanta.
  Metrics& e = out.end_to_end;
  e["sim_mips"] = {median(mips), "MIPS"};
  e["job_p50_ms"] = {median(latency) * 1e3, "ms"};
  e["step_p50_us"] = {median(p50) / 1e3, "us"};
  Metrics& t = out.tails;
  t["job_p90_ms"] = {percentile(latency, 90) * 1e3, "ms"};
  t["job_p99_ms"] = {percentile(latency, 99) * 1e3, "ms"};
  t["step_p99_us"] = {median(p99) / 1e3, "us"};
  t["jobs"] = {static_cast<double>(latency.size()), "count"};
  t["steps"] = {static_cast<double>(batches.front().metrics.quanta) *
                    static_cast<double>(latency.size()),
                "count"};

  const BatchRecord& first = batches.front();
  out.digest_cycles = static_cast<double>(first.metrics.total_cycles);
  out.digest_slots = static_cast<double>(first.metrics.total_slots);
  out.digest_count = static_cast<double>(first.metrics.quanta);
  out.digest_count_name = "serve.quanta";
  if (!tracer.enabled()) return;

  Metrics& m = out.per_layer;
  auto traced = [&](auto f) { return collect(batches, true, f); };
  const std::vector<double> run_all =
      traced([](const BatchRecord& b) { return b.run_all; });
  const std::vector<double> batch_lat =
      traced([](const BatchRecord& b) { return b.latency; });
  set(m, "serve.run_all_s", median(run_all));
  set(m, "serve.quanta", static_cast<double>(first.metrics.quanta));
  set(m, "serve.overhead_frac",
      median(traced([](const BatchRecord& b) {
        return 1 - ratio(b.standalone, kServeWorkers * b.run_all);
      })));
  set(m, "serve.evict_run_all_s", evict.run_all);
  set(m, "serve.evict_mips",
      ratio(static_cast<double>(evict.metrics.total_slots), evict.run_all) /
          1e6);
  set(m, "serve.evictions", static_cast<double>(evict.metrics.evictions));
  set(m, "serve.rehydrations",
      static_cast<double>(evict.metrics.rehydrations));
  set(m, "serve.evict_failures",
      static_cast<double>(evict.metrics.evict_failures));
  set(m, "serve.checkpoint_ms", median(probe.checkpoint) * 1e3);
  set(m, "serve.restore_ms", median(probe.restore) * 1e3);
  set(m, "serve.checkpoint_bytes", probe.bytes);
  set(m, "cache.misses", static_cast<double>(first.cache.misses));
  set(m, "cache.hits", median(traced([](const BatchRecord& b) {
        return static_cast<double>(b.cache.hits);
      })));
  set(m, "cache.coalesced", median(traced([](const BatchRecord& b) {
        return static_cast<double>(b.cache.coalesced);
      })));
  set(m, "cache.hit_ratio", median(traced([](const BatchRecord& b) {
        return ratio(static_cast<double>(b.cache.hits),
                     static_cast<double>(b.cache.hits + b.cache.misses));
      })));
  // The simulation compiler and engine, measured standalone on the
  // fleet's three programs (the sessions compile through the cache).
  double load = 0, run = 0, cycles = 0, slots_ref = 0, insns = 0,
         microops = 0;
  std::vector<double> load_ms, run_ms;
  for (const Reference& r : refs) {
    load += r.load_seconds;
    run += r.run_seconds;
    load_ms.push_back(r.load_seconds * 1e3);
    run_ms.push_back(r.run_seconds * 1e3);
    cycles += static_cast<double>(r.result.cycles);
    slots_ref += static_cast<double>(r.result.slots_retired);
    insns += static_cast<double>(r.compile.instructions);
    microops += static_cast<double>(r.compile.microops);
  }
  const double n = static_cast<double>(refs.size());
  set(m, "compile.ms", median(load_ms));
  set(m, "compile.share", ratio(load, load + run));
  set(m, "compile.insns_per_s", ratio(insns, load));
  set(m, "compile.microops", microops / n);
  set(m, "compile.decode_calls", sum([&] {
        std::vector<double> v;
        for (const Reference& r : refs)
          v.push_back(static_cast<double>(r.compile.decode_calls));
        return v;
      }()) / n);
  set(m, "run.ms", median(run_ms));
  set(m, "run.share", ratio(run, load + run));
  set(m, "run.ns_per_cycle", ratio(run, cycles) * 1e9);
  set(m, "run.cycles", cycles / n);
  set(m, "run.slots", slots_ref / n);
  set(m, "verify.ms", median(tracer.durations("verify")) * 1e3);
  set(m, "span.coverage", tracer.child_coverage("job"));
  const std::vector<double> untraced_lat =
      collect(batches, false, [](const BatchRecord& b) { return b.latency; });
  set(m, "tracing.overhead_frac",
      ratio(median(batch_lat), median(untraced_lat)) - 1);
  set(m, "traced.units", static_cast<double>(batch_lat.size()));
}

// ---- Entry point ----------------------------------------------------------------

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload edit-run|serve-static|native-cold --seed N --seconds S --trace 0|1 --scratch DIR "
               "[--spans FILE]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--scratch") opt.scratch = value;
    else if (key == "--spans") opt.spans = value;
    else return false;
  }
  static const std::set<std::string> known = {"edit-run", "serve-static",
                                              "native-cold"};
  return argc % 2 == 1 && known.count(opt.workload) != 0 &&
         !opt.scratch.empty() && opt.seconds > 0;
}

void run_workload(const Options& opt, RunTotals& totals, RunOutput& out,
                  std::string& toolchain) {
  Tracer tracer(opt.trace);
  tracer.set_active(true);
  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    setup = build_setup(opt, tracer, rep);
    setup_s.push_back(seconds_since(t0));
  }
  toolchain = setup.toolchain;
  zero_per_layer(out.per_layer);
  setup_metrics(tracer, setup_s, out);

  const int prefix = digest_prefix(opt.workload);
  const Clock::time_point start = Clock::now();
  // A traced run needs traced and untraced units; native-cold ends on a
  // whole fir/adpcm pair.
  const int min_units = std::max(prefix, opt.trace ? 4 : 1);
  auto more = [&](int done) {
    if (done < min_units) return true;
    if (opt.workload == "native-cold" && done % 2 != 0) return true;
    return seconds_since(start) < opt.seconds;
  };

  if (opt.workload == "edit-run" || opt.workload == "native-cold") {
    const bool native = opt.workload == "native-cold";
    support::SplitMix64 rng(opt.seed);
    std::set<std::tuple<int, int, int>> drawn;  // distinct native programs
    std::vector<JobRecord> jobs;
    for (int i = 0; more(i); ++i) {
      JobSpec spec = draw_job(rng, static_cast<std::uint64_t>(i),
                              native ? 2 : 3);
      while (native && !drawn.insert({spec.kind, spec.a, spec.b}).second)
        spec = draw_job(rng, static_cast<std::uint64_t>(i), 2);
      const workloads::Workload w = make_job(spec);  // the client's edit
      // Traced and untraced jobs come in pairs, so native-cold's fir/adpcm
      // alternation puts both kinds on each side.
      tracer.set_active(i / 2 % 2 == 0);
      ++totals.attempted;
      Digest* digest = i < prefix ? &out.digest : nullptr;
      if (digest) {
        digest->add(static_cast<std::uint64_t>(spec.kind));
        digest->add(static_cast<std::uint64_t>(spec.a));
        digest->add(static_cast<std::uint64_t>(spec.b));
      }
      try {
        jobs.push_back(run_job(setup, w, native, static_cast<std::uint64_t>(i),
                               tracer, digest));
        jobs.back().kind = spec.kind;
      } catch (const std::exception& e) {
        totals.fail(std::string(kind_name(spec.kind)) + " job " +
                    std::to_string(i) + ": " + e.what());
      }
    }
    if (jobs.empty()) return;
    job_metrics(jobs, native, prefix, tracer, out);
  } else {
    tracer.set_active(true);
    const std::vector<Reference> refs = standalone_references(setup, tracer);
    const std::vector<int> fleet = draw_fleet(opt.seed);
    std::vector<BatchRecord> batches;
    for (int b = 0; more(b); ++b) {
      tracer.set_active(b % 2 == 1);  // batch 0 (the digest) untraced
      ++totals.attempted;
      try {
        batches.push_back(run_batch(setup, refs, fleet, 0, "",
                                    static_cast<std::uint64_t>(b), tracer,
                                    b < prefix ? &out.digest : nullptr));
      } catch (const std::exception& e) {
        totals.fail("batch " + std::to_string(b) + ": " + e.what());
      }
    }
    BatchRecord evict;
    CheckpointProbe probe;
    if (opt.trace) {
      // The eviction path, per layer only: one more batch squeezed through
      // 12 resident slots, so nearly every quantum checkpoints one session
      // to disk and restores another. Its run-to-run spread on a shared
      // disk is too wide to gate (see README.md).
      tracer.set_active(false);
      ++totals.attempted;
      try {
        evict = run_batch(setup, refs, fleet, kEvictResident,
                          opt.scratch + "/evict", batches.size(), tracer,
                          nullptr);
      } catch (const std::exception& e) {
        totals.fail(std::string("evicting batch: ") + e.what());
      }
      tracer.set_active(true);
      ++totals.attempted;
      try {
        probe = probe_checkpoints(setup, refs, opt.scratch, tracer);
      } catch (const std::exception& e) {
        totals.fail(std::string("checkpoint probe: ") + e.what());
      }
    }
    if (batches.empty()) return;
    serve_metrics(batches, evict, refs, probe, tracer, out);
  }
  out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  if (opt.trace && !opt.spans.empty()) tracer.write(opt.spans);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return usage(argv[0]);
  } catch (const std::exception&) {
    return usage(argv[0]);
  }

  RunTotals totals;
  RunOutput out;
  std::string toolchain;
  try {
    run_workload(opt, totals, out, toolchain);
  } catch (const std::exception& e) {
    // Setup itself failed: nothing was measured.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const std::string& e : totals.errors)
    std::fprintf(stderr, "failed: %s\n", e.c_str());

  char digest[256];
  std::snprintf(digest, sizeof digest,
                "{\"hash\": \"%016llx\", \"cycles\": %.0f, \"slots\": %.0f, "
                "\"%s\": %.0f}",
                static_cast<unsigned long long>(out.digest.value()),
                out.digest_cycles, out.digest_slots,
                out.digest_count_name.c_str(), out.digest_count);
  std::printf(
      "{\"attempted\": %llu, \"failed\": %llu, \"end_to_end\": %s, "
      "\"tails\": %s, \"per_layer\": %s, \"digest\": %s, "
      "\"toolchain\": \"%s\"}\n",
      static_cast<unsigned long long>(totals.attempted),
      static_cast<unsigned long long>(totals.failed),
      json_metrics(out.end_to_end).c_str(), json_metrics(out.tails).c_str(),
      json_metrics(out.per_layer).c_str(), digest,
      json_escape(toolchain).c_str());
  return 0;
}
