// In-process half of the CLA benchmark. run.py drives the CLI tools and
// the plain app as child processes; everything that has to call into the
// library directly lives here, one subcommand per job:
//
//   probe radiosity --seed S --out F   sim run + v3 write (workload set-up)
//   probe info F                       events / dropped / bytes of a trace
//   probe live --trace F --appends N --out F
//                                      incremental append + report_json
//   probe runtime --ops N --dir D      Recorder hot path at 1 and 4 threads
//   probe stages --trace F --dir D [--write F2]
//                                      Pipeline stages on F; writer
//                                      throughput on F2's events
//
// Each subcommand prints one JSON object on stdout. With --spans FILE the
// subcommand also records a span (name, start, end, parent, run id)
// around every call into a CLA layer, keeps them in memory and writes
// them out as JSON lines when it ends; run.py derives the per-layer
// metrics and self times from them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cla/analysis/incremental.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/runtime/recorder.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/util/clock.hpp"
#include "cla/workloads/workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ---- spans ----------------------------------------------------------------

struct Span {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int parent = -1;
};

class Tracer {
 public:
  void open(std::string path, std::string run_id) {
    path_ = std::move(path);
    run_id_ = std::move(run_id);
  }
  bool on() const noexcept { return !path_.empty(); }

  int begin(const std::string& name) {
    if (!on()) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, wall_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = wall_ns();
    stack_.pop_back();
  }

  // Called once, when the subcommand ends.
  void write() const {
    if (!on()) return;
    std::ofstream out(path_, std::ios::app);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"run\": \"" << run_id_ << "\", \"id\": " << i
          << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start
          << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent
          << "}\n";
    }
  }

 private:
  std::string path_;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

class Scope {
 public:
  explicit Scope(const std::string& name) : id_(g_tracer.begin(name)) {}
  ~Scope() { g_tracer.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ---- arguments --------------------------------------------------------------

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& name, const std::string& fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  std::uint64_t num(const std::string& name, std::uint64_t fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::stoull(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string word = argv[i];
    if (word.rfind("--", 0) == 0 && i + 1 < argc) {
      args.flags[word.substr(2)] = argv[++i];
    } else {
      args.positional.push_back(word);
    }
  }
  return args;
}

std::string json_list(const std::vector<std::uint64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

// ---- subcommands ------------------------------------------------------------

// Workload set-up: the radiosity sim (16 virtual threads on one OS
// thread) written once as a v3 file.
int cmd_radiosity(const Args& args) {
  cla::workloads::WorkloadConfig config;
  config.threads = static_cast<std::uint32_t>(args.num("threads", 16));
  config.scale = static_cast<double>(args.num("scale", 32));
  config.seed = args.num("seed", 1);
  const std::string out = args.get("out", "radiosity.clat");

  std::uint64_t t0 = wall_ns();
  cla::workloads::WorkloadResult result;
  {
    Scope span("sim.generate");
    result = cla::workloads::run_workload("radiosity", config);
  }
  const std::uint64_t t1 = wall_ns();
  {
    Scope span("trace.write_file_v3");
    cla::trace::write_trace_file(result.trace, out, cla::trace::kTraceVersionV3);
  }
  const std::uint64_t t2 = wall_ns();
  std::printf("{\"events\": %zu, \"sim_ns\": %llu, \"write_ns\": %llu}\n",
              result.trace.event_count(),
              static_cast<unsigned long long>(t1 - t0),
              static_cast<unsigned long long>(t2 - t1));
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.empty()) return 2;
  cla::trace::MappedTrace mapped(args.positional[0]);
  const cla::trace::TraceView& view = mapped.view();
  std::printf(
      "{\"events\": %zu, \"dropped\": %llu, \"bytes\": %zu, "
      "\"version\": %u}\n",
      view.event_count(),
      static_cast<unsigned long long>(view.dropped_events()),
      mapped.file_bytes(), mapped.version());
  return 0;
}

// The live phase: every thread's stream cut into `appends` equal pieces;
// each refresh is one append plus report_json(), which is what
// cla-monitor does on each poll.
int cmd_live(const Args& args) {
  const std::string path = args.get("trace", "");
  const std::size_t rounds = args.num("appends", 32);
  const std::string out = args.get("out", "");
  const cla::trace::Trace trace = cla::trace::read_trace_file(path);

  std::vector<cla::trace::Trace> chunks(rounds);
  for (const auto& [id, name] : trace.object_names()) {
    chunks[0].set_object_name(id, name);
  }
  for (const auto& [tid, name] : trace.thread_names()) {
    chunks[0].set_thread_name(tid, name);
  }
  std::vector<std::uint64_t> appended(rounds, 0);
  for (cla::trace::ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto events = trace.thread_events(tid);
    std::size_t done = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::size_t until = events.size() * (round + 1) / rounds;
      chunks[round].append_thread_events(tid,
                                         events.subspan(done, until - done));
      appended[round] += until - done;
      done = until;
    }
  }

  std::vector<std::uint64_t> refresh_ns, append_ns, report_ns, retained,
      rescanned;
  std::string final_json;
  cla::analysis::Options options;
  options.validate = false;  // mid-stream chunks have no clean exits
  cla::analysis::IncrementalAnalyzer analyzer(options);
  for (const cla::trace::Trace& chunk : chunks) {
    Scope refresh("live.refresh");
    const std::uint64_t t0 = wall_ns();
    {
      Scope span("analysis.append");
      analyzer.append(chunk);
    }
    const std::uint64_t t1 = wall_ns();
    {
      Scope span("analysis.report_json");
      final_json = analyzer.report_json();
    }
    const std::uint64_t t2 = wall_ns();
    refresh_ns.push_back(t2 - t0);
    append_ns.push_back(t1 - t0);
    report_ns.push_back(t2 - t1);
    retained.push_back(analyzer.retained_segments());
    rescanned.push_back(analyzer.rescanned_segments());
  }
  if (!out.empty()) std::ofstream(out, std::ios::binary) << final_json;
  std::printf(
      "{\"events\": %zu, \"appended\": %s, \"refresh_ns\": %s, "
      "\"append_ns\": %s, \"report_ns\": %s, \"retained\": %s, "
      "\"rescanned\": %s}\n",
      trace.event_count(), json_list(appended).c_str(),
      json_list(refresh_ns).c_str(), json_list(append_ns).c_str(),
      json_list(report_ns).c_str(), json_list(retained).c_str(),
      json_list(rescanned).c_str());
  return 0;
}

// The interposer's record path: Recorder::record in streaming mode with
// the interposer's default buffer size and trace format.
struct RecordRun {
  std::uint64_t calls = 0;
  std::uint64_t loop_ns = 0;  // summed over threads
  std::uint64_t dropped = 0;
  std::uint64_t finish_ns = 0;
};

RecordRun record_loop(const std::string& path, unsigned threads,
                      std::uint64_t ops) {
  constexpr std::size_t kInterposerBufferEvents = 16384;
  cla::rt::Recorder recorder;
  recorder.start_streaming(path, kInterposerBufferEvents);
  std::vector<std::uint64_t> loop_ns(threads, 0);
  {
    Scope span("runtime.record_loop.t" + std::to_string(threads));
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&recorder, &loop_ns, t, ops] {
        recorder.ensure_current_thread();
        const cla::trace::ObjectId mutex = 0x1000 + t;
        const std::uint64_t start = wall_ns();
        for (std::uint64_t i = 0; i < ops; ++i) {
          recorder.record(cla::trace::EventType::MutexAcquire, mutex);
          recorder.record(cla::trace::EventType::MutexAcquired, mutex, 0);
          recorder.record(cla::trace::EventType::MutexReleased, mutex);
        }
        loop_ns[t] = wall_ns() - start;
        recorder.thread_exit();
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  RecordRun run;
  run.calls = 3 * ops * threads;
  for (std::uint64_t ns : loop_ns) run.loop_ns += ns;
  run.dropped = recorder.dropped_events();
  const std::uint64_t t0 = wall_ns();
  {
    Scope span("runtime.finish_streaming");
    recorder.finish_streaming();
  }
  run.finish_ns = wall_ns() - t0;
  return run;
}

int cmd_runtime(const Args& args) {
  const std::uint64_t ops = args.num("ops", 500000);
  const std::string dir = args.get("dir", ".");

  constexpr std::uint64_t kClockCalls = 2000000;
  std::uint64_t sink = 0;
  const std::uint64_t c0 = wall_ns();
  {
    Scope span("util.now_ns");
    for (std::uint64_t i = 0; i < kClockCalls; ++i) sink += cla::util::now_ns();
  }
  const std::uint64_t clock_ns = wall_ns() - c0;

  const RecordRun t1 = record_loop(dir + "/record_t1.clat", 1, ops);
  const RecordRun t4 = record_loop(dir + "/record_t4.clat", 4, ops);
  std::printf(
      "{\"clock_calls\": %llu, \"clock_ns\": %llu, \"t1_calls\": %llu, "
      "\"t1_loop_ns\": %llu, \"t1_dropped\": %llu, \"t1_finish_ns\": %llu, "
      "\"t4_calls\": %llu, \"t4_loop_ns\": %llu, \"t4_dropped\": %llu, "
      "\"t4_finish_ns\": %llu, \"sink\": %llu}\n",
      static_cast<unsigned long long>(kClockCalls),
      static_cast<unsigned long long>(clock_ns),
      static_cast<unsigned long long>(t1.calls),
      static_cast<unsigned long long>(t1.loop_ns),
      static_cast<unsigned long long>(t1.dropped),
      static_cast<unsigned long long>(t1.finish_ns),
      static_cast<unsigned long long>(t4.calls),
      static_cast<unsigned long long>(t4.loop_ns),
      static_cast<unsigned long long>(t4.dropped),
      static_cast<unsigned long long>(t4.finish_ns),
      static_cast<unsigned long long>(sink & 1));
  return 0;
}

// Writer throughput: a trace's events re-appended through
// ChunkedTraceWriter in the flusher's batch size.
std::uint64_t write_pass(const cla::trace::Trace& trace,
                         const std::string& path, std::uint32_t version) {
  constexpr std::size_t kBatch = 16384;
  Scope span(version == cla::trace::kTraceVersionV3 ? "trace.write_v3"
                                                     : "trace.write_v2");
  const std::uint64_t t0 = wall_ns();
  {
    cla::trace::ChunkedTraceWriter writer(path, version);
    for (cla::trace::ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
      const auto events = trace.thread_events(tid);
      for (std::size_t at = 0; at < events.size(); at += kBatch) {
        writer.write_events(tid, events.data() + at,
                            std::min(kBatch, events.size() - at));
      }
    }
    writer.write_meta(0, true);
  }
  return wall_ns() - t0;
}

struct StageRun {
  std::map<std::string, std::uint64_t> ns;
  std::uint64_t jumps = 0;
  std::uint64_t misses = 0;
};

// Each stage called on its own, in order, so a stage's span holds only
// its own work (the prerequisites already ran).
StageRun stage_pass(const std::string& path, unsigned workers,
                    bool with_report) {
  cla::analysis::Options options;
  options.execution.num_threads = workers;
  cla::analysis::Pipeline pipeline(options);
  StageRun run;
  const std::string suffix = ".w" + std::to_string(workers);
  auto timed = [&](const std::string& name, auto&& call) {
    Scope span(name + suffix);
    const std::uint64_t t0 = wall_ns();
    call();
    run.ns[name] = wall_ns() - t0;
  };
  timed("trace.load", [&] { pipeline.load_file(path); });
  timed("trace.validate", [&] { pipeline.validate_stage(); });
  timed("analysis.index", [&] { pipeline.index_stage(); });
  timed("analysis.builddag", [&] { pipeline.dag_stage(); });
  timed("analysis.walk", [&] { pipeline.walk_stage(); });
  timed("analysis.stats", [&] { pipeline.stats_stage(); });
  if (with_report) {
    timed("analysis.report", [&] { (void)pipeline.report_json(); });
  }
  run.jumps = pipeline.dag_walk_stats().jumps_taken;
  run.misses = pipeline.dag_walk_stats().speculation_misses;
  return run;
}

int cmd_stages(const Args& args) {
  const std::string path = args.get("trace", "");
  const std::string dir = args.get("dir", ".");
  const std::string write_path = args.get("write", "");

  std::uint64_t write_events = 0, write_v2_ns = 0, write_v3_ns = 0;
  if (!write_path.empty()) {
    cla::trace::MappedTrace mapped(write_path);
    write_events = mapped.view().event_count();
    const cla::trace::Trace trace = mapped.view().materialize();
    write_v2_ns = write_pass(trace, dir + "/write_v2.clat",
                             cla::trace::kTraceVersion);
    write_v3_ns = write_pass(trace, dir + "/write_v3.clat",
                             cla::trace::kTraceVersionV3);
  }

  const StageRun w1 = stage_pass(path, 1, true);
  const StageRun w4 = stage_pass(path, 4, false);

  cla::analysis::Options bounded_options;
  bounded_options.execution.num_threads = 4;
  bounded_options.limits.max_rss_mb = 64;
  cla::analysis::Pipeline bounded(bounded_options);
  std::uint64_t bounded_ns = 0;
  {
    Scope load("trace.load.bounded");
    bounded.load_file(path);
  }
  {
    Scope validate("trace.validate.bounded");
    bounded.validate_stage();
  }
  {
    Scope span("analysis.bounded_stats");
    const std::uint64_t t0 = wall_ns();
    bounded.stats_stage();
    bounded_ns = wall_ns() - t0;
  }
  const std::uint64_t events = bounded.view().event_count();

  std::string stages = "{";
  for (const auto* run : {&w1, &w4}) {
    const char* tag = run == &w1 ? "w1" : "w4";
    for (const auto& [name, ns] : run->ns) {
      if (stages.size() > 1) stages += ", ";
      stages += "\"" + name + "." + tag + "\": " + std::to_string(ns);
    }
  }
  stages += "}";
  std::printf(
      "{\"events\": %llu, \"stage_ns\": %s, \"jumps_taken\": %llu, "
      "\"speculation_misses\": %llu, \"bounded_ns\": %llu, "
      "\"bounded_peak_bytes\": %llu, \"write_v2_ns\": %llu, "
      "\"write_v3_ns\": %llu, \"write_events\": %llu, "
      "\"event_bytes\": %zu}\n",
      static_cast<unsigned long long>(events), stages.c_str(),
      static_cast<unsigned long long>(w4.jumps),
      static_cast<unsigned long long>(w4.misses),
      static_cast<unsigned long long>(bounded_ns),
      static_cast<unsigned long long>(bounded.streaming_peak_bytes()),
      static_cast<unsigned long long>(write_v2_ns),
      static_cast<unsigned long long>(write_v3_ns),
      static_cast<unsigned long long>(write_events), sizeof(cla::trace::Event));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: probe radiosity|info|live|runtime|stages [args]\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv);
  g_tracer.open(args.get("spans", ""), args.get("run-id", ""));
  int rc = 2;
  try {
    if (command == "radiosity") {
      rc = cmd_radiosity(args);
    } else if (command == "info") {
      rc = cmd_info(args);
    } else if (command == "live") {
      rc = cmd_live(args);
    } else if (command == "runtime") {
      rc = cmd_runtime(args);
    } else if (command == "stages") {
      rc = cmd_stages(args);
    } else {
      std::fprintf(stderr, "probe: unknown command '%s'\n", command.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "probe: %s\n", e.what());
    rc = 1;
  }
  g_tracer.write();
  return rc;
}
