#!/usr/bin/env python3
"""The CLA benchmark: one command, two workloads, end to end and per layer.

    python3 clabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the program from source
(Release, under .bench_build/), makes the workload's inputs from --seed,
measures for --seconds and checks every output. It prints a table of every
metric (median, tail percentile, sample count) and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
the separate traced run: spans around every call into a CLA layer give
the per-layer metrics, each layer's self time and the tracing overhead.

Every workload runs the same three phases, so each one reports every
metric (see README.md for why): after set-up, cycles of the three
phases for --seconds.
  record  the benchmark's own pthread app, plain and under the LD_PRELOAD
          interposer with its defaults, interleaved
  batch   the three cla-analyze legs (w1, w4, bounded) on one trace
  live    the radiosity sim trace fed to IncrementalAnalyzer in 32 appends
The workloads differ in the batch phase's input:
  interpose-4t  the v2 trace the interposer just wrote for the app
  radiosity     the radiosity sim trace (v3)

Exit status: 0 when every check passed, 1 when a check failed or the
build failed (no result line is printed when nothing could be measured).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
CHILD_TIMEOUT_S = 120

# The app: closed loop of 4 threads x ~500k operations each; APP_PAIRS
# plain + interposed pairs per cycle.
APP_THREADS = 4
APP_OPS = 500000
APP_PAIRS = 2
APP_WARMUP_NS = 1000000000
# The radiosity trace: 16 virtual threads, --scale 32.
RADIOSITY_THREADS = 16
RADIOSITY_SCALE = 32
LIVE_APPENDS = 32
# Set-up repeats per run (setup_s is their median); one costs ~2 s.
SETUP_REPEATS = 3
BOUNDED_MB = 64

# The legs run in this order, always: the two 4-thread legs right after
# the 4-thread app, while the vCPUs are awake (see record_phase), and each
# leg after the same predecessor in every cycle.
LEGS = [
    ("w4", ["--threads", "4"]),
    ("bounded", ["--threads", "4", "--max-rss-mb", str(BOUNDED_MB)]),
    ("w1", ["--threads", "1"]),
]
# cla-analyze exits 0, or 3 for a lossy report (expected when the recorder
# counted drops); 1, 2, 4, 5 or a signal mean the analysis failed.
ANALYZE_OK_EXITS = (0, 3)

# Events the interposer records per app-level pthread call (interpose.cpp):
# lock+unlock = Acquire, Acquired, Released; barrier = Arrive, Leave;
# cond_wait = Released, WaitBegin, WaitEnd, Acquire, Acquired;
# broadcast = 1; per worker ThreadCreate, ThreadStart, ThreadExit,
# JoinBegin, JoinEnd; plus the main thread's ThreadStart and the ThreadExit
# the recorder writes for it at exit.
EVENTS_PER = {"lock_pairs": 3, "barrier_waits": 2, "cond_waits": 5,
              "cond_wakes": 1, "threads_created": 5}
EVENTS_PER_RUN = 2


def now():
    return time.monotonic_ns()


class Spans:
    """Spans kept in memory and written out once, when the run ends."""

    def __init__(self, enabled, run_id):
        self.enabled = enabled
        self.run_id = run_id
        self.spans = []
        self.stack = []

    def begin(self, name):
        if not self.enabled:
            return -1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append({"run": self.run_id, "id": len(self.spans),
                           "name": name, "start_ns": now(), "end_ns": 0,
                           "parent": parent})
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, span_id):
        if span_id < 0:
            return
        self.spans[span_id]["end_ns"] = now()
        self.stack.pop()

    def adopt(self, path):
        """Re-parents a probe's span file under the current span."""
        if not self.enabled or not os.path.exists(path):
            return
        parent = self.stack[-1] if self.stack else -1
        base = len(self.spans)
        with open(path) as f:
            for line in f:
                s = json.loads(line)
                s["id"] += base
                s["parent"] = parent if s["parent"] < 0 else s["parent"] + base
                self.spans.append(s)
        os.remove(path)

    def self_times(self):
        """name -> [count, total ns, self ns]; self = span minus the part
        of it its child spans cover."""
        children = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered, cursor = 0, s["start_ns"]
            for c in sorted(children.get(s["id"], []),
                            key=lambda c: c["start_ns"]):
                lo, hi = max(c["start_ns"], cursor), min(c["end_ns"],
                                                         s["end_ns"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = out.setdefault(s["name"], [0, 0, 0])
            row[0] += 1
            row[1] += s["end_ns"] - s["start_ns"]
            row[2] += s["end_ns"] - s["start_ns"] - covered
        return out


class Run:
    def __init__(self, args, root, tmp, spans):
        self.args = args
        self.tmp = tmp
        self.spans = spans
        self.build = os.path.join(root, BUILD_ROOT, "clabench")
        self.samples = {}
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.analyses = 0
        self.failed_analyses = 0
        self.notes = []
        self.deadline = 0
        self.cycles = 0

    # ---- bookkeeping -------------------------------------------------------

    def check(self, ok, what, analysis=False):
        self.attempted += 1
        if analysis:
            self.analyses += 1
        if not ok:
            self.failed += 1
            if analysis:
                self.failed_analyses += 1
            self.notes.append("CHECK FAILED: " + what)
        return ok

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def median_metric(self, name, unit):
        values = self.samples.get(name, [])
        if values:
            self.metric(name, statistics.median(values), unit)

    def path(self, name):
        return os.path.join(self.tmp, name)

    def tool(self, *parts):
        return os.path.join(self.build, *parts)

    def time_left(self, cycle_ns):
        """True while at least half of a cycle of this length still fits,
        so a run overshoots --seconds by at most half a cycle."""
        return now() + cycle_ns // 2 <= self.deadline

    # ---- children ------------------------------------------------------------

    def child(self, argv, span, env=None, stdout_name=None, spans_file=None):
        """Runs one child; returns (exit code, wall ns, maxrss KiB, stdout).
        Its rusage comes from wait4 on that child alone. The spans a probe
        child wrote to `spans_file` become children of this span."""
        out_path = self.path(stdout_name or "child.out")
        sid = self.spans.begin(span)
        with open(out_path, "wb") as out, open(self.path("child.err"),
                                               "ab") as err:
            start = now()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=self.tmp)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = now() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if spans_file is not None:
            self.spans.adopt(spans_file)
        self.spans.end(sid)
        with open(out_path, "rb") as f:
            data = f.read()
        return proc.returncode, wall, usage.ru_maxrss, data

    def probe(self, argv, span):
        spans_file = self.path("probe.spans")
        extra = ["--spans", spans_file, "--run-id", self.spans.run_id] \
            if self.spans.enabled else []
        rc, wall, _, data = self.child([self.tool("probe")] + argv + extra,
                                       span, spans_file=spans_file)
        if rc != 0:
            raise RuntimeError("probe %s failed with exit %d: %s" %
                               (argv[0], rc, self.stderr_tail()))
        return json.loads(data.decode().strip().splitlines()[-1]), wall

    def stderr_tail(self):
        try:
            with open(self.path("child.err"), "rb") as f:
                return f.read()[-400:].decode(errors="replace")
        except OSError:
            return ""

    # ---- the three cla-analyze legs --------------------------------------------

    def analyze_legs(self, trace, expected_digest=None):
        """One sample of each leg; returns the w1 JSON bytes (or None)."""
        outputs = {}
        for leg, flags in LEGS:
            rc, wall, rss_kb, data = self.child(
                [self.tool("cla", "tools", "cla-analyze"), trace,
                 "--report", "json"] + flags,
                "cli.cla_analyze." + leg, stdout_name="report_%s.json" % leg)
            ok = rc in ANALYZE_OK_EXITS
            try:
                report = json.loads(data)
                ok = ok and report.get("schema") == 2 and bool(
                    report.get("locks"))
            except ValueError:
                ok = False
            if self.check(ok, "cla-analyze %s on %s exited %d" %
                          (leg, os.path.basename(trace), rc), analysis=True):
                outputs[leg] = data
                self.sample("report_ms_" + leg, wall / 1e6)
                if leg != "w1":
                    self.sample("peak_rss_mb_" + leg, rss_kb / 1024.0)
        if len(outputs) == 3:
            same = outputs["w1"] == outputs["w4"] == outputs["bounded"]
            self.check(same, "cla-analyze legs disagree on " + trace,
                       analysis=True)
        w1 = outputs.get("w1")
        if w1 is not None and expected_digest is not None:
            digest = hashlib.sha256(w1).hexdigest()
            self.check(digest == expected_digest,
                       "report digest %s != pinned %s" %
                       (digest, expected_digest), analysis=True)
        return w1

    def report_metrics(self):
        for leg, _ in LEGS:
            self.median_metric("report_ms_" + leg, "ms")
        self.median_metric("peak_rss_mb_w4", "MB")
        self.median_metric("peak_rss_mb_bounded", "MB")

    # ---- the record phase: the app, plain and under the interposer ------------

    def app_argv(self):
        return [self.tool("lockapp"), "--threads", str(APP_THREADS),
                "--ops", str(self.app_ops()), "--seed", str(self.args.seed)]

    def app_ops(self):
        return 20000 if self.args.smoke else APP_OPS

    def app_plain(self):
        rc, wall, _, data = self.child(self.app_argv(), "app.plain")
        ok = self.check(rc == 0, "plain app exited %d" % rc)
        return (json.loads(data) if ok else None), wall

    def app_recorded(self, trace):
        env = dict(os.environ)
        for var in list(env):
            if var.startswith("CLA_"):
                del env[var]
        env["CLA_TRACE_FILE"] = trace
        env["LD_PRELOAD"] = self.tool("cla", "src", "cla", "runtime",
                                      "libcla_interpose.so")
        if os.path.exists(trace):
            os.remove(trace)
        rc, wall, _, data = self.child(self.app_argv(), "app.interposed",
                                       env=env)
        ok = self.check(rc == 0 and os.path.exists(trace),
                        "interposed app exited %d" % rc)
        return (json.loads(data) if ok else None), wall

    def app_pair(self, index, trace):
        """Plain and interposed runs of the same app and seed; the order
        alternates between pairs."""
        if index % 2 == 0:
            plain, plain_ns = self.app_plain()
            counts, inst_ns = self.app_recorded(trace)
        else:
            counts, inst_ns = self.app_recorded(trace)
            plain, plain_ns = self.app_plain()
        return plain, plain_ns, counts, inst_ns

    def check_recording(self, plain, counts, trace):
        """recorded + dropped must equal what the app's own counters imply,
        and the interposed app must compute what the plain one does."""
        if plain is None or counts is None:
            return None
        self.check(plain["checksum"] == counts["checksum"],
                   "interposed app computed a different checksum")
        info, _ = self.probe(["info", trace], "probe.info")
        implied = EVENTS_PER_RUN + sum(counts[k] * n
                                       for k, n in EVENTS_PER.items())
        # A worker's ThreadExit is attempted by its start trampoline and,
        # if that one was dropped, again by its TSD destructor; if both were
        # dropped, finish_streaming writes a third. Each dropped attempt is
        # counted, so recorded + dropped may exceed the app's count by up to
        # two per worker; it must never fall short of it.
        over = info["events"] + info["dropped"] - implied
        limit = 2 * counts["threads_created"]
        self.check(0 <= over <= limit,
                   "recorded %d + dropped %d - %d implied by app counters "
                   "= %d, outside [0, %d]" %
                   (info["events"], info["dropped"], implied, over, limit))
        self.sample("runtime.exit_overcount", over)
        return info

    def record_phase(self, cycle):
        """Untimed plain launches for APP_WARMUP_NS, then APP_PAIRS
        interleaved pairs; the last trace is kept for the batch phase of
        interpose-4t. The warm-up matters on a virtual machine: after a
        mostly single-threaded phase the first launch of the 4-thread app
        ran up to 3x and the second up to 1.8x slower than the ones after
        them."""
        start = now()
        while True:
            self.app_plain()
            if now() - start >= APP_WARMUP_NS:
                break
        for p in range(APP_PAIRS):
            plain, plain_ns, counts, inst_ns = self.app_pair(
                cycle * APP_PAIRS + p, self.app_trace)
            info = self.check_recording(plain, counts, self.app_trace)
            if info is None:
                continue
            self.sample("app_wall_ms", inst_ns / 1e6)
            self.sample("control.app_plain_ms", plain_ns / 1e6)
            self.sample("record_overhead_x", inst_ns / plain_ns)
            self.sample("runtime.added_ns_per_op",
                        (inst_ns - plain_ns) / self.app_ops())
            total = info["events"] + info["dropped"]
            self.sample("record_drop_frac", info["dropped"] / total)
            self.sample("app_bytes_per_event", info["bytes"] / info["events"])

    # ---- the live phase: the radiosity trace in incremental appends ------------

    def live_phase(self):
        out = self.path("live.json")
        info, _ = self.probe(["live", "--trace", self.radiosity_trace,
                              "--appends", str(LIVE_APPENDS), "--out", out],
                             "probe.live")
        with open(out, "rb") as f:
            final = f.read()
        ok = final == self.radiosity_report
        if not self.check(ok, "final incremental report differs from the "
                          "batch report", analysis=True):
            return
        for ns in info["refresh_ns"]:
            self.sample("refresh_ms", ns / 1e6)
        self.sample("live_total_ns", sum(info["refresh_ns"]))
        self.sample("live_events", info["events"])
        self.live_info = info

    # ---- set-up --------------------------------------------------------------------

    def setup(self):
        """Builds the run's inputs SETUP_REPEATS times: one radiosity sim
        run plus its v3 write, and one warm-up launch of the app under the
        interposer. setup_s is the median of the repeats; every repeat must
        write the same radiosity bytes. A plain launch before them is a
        warm-up too and is not timed."""
        self.app_trace = self.path("app.clat")
        self.radiosity_trace = self.path("radiosity.clat")
        self.app_plain()
        digests = set()
        scale = 2 if self.args.smoke else RADIOSITY_SCALE
        for i in range(SETUP_REPEATS):
            path = self.path("radiosity_%d.clat" % i)
            start = now()
            info, _ = self.probe(
                ["radiosity", "--seed", str(self.args.seed), "--threads",
                 str(RADIOSITY_THREADS), "--scale", str(scale), "--out",
                 path], "probe.radiosity")
            self.app_recorded(self.app_trace)
            self.sample("setup_s", (now() - start) / 1e9)
            self.sample("sim.generate_s", info["sim_ns"] / 1e9)
            with open(path, "rb") as f:
                digests.add(hashlib.sha256(f.read()).hexdigest())
            os.replace(path, self.radiosity_trace)
            self.radiosity_events = info["events"]
        os.remove(self.app_trace)
        self.check(len(digests) == 1, "radiosity sim is not deterministic")
        self.median_metric("setup_s", "s")

        self.pinned = None
        if not self.args.smoke:
            with open(os.path.join(HERE, "digests.json")) as f:
                pins = json.load(f)["radiosity"]
            self.pinned = pins.get(str(self.args.seed))
            if self.pinned is None:
                self.notes.append("no pinned report digest for seed %d; "
                                  "legs and live passes are still compared "
                                  "with each other" % self.args.seed)
        # One round of the legs on the radiosity trace, not measured: it
        # warms the analyzer up and gives the batch report every live pass
        # must reproduce.
        report = self.analyze_legs(self.radiosity_trace, self.pinned)
        self.radiosity_report = report if report is not None \
            else b"<no batch report>"
        for name in list(self.samples):
            if name.startswith(("report_ms_", "peak_rss_mb_")):
                del self.samples[name]

    # ---- the workloads ---------------------------------------------------------------

    def workload(self, batch_on_app, leg_rounds):
        """Set-up, then cycles of the record, batch and live phases for
        --seconds, so every phase samples the whole run. The batch phase
        runs leg_rounds rounds of the three cla-analyze legs on the app's
        own trace (interpose-4t) or on the radiosity trace."""
        self.setup()
        self.live_info = None

        def cycle(c):
            self.record_phase(c)
            for _ in range(leg_rounds):
                if not batch_on_app:
                    self.analyze_legs(self.radiosity_trace, self.pinned)
                elif os.path.exists(self.app_trace):
                    self.analyze_legs(self.app_trace)
            self.live_phase()

        self.loop(cycle)
        for name, unit in (("app_wall_ms", "ms"), ("record_overhead_x", "x"),
                           ("record_drop_frac", "fraction")):
            self.median_metric(name, unit)
        if batch_on_app:
            values = self.samples.get("app_bytes_per_event", [])
            if values:
                self.metric("trace_bytes_per_event",
                            statistics.median(values), "B")
        else:
            self.metric("trace_bytes_per_event",
                        os.path.getsize(self.radiosity_trace) /
                        self.radiosity_events, "B")
        self.report_metrics()
        refresh = self.samples.get("refresh_ms", [])
        if refresh:
            self.metric("refresh_ms", statistics.median(refresh), "ms")
            tail, _ = tail_of(refresh)
            if tail is not None:
                self.metric("refresh_ms_tail", tail, "ms")
            self.metric("live_mev_s", sum(self.samples["live_events"]) /
                        (sum(self.samples["live_total_ns"]) / 1e9) / 1e6,
                        "Mev/s")
        if self.args.trace:
            batch = self.app_trace if batch_on_app else self.radiosity_trace
            if os.path.exists(batch):
                self.traced_layers(batch, self.radiosity_trace)
            self.runtime_layers()
            if self.live_info is not None:
                self.live_layers(self.live_info)
            for name, unit in (("control.app_plain_ms", "ms"),
                               ("runtime.added_ns_per_op", "ns"),
                               ("runtime.exit_overcount", "count"),
                               ("sim.generate_s", "s")):
                self.median_metric(name, unit)

    # ---- shared control flow -------------------------------------------------------

    def loop(self, cycle_fn):
        """Measures cycles for --seconds: a cycle starts only while half of
        the last cycle's length still fits, and at least one runs. In the
        traced run the cycles carry no spans except the last one, whose
        extra time over the untraced median is the tracing overhead."""
        self.deadline = now() + int(self.args.seconds * 1e9)
        tracing = self.spans.enabled
        self.spans.enabled = False
        untraced = []
        while True:
            last = bool(untraced) and not self.time_left(
                untraced[-1] * (2 if tracing else 1))
            if last and not tracing:
                break
            self.spans.enabled = last
            start = now()
            sid = self.spans.begin("cycle")
            cycle_fn(len(untraced))
            self.spans.end(sid)
            elapsed = now() - start
            if last:
                self.metric("tracing.overhead_ms",
                            (elapsed - statistics.median(untraced)) / 1e6,
                            "ms")
                break
            untraced.append(elapsed)
        self.spans.enabled = tracing
        self.cycles = len(untraced) + (1 if tracing else 0)

    # ---- per-layer probes (traced run only) ------------------------------------------

    def traced_layers(self, trace, write_trace):
        st, _ = self.probe(["stages", "--trace", trace, "--dir", self.tmp,
                            "--write", write_trace], "probe.stages")
        events = st["events"]
        ns = st["stage_ns"]
        self.metric("trace.load_ns_per_event", ns["trace.load.w1"] / events,
                    "ns")
        self.metric("trace.validate_ns_per_event",
                    ns["trace.validate.w1"] / events, "ns")
        stages = ("index", "builddag", "walk", "stats")
        for stage in stages:
            for w in ("w1", "w4"):
                self.metric("analysis.%s_ns_per_event.%s" % (stage, w),
                            ns["analysis.%s.%s" % (stage, w)] / events, "ns")
        self.metric("analysis.report_ns_per_event",
                    ns["analysis.report.w1"] / events, "ns")
        self.metric("analysis.speedup_w4",
                    sum(ns["analysis.%s.w1" % s] for s in stages) /
                    sum(ns["analysis.%s.w4" % s] for s in stages), "x")
        attempts = st["jumps_taken"] + st["speculation_misses"]
        self.metric("analysis.speculation_miss_frac",
                    st["speculation_misses"] / attempts if attempts else 0.0,
                    "fraction")
        self.metric("analysis.bounded_ms", st["bounded_ns"] / 1e6, "ms")
        self.metric("analysis.bounded_peak_mb",
                    st["bounded_peak_bytes"] / 2**20, "MB")
        mb = st["write_events"] * st["event_bytes"] / 1e6
        self.metric("trace.write_mb_s.v2", mb / (st["write_v2_ns"] / 1e9),
                    "MB/s")
        self.metric("trace.write_mb_s.v3", mb / (st["write_v3_ns"] / 1e9),
                    "MB/s")

    def runtime_layers(self):
        rt, _ = self.probe(["runtime", "--ops", str(self.app_ops()),
                            "--dir", self.tmp], "probe.runtime")
        self.metric("util.clock_ns", rt["clock_ns"] / rt["clock_calls"], "ns")
        self.metric("runtime.record_ns.t1", rt["t1_loop_ns"] / rt["t1_calls"],
                    "ns")
        self.metric("runtime.record_ns.t4", rt["t4_loop_ns"] / rt["t4_calls"],
                    "ns")
        self.metric("runtime.drops.t4", rt["t4_dropped"], "count")
        self.metric("runtime.finish_ms", rt["t4_finish_ns"] / 1e6, "ms")

    def live_layers(self, info):
        accumulated, total = [], 0
        for n in info["appended"]:
            total += n
            accumulated.append(total)
        self.metric("analysis.append_ns_per_event",
                    sum(info["append_ns"]) / info["events"], "ns")
        self.metric("analysis.refresh_ns_per_event",
                    sum(info["report_ns"]) / sum(accumulated), "ns")
        kept, redone = sum(info["retained"]), sum(info["rescanned"])
        self.metric("analysis.rescan_frac", redone / (kept + redone)
                    if kept + redone else 0.0, "fraction")


# ---- reporting ---------------------------------------------------------------

def tail_of(values):
    """The sample with exactly ten samples beyond it, i.e. the highest
    percentile that has at least ten samples beyond it, and that
    percentile. (None, None) below twenty samples, where that percentile
    would not lie above the median."""
    n = len(values)
    if n < 20:
        return None, None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n


def print_table(run, metric_units):
    print("%-40s %12s %10s %14s %6s" %
          ("metric", "median", "unit", "tail (pct)", "n"))
    for name, unit in metric_units:
        if name not in run.metrics:
            continue
        values = run.samples.get(name, [run.metrics[name]["value"]])
        tail, pct = tail_of(values)
        tail_text = "%.4g (p%.1f)" % (tail, pct) if tail is not None \
            else "n/a (n<20)"
        print("%-40s %12.6g %10s %14s %6d" %
              (name, run.metrics[name]["value"], unit, tail_text,
               len(values)))
    if run.analyses:
        print("%-40s %12.6g %10s %14s %6d" %
              ("report_fail_frac", run.failed_analyses / run.analyses,
               "fraction", "-", run.analyses))


def print_self_times(spans):
    rows = spans.self_times()
    if not rows:
        return
    print("\nspans (traced cycle and layer probes): self time per layer")
    print("%-40s %6s %12s %12s" % ("span", "count", "total ms", "self ms"))
    for name in sorted(rows, key=lambda k: -rows[k][2]):
        count, total, own = rows[name]
        print("%-40s %6d %12.3f %12.3f" % (name, count, total / 1e6,
                                           own / 1e6))
    layers = {}
    for name, (_, _, own) in rows.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0) + own
    print("\nself time by layer: " + ", ".join(
        "%s %.1f ms" % (k, v / 1e6) for k, v in sorted(layers.items())))


# ---- build -------------------------------------------------------------------------

def build(root):
    """Configures (first time) and builds the benchmark package, which
    builds the program from source. Output goes to stderr."""
    build_dir = os.path.join(root, BUILD_ROOT, "clabench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G",
                      "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=root)
        if proc.returncode != 0:
            return False
    return True


WORKLOADS = {
    # A round of the legs takes ~4.7 s on the app's trace and ~2 s on the
    # radiosity trace; two rounds on the latter give the short bounded leg
    # more samples.
    "interpose-4t": lambda run: run.workload(batch_on_app=True, leg_rounds=1),
    "radiosity": lambda run: run.workload(batch_on_app=False, leg_rounds=2),
}


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the self-test; no pinned "
                             "digests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # SIGTERM unwinds like an exception, so the running child is killed
    # and reaped and the run's directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    spec = load_spec(root)
    if not build(root):
        print("clabench: build failed", file=sys.stderr)
        return 1

    tmp_parent = os.path.join(root, BUILD_ROOT, "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                           dir=tmp_parent)
    run_id = os.path.basename(tmp)
    spans = Spans(bool(args.trace), run_id)
    run = Run(args, root, tmp, spans)
    try:
        WORKLOADS[args.workload](run)
    except Exception as e:  # a probe or child that could not run at all
        run.check(False, "%s: %s" % (type(e).__name__, e))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = [(m["name"], m["unit"]) for m in spec[kind]]
    wanted = {name for name, _ in units}
    print("clabench %s seed=%d seconds=%g trace=%d cycles=%d" %
          (args.workload, args.seed, args.seconds, args.trace,
           run.cycles))
    # record_drop_frac is declared per-layer because it has no bound (it
    # is 0 once the recorder stops dropping), but users see it, so the
    # untraced table shows it as well.
    print_table(run, units if args.trace else
                units + [("record_drop_frac", "fraction")])
    if args.trace:
        print_self_times(spans)
        spans_dir = os.path.join(root, BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        with open(os.path.join(spans_dir, run_id + ".jsonl"), "w") as f:
            for s in spans.spans:
                f.write(json.dumps(s) + "\n")
    for note in run.notes:
        print(note)
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: v for k, v in run.metrics.items() if k in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
