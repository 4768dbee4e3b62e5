"""The benchmark's workloads.

Each workload has a seeded generator (a pure function of the seed, tested
for determinism), a set-up that builds everything the timed section needs
from fresh directories, one timed *pass* (the unit ``wall_s`` measures),
a teardown that stops what set-up started, and a correctness gate.  The
program only ever receives the generated job lists or argv.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import gate

#: The fast-path predictor families ``run-warm`` draws from.
RUN_WARM_PREDICTORS = ("lvp", "2dstride", "vtage")
#: Fig. 4-style schemes swept by ``sweep-cold``.
SWEEP_COLD_PREDICTORS = ("none", "lvp", "2dstride", "vtage")
#: Fast-path predictors ``serve-mixed`` draws jobs from.
SERVE_PREDICTORS = ("none", "lvp", "stride", "2dstride", "vtage")
#: Warm-up splits of the fixed ``serve-mixed`` trace, in permille of its
#: length.  Each split is a distinct job on the same stored trace, so the
#: job space (28800 jobs for four workloads) outlasts any run's supply of
#: new jobs.
SERVE_WARMUP_PERMILLE = tuple(range(100, 460))
#: The split only set-up's per-shard warm-up jobs use.
SERVE_PRIME_PERMILLE = 50


@dataclass(frozen=True)
class Size:
    """How much work one pass does.  ``FULL`` is the benchmark; ``TINY``
    exists so the benchmark's own tests can run every workload quickly."""

    run_warm_workloads: int = 3
    #: ``(warmup, measured)`` passed to ``repro run``; None = CLI default.
    run_warm_slice: tuple[int, int] | None = None
    #: ``(warmup, measured)`` of ``sweep-cold``.
    slice: tuple[int, int] = (2000, 6000)
    sweep_cold_workloads: tuple[str, ...] | None = None  # None = all 19
    serve_workloads: tuple[str, ...] = ("gcc", "mcf", "lbm", "h264ref")
    #: Trace length of every ``serve-mixed`` job (warm-up + measured).
    serve_total: int = 48000
    serve_batch: int = 2
    serve_batches_per_pass: int = 12
    setup_repeats: int = 3

    @property
    def total(self) -> int:
        return sum(self.slice)


FULL = Size()
TINY = Size(run_warm_workloads=2, run_warm_slice=(500, 1500),
            slice=(500, 1500), sweep_cold_workloads=("gcc", "lbm", "mcf"),
            serve_workloads=("gcc", "lbm"),
            serve_total=2000,
            serve_batch=2,
            serve_batches_per_pass=3, setup_repeats=1)


# ---------------------------------------------------------------------------
# Seeded generators


def _catalog() -> tuple[str, ...]:
    from repro.workloads.catalog import ALL_WORKLOADS

    return ALL_WORKLOADS


def _trace_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 30)


def run_warm_plan(seed: int, size: Size, passes: int) -> list[list[tuple[str, str]]]:
    """``(workload, predictor)`` invocations of the first *passes* passes.

    The seed picks ``size.run_warm_workloads`` catalog workloads once;
    each pass runs every one of them once, in a seeded order, with a
    seeded predictor.  Longer plans extend shorter ones.
    """
    rng = random.Random(f"run-warm:{seed}")
    chosen = rng.sample(_catalog(), size.run_warm_workloads)
    return [[(w, rng.choice(RUN_WARM_PREDICTORS))
             for w in rng.sample(chosen, len(chosen))]
            for _ in range(passes)]


def sweep_cold_plan(seed: int, size: Size) -> dict:
    """The campaign axes in catalog order, plus the seeded trace seed.

    The order is fixed: with a 2-worker pool, job order decides how the
    last jobs pair up, which would make the pass time depend on the seed.
    """
    return {"predictors": list(SWEEP_COLD_PREDICTORS),
            "workloads": list(size.sweep_cold_workloads or _catalog()),
            "trace_seed": _trace_seed(random.Random(f"sweep-cold:{seed}"))}


def serve_job(workload: str, predictor: str, total: int, warmup_permille: int,
              **knobs):
    """One ``serve-mixed`` job on the workload's catalog trace."""
    from repro.engine.job import SimJob

    warmup = total * warmup_permille // 1000
    return SimJob.make(workload, predictor, warmup=warmup,
                       n_uops=total - warmup, **knobs)


def serve_mixed_plan(seed: int, size: Size) -> dict:
    """The shard workloads and an endless batch iterator.

    Each batch holds one new job, the next unseen job of a seeded
    permutation of the job space (a simulation and a cache write), and
    fills the rest with distinct earlier jobs drawn at random (shard
    result-cache reads).  So every batch waits for exactly one
    simulation, and the median latency sits inside that one mode rather
    than on the step between batches with one and with two new jobs.
    The traces are the catalog's: another trace seed would change every
    job's cost, and a batch's latency is mostly simulation, so the seed
    varies only the job stream.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    workloads = list(size.serve_workloads)
    space = [serve_job(w, p, size.serve_total, permille, fpc=fpc,
                       recovery=rec)
             for w in workloads for p in SERVE_PREDICTORS
             for fpc in (True, False) for rec in ("squash", "reissue")
             for permille in SERVE_WARMUP_PERMILLE]
    rng.shuffle(space)

    def batches():
        fresh = iter(space)
        history: list = []
        while True:
            batch = rng.sample(history, min(len(history), size.serve_batch - 1))
            new = []
            while len(batch) + len(new) < size.serve_batch:
                job = next(fresh, None)
                if job is None:
                    raise RuntimeError("serve-mixed ran out of new jobs; "
                                       "widen SERVE_WARMUP_PERMILLE")
                new.append(job)
            history.extend(new)
            yield batch + new

    return {"workloads": workloads, "batches": batches()}


# ---------------------------------------------------------------------------
# Process plumbing


@dataclass
class Child:
    code: int
    stdout: str
    wall: float
    maxrss_kb: int


class Env:
    """Paths and environment of one benchmark run.

    Everything the run writes lives under ``run_dir`` inside the checkout:
    trace stores, the C-kernel cache, temp files and child logs.
    """

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.src = root / "src"
        self.run_dir = run_dir
        self.setup_dir = run_dir
        self._setups = 0

    def fresh_setup(self) -> Path:
        """A new empty set-up directory; later program state goes there."""
        from repro.engine.cache import CACHE_DIR_ENV
        from repro.pipeline.ckernel import CACHE_ENV
        from repro.workloads.store import TRACE_DIR_ENV

        self._setups += 1
        self.setup_dir = self.run_dir / f"setup-{self._setups}"
        for sub in ("traces", "ckernel", "tmp", "logs"):
            (self.setup_dir / sub).mkdir(parents=True)
        os.environ[TRACE_DIR_ENV] = str(self.setup_dir / "traces")
        os.environ[CACHE_ENV] = str(self.setup_dir / "ckernel")
        os.environ["TMPDIR"] = str(self.setup_dir / "tmp")
        os.environ.pop(CACHE_DIR_ENV, None)
        return self.setup_dir

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env

    def log(self, name: str) -> Path:
        return self.setup_dir / "logs" / name

    def run(self, argv: list[str], name: str, timeout: float = 120.0) -> Child:
        """Run a child to completion; its own peak RSS comes from wait4.

        A child still running after *timeout* seconds is killed, so a hung
        program fails the run instead of stalling it.
        """
        out_path = self.log(f"{name}.out")
        start = time.perf_counter()
        with open(out_path, "wb") as out, open(self.log(f"{name}.err"), "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.child_env(),
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, out_path.read_text(), wall,
                     usage.ru_maxrss)

    def python(self, *args: str) -> list[str]:
        return [sys.executable, *args]

    def compile_kernel(self) -> None:
        """Compile (or fail to compile) the C kernel into this set-up's cache."""
        self.run(self.python("-c", "from repro.pipeline import ckernel; "
                             "ckernel.kernel_available()"), "kernel")

    def warm_store(self, workloads, total: int, seed: int | None,
                   name: str = "warm") -> subprocess.Popen:
        argv = self.python(str(self.root / "perfbench" / "warm_store.py"),
                           "--workloads", ",".join(workloads),
                           "--uops", str(total))
        if seed is not None:
            argv += ["--seed", str(seed)]
        return self.start(argv, name)

    def start(self, argv: list[str], name: str, **kwargs) -> subprocess.Popen:
        """Start a child that writes nothing to the benchmark's own
        stdout/stderr: its stderr goes to a log under the set-up dir."""
        with open(self.log(f"{name}.err"), "wb") as err:
            return subprocess.Popen(argv, cwd=self.root, env=self.child_env(),
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    **kwargs)


def wait_ok(proc: subprocess.Popen, what: str, timeout: float = 120.0) -> None:
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{what} did not finish in {timeout:.0f}s") from None
    if code != 0:
        raise RuntimeError(f"{what} exited with {code}")


def self_peak_kb(include_children: bool) -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak


def _proc_tree(pid: int) -> list[int]:
    pids = [pid]
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            kids = (task / "children").read_text().split()
        except OSError:
            continue
        for kid in kids:
            pids.extend(_proc_tree(int(kid)))
    return pids


def tree_peak_kb(pid: int) -> int:
    """Largest ``VmHWM`` (peak RSS) in a live process and its descendants."""
    peak = 0
    for p in _proc_tree(pid):
        try:
            status = Path(f"/proc/{p}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]))
    return peak


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class PassRecord:
    wall: float
    latencies: list[float]
    jobs: int
    uops: int
    errors: int = 0


@dataclass
class Workload:
    """Base class: subclasses fill in set-up, one pass, gate and teardown."""

    env: Env
    seed: int
    size: Size
    #: What one latency sample measures, for the report.
    request: str = ""
    #: Canonical outputs of the first pass, hashed into ``results_digest``.
    first_pass: list[str] = field(default_factory=list)
    #: Profiling seconds per phase reported by traced child processes.
    child_profile: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Subclasses set their name and generate their inputs here."""

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run_pass(self, index: int, tracer) -> PassRecord:
        raise NotImplementedError

    def after_pass(self) -> None:
        """Untimed, untraced work between passes."""

    def gate(self) -> tuple[int, list[str]]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return self_peak_kb(include_children=True)

    def store_bytes(self) -> int:
        from repro.workloads.store import TRACE_DIR_ENV, TraceStore

        stats = TraceStore(os.environ[TRACE_DIR_ENV]).stats()
        return stats["bytes"] + stats["aux_bytes"]

    def after_run(self) -> tuple[dict, int]:
        """(service counters, rerouted jobs) read after the timed passes."""
        return {}, 0


class RunWarm(Workload):
    """Sequential ``repro run`` subprocesses on a warmed trace store."""

    def __post_init__(self):
        self.request = "one CLI invocation"
        self.invocations: list[tuple[str, str, Child]] = []
        self.child_peak = 0

    def _plan(self, passes: int):
        return run_warm_plan(self.seed, self.size, passes)

    def _slice_args(self) -> list[str]:
        if self.size.run_warm_slice is None:
            return []
        warmup, measured = self.size.run_warm_slice
        return ["--uops", str(measured), "--warmup", str(warmup)]

    def _slice(self) -> tuple[int, int]:
        from repro.engine.job import DEFAULT_MEASURE, DEFAULT_WARMUP

        return self.size.run_warm_slice or (DEFAULT_WARMUP, DEFAULT_MEASURE)

    def setup(self) -> None:
        self.env.fresh_setup()
        self.env.compile_kernel()
        workloads = sorted({w for w, _ in self._plan(1)[0]})
        wait_ok(self.env.warm_store(workloads, sum(self._slice()), None),
                "trace-store warm-up")

    def run_pass(self, index: int, tracer) -> PassRecord:
        pairs = self._plan(index + 1)[index]
        latencies = []
        start = time.perf_counter()
        for i, (w, p) in enumerate(pairs):
            args = ["run", w, "--predictor", p, *self._slice_args()]
            tag = f"cli-{index}-{i}"
            if tracer is None:
                child = self.env.run(self.env.python("-m", "repro.cli", *args), tag)
            else:
                spans_path = self.env.log(f"{tag}.spans.json")
                with tracer.span("cli.process"):
                    child = self.env.run(self.env.python(
                        str(self.env.root / "perfbench" / "cli_boot.py"),
                        str(spans_path), *args), tag)
                    self._graft(tracer, spans_path)
            latencies.append(child.wall)
            self.child_peak = max(self.child_peak, child.maxrss_kb)
            self.invocations.append((w, p, child))
            if index == 0:
                self.first_pass.append(f"{w}/{p}:{child.code}:{child.stdout}")
        wall = time.perf_counter() - start
        return PassRecord(wall, latencies, jobs=2 * len(pairs),
                          uops=2 * len(pairs) * sum(self._slice()))

    def _graft(self, tracer, spans_path: Path) -> None:
        """Hang a traced child's spans under the current ``cli.process``."""
        try:
            payload = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            return
        parent = tracer.current()
        ids = {}
        for name, start, end, span_id, span_parent in sorted(
                payload["spans"], key=lambda row: row[3]):
            ids[span_id] = tracer.add_span(
                name, start, end, ids.get(span_parent, parent))
        for key, value in payload["counters"].items():
            tracer.count(key, value)
        for phase, seconds in payload["profile"].items():
            self.child_profile[phase] = self.child_profile.get(phase, 0.0) + seconds

    def peak_rss_kb(self) -> int:
        return max(self_peak_kb(include_children=False), self.child_peak)

    def gate(self) -> tuple[int, list[str]]:
        from repro.engine.job import SimJob
        from repro.experiments.runner import baseline_job
        from repro.pipeline.result import SimResult

        warmup, measured = self._slice()
        pairs = {(w, p) for w, p, _ in self.invocations}
        jobs = {}
        for w, p in pairs:
            jobs[(w, p)] = SimJob.make(w, p, n_uops=measured, warmup=warmup)
            jobs[(w, "none")] = baseline_job(w, n_uops=measured, warmup=warmup)
        serial, legacy = gate.reference_results(list(jobs.values()), self.seed)
        failed, problems = 0, []
        bad_keys = {k for k, ref in legacy.items() if ref != serial[k]}
        for w, p, child in self.invocations:
            result = SimResult.from_dict(serial[jobs[(w, p)].content_key()])
            base = SimResult.from_dict(serial[jobs[(w, "none")].content_key()])
            expected = (f"{result.summary_line()}\n"
                        f"speedup over no-VP baseline: "
                        f"{result.speedup_over(base):.3f}x\n")
            keys = {jobs[(w, p)].content_key(), jobs[(w, "none")].content_key()}
            if child.code != 0 or child.stdout != expected or keys & bad_keys:
                failed += 2
                if len(problems) < 5:
                    problems.append(f"repro run {w} --predictor {p}: exit "
                                    f"{child.code}, output differs from the "
                                    "serial engine or the reference model")
        return failed, problems


class SweepCold(Workload):
    """Fig. 4-style campaign on a 2-worker pool from an empty store."""

    def __post_init__(self):
        self.request = "one campaign (a whole pass)"
        self.plan = sweep_cold_plan(self.seed, self.size)
        self.observed: list[tuple] = []

    def setup(self) -> None:
        self.env.fresh_setup()
        self.env.compile_kernel()
        from repro.pipeline import ckernel

        ckernel.kernel_available()

    def run_pass(self, index: int, tracer) -> PassRecord:
        from repro.engine.api import Engine
        from repro.engine.cache import ResultCache
        from repro.engine.campaign import CampaignSpec, run_campaign
        from repro.engine.executors import PoolExecutor
        from repro.workloads.catalog import clear_trace_cache
        from repro.workloads.store import TRACE_DIR_ENV

        store = Path(self.env.setup_dir / "traces" / f"pass-{index}")
        previous = store.parent / f"pass-{index - 1}"
        shutil.rmtree(previous, ignore_errors=True)
        os.environ[TRACE_DIR_ENV] = str(store)
        clear_trace_cache()
        warmup, measured = self.size.slice
        spec = CampaignSpec.make(
            "perfbench-sweep-cold",
            axes={"predictor": self.plan["predictors"],
                  "workload": self.plan["workloads"]},
            base={"n_uops": measured, "warmup": warmup,
                  "seed": self.plan["trace_seed"]})
        engine = Engine(PoolExecutor(2), ResultCache(None))
        start = time.perf_counter()
        result = run_campaign(spec, engine=engine)
        wall = time.perf_counter() - start
        pairs = [(job, r.to_dict()) for job, r in zip(result.jobs, result.results)]
        self.observed.extend(pairs)
        if index == 0:
            self.first_pass = [gate.canonical(d) for _, d in pairs]
        return PassRecord(wall, [wall], jobs=len(pairs),
                          uops=len(pairs) * self.size.total)

    def gate(self) -> tuple[int, list[str]]:
        return gate.check_results(self.observed, self.seed)


class ServeMixed(Workload):
    """Closed loop of small batches over two TCP shards."""

    SHARDS = 2
    #: Shards listen on fixed ports when they are free: the hash ring
    #: hashes the addresses, so fixed addresses give every run the same
    #: split of jobs between the shards.
    PORTS = tuple(range(39311, 39391))

    def __post_init__(self):
        self.request = "one batch round trip"
        self.plan = serve_mixed_plan(self.seed, self.size)
        self.shards: list[tuple[subprocess.Popen, str]] = []
        self.router = None
        self.observed: list[tuple] = []
        self.serial: dict = {}
        self.checked = 0
        self.router_peak = 0


    def setup(self) -> None:
        from repro.engine.cluster import ShardRouter

        self.env.fresh_setup()
        self.env.compile_kernel()
        workloads = self.plan["workloads"]
        warm = self.env.warm_store(workloads, self.size.serve_total, None)
        for i, port in enumerate(free_ports(self.PORTS, self.SHARDS)):
            proc = self.env.start(
                self.env.python("-m", "repro.cli", "-j", "1", "cluster",
                                "serve", "--listen", f"127.0.0.1:{port}"),
                f"shard-{i}", start_new_session=True,
                preexec_fn=_die_with_parent)
            self.shards.append((proc, ""))
        wait_ok(warm, "trace-store warm-up")
        self.shards = [(proc, _await_listen(proc, self.env.log(f"shard-{i}.err")))
                       for i, (proc, _) in enumerate(self.shards)]
        self.router = ShardRouter([addr for _, addr in self.shards])
        prime = [serve_job(w, "vtage", self.size.serve_total, SERVE_PRIME_PERMILLE)
                 for w in workloads]
        with ThreadPoolExecutor(self.SHARDS) as pool:
            for future in [pool.submit(self.router.client(addr).run_jobs, prime)
                           for _, addr in self.shards]:
                future.result()

    def run_pass(self, index: int, tracer) -> PassRecord:
        batches = list(itertools.islice(self.plan["batches"],
                                        self.size.serve_batches_per_pass))
        latencies, errors = [], 0
        start = time.perf_counter()
        for batch in batches:
            sent = time.perf_counter()
            try:
                results = self.router.run_jobs(batch)
            except Exception as exc:  # noqa: BLE001 - counted as failed jobs
                errors += len(batch)
                print(f"serve-mixed: batch failed: {exc!r}", file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - sent)
            pairs = [(job, r.to_dict()) for job, r in zip(batch, results)]
            self.observed.extend(pairs)
            if index == 0:
                self.first_pass.extend(gate.canonical(d) for _, d in pairs)
        wall = time.perf_counter() - start
        jobs = sum(len(b) for b in batches)
        return PassRecord(wall, latencies, jobs=jobs,
                          uops=jobs * self.size.serve_total, errors=errors)

    def after_pass(self) -> None:
        """Run the pass's new jobs on the in-process serial engine now.

        The gate needs that reference for every distinct job anyway.  Doing
        it between passes spreads the timed passes over a longer stretch of
        the run, which averages out slow phases of a shared host.
        """
        if not self.router_peak:
            # Before the first reference run grows this process.
            self.router_peak = self_peak_kb(include_children=False)
        fresh = [job for job, _ in self.observed[self.checked:]]
        self.serial.update(gate.serial_results(fresh, self.serial))
        self.checked = len(self.observed)

    def gate(self) -> tuple[int, list[str]]:
        return gate.check_results(self.observed, self.seed, self.serial)

    def peak_rss_kb(self) -> int:
        fleet = max((tree_peak_kb(proc.pid) for proc, _ in self.shards),
                    default=0)
        return max(self.router_peak, fleet)

    def after_run(self) -> tuple[dict, int]:
        totals = {"hits": 0, "misses": 0}
        for _, addr in self.shards:
            metrics = self.router.client(addr).metrics()
            for key, value in metrics["queue"]["stats"].items():
                totals[key] = totals.get(key, 0) + value
            totals["hits"] += metrics["cache"]["hits"]
            totals["misses"] += metrics["cache"]["misses"]
        lookups = totals["hits"] + totals["misses"]
        totals["cache_hit_ratio"] = totals["hits"] / lookups if lookups else 0.0
        return totals, self.router.stats["rerouted_jobs"]

    def teardown(self) -> None:
        asked = set()
        for proc, addr in self.shards:
            if addr and self.router is not None and proc.poll() is None:
                try:
                    self.router.client(addr).shutdown()
                    asked.add(proc.pid)
                except Exception:  # noqa: BLE001 - killed below either way
                    pass
        if self.router is not None:
            self.router.close()
            self.router = None
        for proc, _ in self.shards:
            stop_group(proc, grace=10.0 if proc.pid in asked else 0.0)
        self.shards = []


def _die_with_parent() -> None:
    """In a shard, before exec: have the kernel SIGKILL it if the benchmark
    dies without running its teardown (e.g. killed by SIGKILL itself)."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGKILL)


def free_ports(candidates, count: int) -> list[int]:
    """The first *count* of *candidates* that can be bound now; port 0
    (kernel-picked) for any shortfall."""
    found = []
    for port in candidates:
        if len(found) == count:
            break
        with socket.socket() as probe:
            # As the shard's own listener does, so TIME_WAIT leftovers of
            # an earlier fleet do not make a port look taken.
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                probe.bind(("127.0.0.1", port))
            except OSError:
                continue
        found.append(port)
    return found + [0] * (count - len(found))


def _await_listen(proc: subprocess.Popen, log: Path, timeout: float = 60.0) -> str:
    """The ``tcp://host:port`` a shard prints on its ready line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for word in log.read_text(errors="replace").split():
            if word.startswith("listen=tcp://"):
                return word[len("listen="):]
        if proc.poll() is not None:
            raise RuntimeError(f"shard exited with {proc.returncode} before "
                               f"it was ready; see {log}")
        time.sleep(0.02)
    raise RuntimeError(f"shard not ready after {timeout:.0f}s; see {log}")


def stop_group(proc: subprocess.Popen, grace: float) -> None:
    """Stop a child started in its own session and everything it started.

    Waits *grace* seconds for a requested shutdown, then kills the whole
    process group, reaps the child and waits until no member is left.
    """
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        pass
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.poll() is None:
            proc.wait()
        time.sleep(0.02)
    proc.wait()


WORKLOADS = {
    "run-warm": RunWarm,
    "sweep-cold": SweepCold,
    "serve-mixed": ServeMixed,
}
