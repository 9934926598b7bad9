"""End-to-end benchmark for ``repro``: what a user waits for, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``cold``     ``repro verify --all`` into an empty proof store (the solver runs)
``warm``     ``repro verify --all`` on a store made warm during set-up
``edit``     seeded comments in 3 pass classes, ``repro verify --all --changed``
``compile``  the QASMBench suite through the verified and baseline pipelines

Every verify op is a fresh ``python -m repro`` process; compile ops run in
one long-lived child.  The load is a closed loop: one op at a time.  Each
op is preceded by a control, a fresh ``python -c pass``, and its times are
reported at a reference host speed (see :func:`normalise`).  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ledger (see :mod:`ledger`) with ``--trace 1``.

All state lives under ``.perfbench-scratch/`` in the current directory and
is removed at exit; children get ``REPRO_CACHE_DIR``, ``XDG_CACHE_HOME``
and ``HOME`` inside it.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold", "warm", "edit", "compile")
#: Reported times are scaled to a host on which the control, a fresh
#: ``python -c pass``, takes this many seconds of wall and of CPU time.
REFERENCE_START_S = 0.055
#: Set-up is repeated at least SETUP_MIN_REPS times and until it has taken
#: SETUP_MIN_SECONDS (at most SETUP_MAX_REPS); ``setup_s`` is the median.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 3, 12, 3.0
#: The compile child builds the suite this many times.
SUITE_BUILDS = 5
EDIT_TARGETS = 3
MiB = 1024.0
REPRO = [sys.executable, "-m", "repro"]

#: Per-workload pass-tier counts every verify op must reproduce.
EXPECTED_PASS_COUNTS = {
    "cold": {"pass_hits": 0, "pass_misses": 47},
    "warm": {"pass_hits": 47, "pass_misses": 0},
    "edit": {"pass_hits": 47 - EDIT_TARGETS, "pass_misses": EDIT_TARGETS,
             "subgoal_misses": 0},
}

CACHE_WRITES = ("engine.cache.ProofCache.put_pass", "engine.cache.ProofCache.put_subgoal",
                "engine.cache.ProofCache.put_certificate", "engine.cache.ProofCache.put_deps",
                "engine.cache.ProofCache.close")


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: The tail percentile of each workload: the highest ladder step with at
#: least ten samples beyond it at 25 s runs on a 2-core box (cold ~23 ops,
#: warm ~50, edit ~31; compile has one sample per circuit, 48).  It is fixed
#: so that it does not flip between runs whose op counts straddle a step.
TAIL_PERCENTILE = {"cold": 50.0, "warm": 75.0, "edit": 50.0, "compile": 75.0}


def normalise(seconds: float, control: float) -> float:
    """``seconds`` at the reference host speed, given the control's time beside it.

    The shared host's speed drifts by 10-30% over minutes, and process
    start-up drifts with it: a control spawned just before an op predicts
    the op's time far better than the clock alone.  So every op is paired
    with its own control, and its time is reported as op / control, scaled
    by :data:`REFERENCE_START_S`.  The control runs no code of the
    repository, so a change to ``repro`` moves the ratio by exactly its own
    cost.
    """
    return seconds * REFERENCE_START_S / control


def tail(values: List[float], percentile: float):
    """``(value, percentile, samples)``: the tail by nearest rank.

    Steps down the ladder while fewer than ten samples lie beyond the
    requested percentile (a much slower machine); the median is the floor.
    """
    ordered = sorted(values)
    count = len(ordered)
    steps = [step for step in TAIL_LADDER
             if step <= percentile and count * (100.0 - step) / 100.0 >= 10]
    percentile = steps[0] if steps else 50.0
    rank = max(1, math.ceil(percentile / 100.0 * count))
    return ordered[rank - 1], percentile, count


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


# --------------------------------------------------------------------------- #
# scratch, isolation, processes
# --------------------------------------------------------------------------- #
class Scratch:
    """The run's private directory tree and child environment."""

    def __init__(self, root: Path) -> None:
        self.base = root / ".perfbench-scratch"
        self.dir = self.base / str(os.getpid())
        self.tree = self.dir / "tree"
        for sub in ("home", "xdg", "ops"):
            (self.dir / sub).mkdir(parents=True, exist_ok=True)
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_") and key != "PYTHONPATH"}
        env.update(PYTHONPATH=str(self.tree), HOME=str(self.dir / "home"),
                   XDG_CACHE_HOME=str(self.dir / "xdg"),
                   REPRO_CACHE_DIR=str(self.dir / "xdg" / "repro"))
        self.env = env

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass


def prepare_tree(package: Path, tree: Path) -> None:
    """A private copy of the package with its bytecode compiled."""
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(package, tree / "repro",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    if not compileall.compile_dir(str(tree), quiet=1):
        raise RuntimeError("the package copy does not compile")


def copy_dir(source: Path, target: Path) -> None:
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)


class Proc(NamedTuple):
    code: int
    wall: float
    cpu: float
    maxrss_kb: int
    spawned: float  # time.time() just before the spawn


def run_process(argv: List[str], env: dict, cwd: Path, out: Path) -> Proc:
    """Run one child to completion; wall from spawn to reap, rusage from wait4."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        spawned = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (SIGTERM): leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss, spawned)


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


# --------------------------------------------------------------------------- #
# verify workloads
# --------------------------------------------------------------------------- #
def expected_passes() -> List[str]:
    with open(HERE / "expected_verdicts.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    names = [name for group in reference["table2"].values() for name in group]
    return sorted(names + reference["extensions"])


def check_report(text: str, expected: List[str]):
    """``(reason, counts, subgoals per pass)``; reason is empty when every verdict matches."""
    try:
        report = json.loads(text)
        results = report["results"]
        engine = report["engine"]
    except (ValueError, KeyError, TypeError):
        return "no JSON report", None, {}
    names = sorted(result["pass"] for result in results)
    counts = {
        "pass_hits": engine["cache_hits"], "pass_misses": engine["cache_misses"],
        "subgoal_hits": engine["subgoal_hits"],
        "subgoal_misses": engine["subgoal_misses"],
        "stale_passes": engine["stale_passes"] or 0,
        "subgoals": sum(result["subgoals"] for result in results),
        "paths": sum(result["paths_explored"] for result in results),
    }
    per_pass = {result["pass"]: result["subgoals"] for result in results}
    if names != expected:
        return "pass set differs from the reference", counts, per_pass
    wrong = [result["pass"] for result in results
             if not (result["supported"] and result["verified"])]
    if wrong:
        return f"verdict differs from the reference: {', '.join(wrong)}", counts, per_pass
    return "", counts, per_pass


def class_body_line(path: Path, name: str) -> tuple:
    """0-based line index and indentation of the first statement of class ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            first = node.body[0]
            return first.lineno - 1, " " * first.col_offset
    raise LookupError(f"class {name} not found in {path}")


def pass_locations(tree: Path, names: List[str]) -> Dict[str, Path]:
    """Which file of ``repro/passes`` defines each pass class."""
    wanted = set(names)
    found: Dict[str, Path] = {}
    for path in sorted((tree / "repro" / "passes").glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for node in module.body:
            if isinstance(node, ast.ClassDef) and node.name in wanted:
                found[node.name] = path.relative_to(tree)
    missing = wanted - set(found)
    if missing:
        raise LookupError(f"pass classes not found: {sorted(missing)}")
    return found


class VerifyWorkload:
    """``repro verify --all`` in fresh processes against one store state."""

    def __init__(self, name: str, package: Path, scratch: Scratch, seed: int) -> None:
        self.name = name
        self.package = package
        self.scratch = scratch
        self.rng = random.Random(seed)
        self.seed = seed
        self.expected = expected_passes()
        self.store = scratch.dir / "store"
        self.snapshot = scratch.dir / "store-snapshot"
        self.pristine = scratch.dir / "tree-pristine"
        self.ops = 0
        #: ``repro/passes`` file -> the reference passes it defines (edit only).
        self.by_file: Dict[Path, List[str]] = {}
        #: Module combinations still to edit in the current round (edit only).
        self.rounds: List[tuple] = []

    # -- set-up ------------------------------------------------------------ #
    def setup(self) -> None:
        prepare_tree(self.package, self.scratch.tree)
        if self.name == "cold":
            return
        shutil.rmtree(self.store, ignore_errors=True)
        proc = run_process(REPRO + self.argv(self.store), self.scratch.env,
                           self.scratch.dir, self.scratch.dir / "setup.out")
        reason, _, _ = check_report((self.scratch.dir / "setup.out").read_text(), self.expected)
        if proc.code != 0 or reason:
            raise RuntimeError(f"warming the store failed: exit {proc.code} {reason}")
        copy_dir(self.store, self.snapshot)
        if self.name == "edit":
            copy_dir(self.scratch.tree, self.pristine)
            if not self.by_file:
                for cls, path in sorted(pass_locations(self.scratch.tree, self.expected).items()):
                    self.by_file.setdefault(path, []).append(cls)

    def pick_targets(self) -> List[tuple]:
        """``(file, class)`` for passes in EDIT_TARGETS different modules, from the seed.

        Which modules are edited sets most of an op's cost, so ops walk every
        combination of modules in a seeded order before repeating one, and
        the seed picks the class edited in each.  A run then averages over
        the same mix whatever its seed.
        """
        if not self.rounds:
            self.rounds = list(itertools.combinations(sorted(self.by_file), EDIT_TARGETS))
            self.rng.shuffle(self.rounds)
        files = self.rounds.pop()
        return [(path, self.rng.choice(self.by_file[path])) for path in files]

    # -- one op -------------------------------------------------------------- #
    def argv(self, cache_dir: Path, changed=()) -> List[str]:
        args = ["verify", "--all", "--format", "json", "--cache-dir", str(cache_dir)]
        for path in changed:
            args += ["--changed", str(path)]
        return args

    def before_op(self) -> tuple:
        """Prepare the store (and tree) for the next op.

        Returns ``(cache_dir, changed_paths, targets)``.
        """
        self.ops += 1
        if self.name == "cold":
            cache_dir = self.scratch.dir / "ops" / f"cold-{self.ops}"
            cache_dir.mkdir()
            return cache_dir, (), []
        copy_dir(self.snapshot, self.store)
        if self.name == "warm":
            return self.store, (), []
        copy_dir(self.pristine, self.scratch.tree)
        targets = self.pick_targets()
        changed = []
        for relative, cls in targets:
            path = self.scratch.tree / relative
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            index, indent = class_body_line(path, cls)
            lines.insert(index, f"{indent}# benchmark edit: seed {self.seed}, op {self.ops}\n")
            path.write_text("".join(lines), encoding="utf-8")
            changed.append(path)
        return self.store, changed, targets

    def run_op(self, traced: bool) -> dict:
        cache_dir, changed, targets = self.before_op()
        out = self.scratch.dir / "op.out"
        ledger_path = self.scratch.dir / "ledger.json"
        args = self.argv(cache_dir, changed)
        if traced:
            argv = [sys.executable, str(HERE / "verify_child.py"), str(ledger_path), "--"] + args
        else:
            argv = REPRO + args
        control = interpreter_control(self.scratch)
        proc = run_process(argv, self.scratch.env, self.scratch.dir, out)
        reason, counts, pass_subgoals = check_report(out.read_text(errors="replace"),
                                                     self.expected)
        if proc.code != 0:
            reason = f"exit code {proc.code}"
        op = {"wall": proc.wall, "cpu": proc.cpu, "control": control.wall,
              "latency": normalise(proc.wall, control.wall),
              "cpu_n": normalise(proc.cpu, control.cpu), "maxrss_kb": proc.maxrss_kb,
              "reason": reason, "counts": counts, "traced": traced,
              "targets": tuple(cls for _, cls in targets)}
        if targets:
            # Values the edit implies, derived without the code under test:
            # every pass in an edited module is stale, and the edited passes
            # re-prove exactly their own subgoals, all served from the store.
            op["expected"] = {
                "stale_passes": sum(len(self.by_file[path]) for path, _ in targets),
                "subgoal_hits": sum(pass_subgoals.get(cls, -1) for _, cls in targets),
            }
        if traced and proc.code == 0:
            with open(ledger_path, encoding="utf-8") as handle:
                ledger = json.load(handle)
            ledger["spawn_s"] = ledger["first_line"] - proc.spawned
            ledger["bytes_on_disk"] = dir_bytes(cache_dir)
            op["ledger"] = ledger
        if self.name == "cold":
            shutil.rmtree(cache_dir, ignore_errors=True)
        return op

    def check_op(self, op: dict, reference: dict) -> str:
        """Empty when the op's counts match its workload and earlier ops."""
        if op["reason"]:
            return op["reason"]
        counts = op["counts"]
        for key, value in EXPECTED_PASS_COUNTS[self.name].items():
            if counts[key] != value:
                return f"{key} = {counts[key]}, expected {value}"
        for key, value in op.get("expected", {}).items():
            if counts[key] != value:
                return f"{key} = {counts[key]}, expected {value} for {op['targets']}"
        # Ops with the same targets (every op, except on edit) must agree.
        reference = reference.setdefault(op["targets"], {})
        reference.setdefault("counts", counts)
        if counts != reference["counts"]:
            return f"counts {counts} differ from an earlier op's {reference['counts']}"
        if op["traced"]:
            ledger = op["ledger"]
            calls = dict(ledger["calls"], **ledger["extras"])
            discharged = calls.get("verify.discharge.Discharger", 0)
            if self.name != "cold" and discharged:
                return f"Discharger called {discharged} times"
            if self.name == "warm" and calls.get("verify.preprocessor.analyze_pass", 0):
                return "the preprocessor ran on a warm store"
            reference.setdefault("calls", calls)
            if calls != reference["calls"]:
                return "ledger call counts differ between traced ops"
        return ""


# --------------------------------------------------------------------------- #
# compile workload
# --------------------------------------------------------------------------- #
class CompileChild:
    """One long-lived ``compile_child.py`` process."""

    def __init__(self, scratch: Scratch, reps: int, traced: bool) -> None:
        self.stderr = open(scratch.dir / f"compile-{int(traced)}.err", "wb")
        self.spawned = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "compile_child.py"), str(reps), "1" if traced else "0"],
            env=scratch.env, cwd=scratch.dir, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.stderr, text=True)

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the compile process exited early")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> dict:
        try:
            return self.request({"quit": True})
        finally:
            self.proc.stdin.close()
            self.proc.wait()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()


# --------------------------------------------------------------------------- #
# runs
# --------------------------------------------------------------------------- #
def interpreter_control(scratch: Scratch) -> Proc:
    """The control: a fresh ``python -c pass`` in the ops' environment."""
    proc = run_process([sys.executable, "-c", "pass"], scratch.env, scratch.dir,
                       scratch.dir / "control.out")
    if proc.code != 0:
        raise RuntimeError(f"the control process exited with {proc.code}")
    return proc


def median_of(ops: List[dict], key) -> float:
    return statistics.median(key(op) for op in ops)


def end_to_end(workload, ops, maxrss_kb, setup_s, attempted, failed, extra_lines):
    """The end-to-end metrics from timed samples (dicts with ``latency``,
    ``cpu_n``, ``wall`` and ``control``) and normalised set-up times."""
    latencies = [op["latency"] for op in ops]
    value, percentile, samples = tail(latencies, TAIL_PERCENTILE[workload])
    metrics = {
        "setup_s": statistics.median(setup_s),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "cpu_s": statistics.median(op["cpu_n"] for op in ops),
        "peak_rss_mb": maxrss_kb / MiB,
        "success_ratio": (attempted - failed) / attempted,
    }
    quartiles = statistics.quantiles(latencies, n=4) if len(latencies) > 1 else latencies * 3
    extra_lines.append(f"latency quartiles {quartiles[0]:.4f} / {quartiles[1]:.4f} / "
                       f"{quartiles[2]:.4f} s over {samples} samples; latency_tail_s is "
                       f"p{percentile:.1f}; set-up reps {len(setup_s)}")
    extra_lines.append(f"raw wall p50 {median_of(ops, lambda op: op['wall']):.4f} s, "
                       f"control p50 {median_of(ops, lambda op: op['control']):.4f} s "
                       f"(times above are scaled to a {REFERENCE_START_S} s control)")
    extra_lines.append(f"failure_ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    return metrics


def ledger_metrics(traced_ops: List[dict]) -> Dict[str, float]:
    """Per-layer medians over traced verify ops."""
    def med(fn):
        return statistics.median(fn(op["ledger"]) for op in traced_ops)

    layers = sorted({name for op in traced_ops for name in op["ledger"]["self_s"]})
    extras = sorted({name for op in traced_ops for name in op["ledger"]["extras"]})
    metrics: Dict[str, float] = {}
    for layer in layers:
        metrics[f"{layer}.self_s"] = med(lambda l, k=layer: l["self_s"].get(k, 0.0))
        metrics[f"{layer}.calls"] = med(lambda l, k=layer: l["calls"].get(k, 0))
    for name in extras:
        metrics[name] = med(lambda l, k=name: l["extras"].get(k, 0))
    for field in ("closures", "find_ops", "union_ops"):
        metrics[f"smt.arena.{field}"] = med(lambda l, k=field: l["kernel"].get(k, 0))
    metrics["engine.cache.write_s"] = med(
        lambda l: sum(l["self_s"].get(name, 0.0) for name in CACHE_WRITES))
    metrics["engine.cache.write_calls"] = med(
        lambda l: sum(l["calls"].get(name, 0) for name in CACHE_WRITES))
    metrics["engine.cache.bytes_on_disk"] = med(lambda l: l["bytes_on_disk"])
    metrics["startup.spawn_s"] = med(lambda l: l["spawn_s"])
    for layer in ("startup.import", "startup.lazy_import"):
        metrics[f"{layer}_s"] = metrics.pop(f"{layer}.self_s", 0.0)
        metrics.pop(f"{layer}.calls", None)
    return metrics


def repeat_setup(setup, scratch: Scratch, once: bool) -> List[float]:
    """Normalised seconds of each repetition of ``setup``; a traced run sets up once.

    Each repetition is followed by its own control.
    """
    times: List[float] = []
    spent = 0.0
    while not times or not once and (
            len(times) < SETUP_MIN_REPS
            or spent < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS):
        started = time.perf_counter()
        setup()
        elapsed = time.perf_counter() - started
        spent += elapsed
        times.append(normalise(elapsed, interpreter_control(scratch).wall))
    return times


def verify_run(workload: VerifyWorkload, args, scratch: Scratch, lines: List[str]):
    traced_run = args.trace == 1
    setup_s = repeat_setup(workload.setup, scratch, once=traced_run)
    reference: dict = {}
    ops: List[dict] = []
    failures: List[str] = []

    def one(traced: bool, timed: bool = True) -> None:
        op = workload.run_op(traced)
        op["timed"] = timed
        reason = workload.check_op(op, reference)
        op["failed"] = bool(reason)
        if reason:
            failures.append(reason)
        ops.append(op)

    one(False, timed=False)  # warm-up: checked, not timed
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        one(False)
        if traced_run:
            one(True)
    attempted, failed = len(ops), sum(op["failed"] for op in ops)
    for reason in sorted(set(failures)):
        lines.append(f"FAILED: {reason}")
    plain = [op for op in ops if op["timed"] and not op["traced"] and not op["failed"]]
    counts = ops[0]["counts"] or {}
    lines.append("counts of the first op: "
                 + ", ".join(f"{key}={value}" for key, value in counts.items()))
    if workload.name == "edit":
        lines.append(f"edit: {len(reference)} distinct target sets over {len(ops)} ops")
    if not plain:
        return {}, attempted, failed
    if not traced_run:
        return end_to_end(workload.name, plain, max(op["maxrss_kb"] for op in ops),
                          setup_s, attempted, failed, lines), attempted, failed
    traced = [op for op in ops if op["traced"] and not op["failed"]]
    if not traced:
        return {}, attempted, failed
    metrics = ledger_metrics(traced)
    attributed = [op["ledger"]["spawn_s"] + sum(op["ledger"]["self_s"].values()) for op in traced]
    metrics["unattributed_s"] = statistics.median(
        op["wall"] - share for op, share in zip(traced, attributed))
    metrics["attributed_share"] = statistics.median(
        share / op["wall"] for op, share in zip(traced, attributed))
    plain_p50 = median_of(plain, lambda op: op["latency"])
    traced_p50 = median_of(traced, lambda op: op["latency"])
    metrics["trace_overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
    metrics["startup.interpreter_s"] = median_of(ops, lambda op: op["control"])

    def count_median(fn):
        return statistics.median(fn(op["counts"]) for op in traced)

    metrics["engine.cache.pass_hit_ratio"] = count_median(
        lambda c: c["pass_hits"] / (c["pass_hits"] + c["pass_misses"]))
    metrics["engine.cache.subgoal_hit_ratio"] = count_median(
        lambda c: c["subgoal_hits"] / max(1, c["subgoal_hits"] + c["subgoal_misses"]))
    metrics["incremental.stale_passes"] = count_median(lambda c: c["stale_passes"])
    return metrics, attempted, failed


def compile_run(args, package: Path, scratch: Scratch, lines: List[str]):
    traced_run = args.trace == 1
    tree_s = repeat_setup(lambda: prepare_tree(package, scratch.tree), scratch,
                          once=traced_run)
    children = []
    try:
        plain = CompileChild(scratch, 1 if traced_run else SUITE_BUILDS, traced=False)
        children.append(plain)
        tracer = CompileChild(scratch, 1, traced=True) if traced_run else None
        if tracer is not None:
            children.append(tracer)
        for child in children:
            child.hello = child.receive()
        control = interpreter_control(scratch)
        setup_s = [statistics.median(tree_s) + normalise(build, control.wall)
                   for build in plain.hello["setup_s"]]
        circuits = plain.hello["circuits"]
        rng = random.Random(args.seed)
        order = list(range(circuits))
        replies: List[dict] = []
        failures: List[str] = []
        loops = 0
        deadline = time.perf_counter() + args.seconds
        while loops < 2 or time.perf_counter() < deadline:
            rng.shuffle(order)
            for index in order:
                control = interpreter_control(scratch)
                for child in children:
                    reply = child.request({"op": index})
                    verified = reply["verified"]
                    reply.update(index=index, loop=loops, traced=child is tracer,
                                 wall=verified["wall_s"], control=control.wall,
                                 latency=normalise(verified["wall_s"], control.wall),
                                 cpu_n=normalise(verified["cpu_s"], control.cpu))
                    replies.append(reply)
                    if not reply["ok"]:
                        failures.append(f"{index}: {reply['reason']}")
            loops += 1
        finals = [child.close() for child in children]
    finally:
        for child in children:
            child.kill()
    gates: Dict[int, int] = {}
    for reply in replies:
        # Traced and plain children must agree too: wrapping changes no count.
        if gates.setdefault(reply["index"], reply["output_gates"]) != reply["output_gates"]:
            reply["ok"] = False
            failures.append(f"{reply['index']}: output gate count does not repeat")
    attempted = len(replies)
    failed = sum(not reply["ok"] for reply in replies)
    for reason in sorted(set(failures)):
        lines.append(f"FAILED: {reason}")
    untraced = [reply for reply in replies if not reply["traced"]]
    # Drop the first loop: it carries the oracle checks and first-use costs.
    timed = [reply for reply in untraced if reply["loop"] > 0 and reply["ok"]]
    output_gates = sum(gates.values())
    dense = sum(reply["dense_checked"] for reply in untraced)
    lines.append(f"compile: {loops} loops of {circuits} circuits, output gates "
                 f"{output_gates}, {dense} outputs dense-checked")
    if not timed:
        return {}, attempted, failed
    by_circuit: Dict[int, List[dict]] = {}
    for reply in timed:
        by_circuit.setdefault(reply["index"], []).append(reply)
    overhead = geomean([
        statistics.median(reply["verified"]["compile_s"] for reply in runs)
        / statistics.median(reply["baseline"]["compile_s"] for reply in runs)
        for runs in by_circuit.values()])
    lines.append(f"compile_overhead_x = {overhead:.4f} (geometric mean over "
                 f"{len(by_circuit)} circuits of median verified / median baseline "
                 f"compile time)")
    if not traced_run:
        # A sample is one circuit: the medians of its timed compiles.  Each
        # loop compiles every circuit once, so this weighs circuits as the
        # ops do, and the spread of one circuit's compiles stays out of the
        # percentiles.
        samples = [{key: statistics.median(reply[key] for reply in runs)
                    for key in ("latency", "cpu_n", "wall", "control")}
                   for runs in by_circuit.values()]
        return end_to_end("compile", samples, finals[0]["maxrss_kb"], setup_s,
                          attempted, failed, lines), attempted, failed
    traced = [reply for reply in replies
              if reply["traced"] and reply["loop"] > 0 and reply["ok"]]
    if not traced:
        return {}, attempted, failed
    per_loop: Dict[int, dict] = {}
    for reply in traced:
        loop = per_loop.setdefault(reply["loop"], {"self_s": {}, "calls": {}, "wall": 0.0})
        loop["wall"] += reply["verified"]["wall_s"]
        parts = [("verified", reply["verified"]["ledger"])]
        parts.append(("baseline", reply["baseline"]["ledger"]))
        for side, ledger in parts:
            for name, value in ledger["self_s"].items():
                # The op is the verified compile; baseline runs only feed
                # the baseline pass layers.
                if side == "baseline" and not name.startswith("transpiler.baseline_passes."):
                    continue
                loop["self_s"][name] = loop["self_s"].get(name, 0.0) + value
                loop["calls"][name] = loop["calls"].get(name, 0) + ledger["calls"][name]
    loops_traced = list(per_loop.values())
    metrics: Dict[str, float] = {}
    names = sorted({name for loop in loops_traced for name in loop["self_s"]})
    for name in names:
        metrics[f"{name}.self_s"] = statistics.median(
            loop["self_s"].get(name, 0.0) for loop in loops_traced)
        metrics[f"{name}.calls"] = loops_traced[0]["calls"].get(name, 0)
    op_names = [name for name in names if not name.startswith("transpiler.baseline_passes.")]
    attributed = [sum(loop["self_s"].get(name, 0.0) for name in op_names) for loop in loops_traced]
    metrics["unattributed_s"] = statistics.median(
        loop["wall"] - share for loop, share in zip(loops_traced, attributed))
    metrics["attributed_share"] = statistics.median(
        share / loop["wall"] for loop, share in zip(loops_traced, attributed))
    plain_p50 = median_of(timed, lambda reply: reply["latency"])
    traced_p50 = median_of(traced, lambda reply: reply["latency"])
    metrics["trace_overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
    metrics["compile.output_gates"] = output_gates
    metrics["compile.overhead_x"] = overhead
    metrics["compile.dense_checked"] = dense
    metrics["startup.import_s"] = tracer.hello["import_s"]
    metrics["startup.spawn_s"] = tracer.hello["first_line"] - tracer.spawned
    metrics["startup.interpreter_s"] = median_of(replies, lambda reply: reply["control"])
    return metrics, attempted, failed


def emit(metrics: Dict[str, float], section: List[dict],
         attempted: int, failed: int, lines: List[str], correct: bool) -> None:
    out = {spec["name"]: {"value": metrics.get(spec["name"], 0), "unit": spec["unit"]}
           for spec in section}
    names = list(out)
    for line in lines:
        print(line)
    width = max(len(name) for name in names)
    for name in names:
        print(f"  {name:<{width}}  {out[name]['value']:>14.6g} {out[name]['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "repro"
    if not (package / "__init__.py").is_file():
        print("perfbench: no src/repro package here; run from the repository root",
              file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [metric["name"] for metric in section]

    scratch = Scratch(root)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
             f"trace {args.trace}"]
    try:
        if args.workload == "compile":
            metrics, attempted, failed = compile_run(args, package, scratch, lines)
        else:
            workload = VerifyWorkload(args.workload, package, scratch, args.seed)
            metrics, attempted, failed = verify_run(workload, args, scratch, lines)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        scratch.remove()
    if not metrics or attempted == 0:
        for line in lines:
            print(line)
        print("perfbench: no successful op to measure", file=sys.stderr)
        return 1
    missing = [name for name in names if name not in metrics]
    if missing:
        lines.append(f"{len(missing)} metrics not reached on this workload (reported as 0)")
    emit(metrics, section, attempted, failed, lines, correct=failed == 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
