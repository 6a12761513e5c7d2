"""Workloads, correctness gates and the measurement loop of the tetracomm benchmark.

Each workload splits one operation into set-up (timed as ``setup_s``), the
call a user waits for (timed as ``run_s``) and a check that is never timed.
The checks compare against the paper's closed forms and against a numpy
STTSV written here, so they do not trust the code being measured.  An
operation whose check fails, or whose exact counts differ from the first
good operation of the run, counts as failed and contributes no timing.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import struct
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np
from tetracomm import bounds, partition, schedule, simulator, steiner, tensor_core

import tracing

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "finite_field.ops": "count",
    "finite_field.s": "s",
    "steiner.construct_s": "s",
    "steiner.verify_s": "s",
    "steiner.blocks": "count",
    "matching.max_matching_calls": "count",
    "matching.max_matching_s": "s",
    "matching.graph_builds": "count",
    "matching.graph_validate_s": "s",
    "matching.regular_decompose_s": "s",
    "matching.d_disjoint_s": "s",
    "partition.build_s": "s",
    "partition.validate_s": "s",
    "partition.stored_elems_max": "count",
    "schedule.demands_s": "s",
    "schedule.demands": "count",
    "schedule.build_s": "s",
    "schedule.steps": "count",
    "schedule.validate_s": "s",
    "tensor_core.load_s": "s",
    "tensor_core.sttsv_s": "s",
    "tensor_core.sttsv_calls": "count",
    "tensor_core.ternary_per_s": "1/s",
    "tensor_core.hopm_iterations": "count",
    "tensor_core.hopm_self_s": "s",
    "simulator.simulate_s": "s",
    "simulator.ternary_total": "count",
    "simulator.ternary_per_s": "1/s",
    "simulator.ternary_imbalance": "ratio",
    "simulator.messages_per_vector": "count",
    "simulator.words_sent_total": "words",
    "simulator.compute_report_s": "s",
    "simulator.verify_self_s": "s",
    "bounds.lower_bound": "words",
    "words_per_vector_max": "words",
    "steps_per_vector": "count",
    "bound_ratio": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow")
OUTPUT_RTOL = 1e-12  # the program's own verify_run tolerance
RESIDUAL_RTOL = 1e-8
PLANTED_OVERLAP = 0.99


# ---------------------------------------------------------------------------
# inputs and independent references
# ---------------------------------------------------------------------------


def packed_slabs(n: int):
    """(i, j, k, offset) per slab i of the packed lower tetrahedron, 0-based.

    Slab i holds entries (i, j, k) with i >= j >= k, j-major, which is the
    order ``np.tril_indices`` produces.
    """
    offset = 0
    for i in range(n):
        j, k = np.tril_indices(i + 1)
        yield i, j, k, offset
        offset += j.size


def reference_sttsv(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = T x x over all (j, k), from packed storage with numpy only.

    Each stored entry contributes c*a to every ordered position, where
    c = (number of distinct permutations)/3, so the three bincounts add up
    the full symmetric sum.
    """
    n = x.size
    y = np.zeros(n)
    for i, j, k, off in packed_slabs(n):
        a = data[off : off + j.size]
        c = np.where((j != i) & (j != k), 2.0, np.where(k == i, 1.0 / 3.0, 1.0))
        ca = c * a
        y[i] += ca @ (x[j] * x[k])
        y += np.bincount(j, ca * x[i] * x[k], minlength=n)
        y += np.bincount(k, ca * x[i] * x[j], minlength=n)
    return y


def paper_words(q: int, n: int) -> Fraction:
    """Words each processor sends per vector: n(q+1)/(q^2+1) - n/P."""
    return Fraction(n * (q + 1), q * q + 1) - Fraction(n, q * (q * q + 1))


def paper_steps(q: int) -> int:
    """Communication steps per vector: q^3/2 + 3q^2/2 - 1."""
    return (q**3 + 3 * q * q - 2) // 2


def comm_counts(q: int, n: int, words: list[int], steps: int, problems: list[str]) -> dict:
    """Gate per-processor words and steps against the paper; return the exact counts."""
    P = q * (q * q + 1)
    want_words, want_steps = paper_words(q, n), paper_steps(q)
    if len(words) != P or set(words) != {want_words}:
        problems.append(f"words per vector {sorted(set(words))[:4]} over {len(words)} processors, paper says {want_words} on {P}")
    if steps != want_steps:
        problems.append(f"{steps} steps per vector, paper says {want_steps}")
    bound = bounds.lower_bound(n, P)
    return {
        "words_per_vector_max": max(words),
        "steps_per_vector": steps,
        "bound_ratio": 2 * max(words) / bound,
        "bounds.lower_bound": bound,
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def design_setup(q: int, n: int):
    system = steiner.construct_spherical(q)
    part = partition.build_partition(system)
    return system, part, partition.vector_layout(n, part)


@dataclass
class DesignWorkload:
    """Design, partition and p2p schedule at one q; no tensor."""

    q: int
    n: int
    setup_repeats: int = 1
    tensor_n = 0

    def inputs(self, seed: int, workdir: Path):
        return None  # the design is fixed by q; nothing here is random

    def setup(self, inputs):
        return design_setup(self.q, self.n)

    def run(self, inputs, state):
        system, part, layout = state
        demands = schedule.build_demands(part)
        sched = schedule.build_schedule(demands)
        return {
            "steiner": steiner.verify(system),
            "partition": partition.validate_partition(part),
            "schedule": sched,
            "schedule_report": schedule.validate(sched, demands, layout.chunk),
        }

    def check(self, inputs, state, out):
        system, part, layout = state
        problems = []
        if not out["steiner"].passed:
            problems.append("steiner.verify failed: " + ", ".join(c.name for c in out["steiner"].checks if not c.passed))
        problems += [f"partition: {p}" for p in out["partition"]]
        report = out["schedule_report"]
        problems += [f"schedule: {p}" for p in report.problems[:3]]
        volume = report.send_volume
        counts = comm_counts(self.q, self.n, [volume.get(p, 0) for p in range(1, part.P + 1)], len(out["schedule"].steps), problems)
        counts["steiner.blocks"] = len(system.blocks)
        counts["partition.stored_elems_max"] = max(partition.storage_count(part, self.n, p) for p in range(1, part.P + 1))
        return problems, counts


@dataclass
class VerifyInputs:
    tensor: object
    x: np.ndarray
    y_ref: np.ndarray


@dataclass
class VerifyWorkload:
    """``tetracomm simulate --mode p2p``: design, partition, layout, verify_run."""

    q: int
    n: int
    setup_repeats: int = 10

    @property
    def tensor_n(self) -> int:
        return self.n

    def inputs(self, seed: int, workdir: Path) -> VerifyInputs:
        rng = np.random.default_rng(seed)
        data = rng.uniform(-1.0, 1.0, size=tensor_core.lower_tetra_count(self.n))
        x = rng.uniform(-1.0, 1.0, size=self.n)
        return VerifyInputs(tensor_core.PackedSymTensor(self.n, data), x, reference_sttsv(data, x))

    def setup(self, inputs):
        return design_setup(self.q, self.n)

    def run(self, inputs, state):
        system, part, layout = state
        return simulator.verify_run(inputs.tensor, inputs.x, part, layout, mode="p2p")

    def check(self, inputs, state, verdict):
        system, part, layout = state
        problems = [f"verify_run {c.name}: {c.detail}" for c in verdict.checks if not c.passed]
        report = verdict.report
        if report is None:
            return problems + ["verify_run returned no report"], {}
        rel = float(np.linalg.norm(report.y - inputs.y_ref) / np.linalg.norm(inputs.y_ref))
        if not rel <= OUTPUT_RTOL:
            problems.append(f"y differs from the numpy reference by {rel:.3e}")
        sent_x = [c.sent_x for c in report.per_proc]
        if [c.sent_y for c in report.per_proc] != sent_x:
            problems.append("y phase sends other volumes than the x phase")
        counts = comm_counts(self.q, self.n, sent_x, report.steps_per_vector, problems)
        ternary = [c.ternary_mults for c in report.per_proc]
        if sum(ternary) != self.n * self.n * (self.n + 1) // 2:
            problems.append(f"{sum(ternary)} ternary multiplications, sequential kernel needs {self.n * self.n * (self.n + 1) // 2}")
        counts.update({
            "steiner.blocks": len(system.blocks),
            "partition.stored_elems_max": max(c.tensor_elems for c in report.per_proc),
            "simulator.ternary_total": sum(ternary),
            "simulator.ternary_imbalance": max(ternary) * len(ternary) / sum(ternary) if sum(ternary) else 0.0,
            "simulator.words_sent_total": report.total_sent,
        })
        return problems, counts


@dataclass
class HopmInputs:
    path: Path
    data: np.ndarray
    planted: np.ndarray
    x0: np.ndarray


@dataclass
class HopmWorkload:
    """HOPM on a planted rank-one tensor read from a file the harness writes.

    The tensor is LAM * v⊗v⊗v plus uniform noise of scale NOISE/sqrt(n),
    and the start vector has overlap START_OVERLAP with v.  With these
    values HOPM takes the same number of iterations on every seed tried
    (9 on 100 seeds), so time to solution does not depend on the seed; a
    random start takes 17 to 37 iterations, and a random tensor without a
    planted vector does not converge at all.
    """

    n: int
    setup_repeats: int = 25
    LAM = 10.0
    NOISE = 0.25
    START_OVERLAP = 0.5

    @property
    def tensor_n(self) -> int:
        return self.n

    def inputs(self, seed: int, workdir: Path) -> HopmInputs:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        data = np.empty(tensor_core.lower_tetra_count(self.n))
        for i, j, k, off in packed_slabs(self.n):
            data[off : off + j.size] = self.LAM * v[i] * v[j] * v[k]
        data += self.NOISE * rng.uniform(-1.0, 1.0, size=data.size) / math.sqrt(self.n)
        path = workdir / f"planted-{self.n}-{seed}.pst3"
        path.write_bytes(struct.pack("<4sQ", b"PST3", self.n) + data.astype("<f8").tobytes())
        g = rng.standard_normal(self.n)
        g -= (g @ v) * v
        x0 = self.START_OVERLAP * v + math.sqrt(1.0 - self.START_OVERLAP**2) * g / np.linalg.norm(g)
        return HopmInputs(path, data, v, x0)

    def setup(self, inputs):
        return tensor_core.load_tensor(inputs.path)

    def run(self, inputs, tensor):
        return tensor_core.hopm(tensor, tol=1e-10, max_iters=200, x0=inputs.x0)

    def check(self, inputs, tensor, result):
        problems = []
        if not np.array_equal(tensor.data, inputs.data):
            problems.append("load_tensor returned other values than the file holds")
        if not result.converged:
            problems.append(f"hopm did not converge in {result.iterations} iterations")
        overlap = abs(float(result.x @ inputs.planted))
        if not overlap >= PLANTED_OVERLAP:
            problems.append(f"|<x, v_planted>| = {overlap:.4f} < {PLANTED_OVERLAP}")
        residual = np.linalg.norm(reference_sttsv(inputs.data, result.x) - result.lam * result.x) / abs(result.lam)
        if not residual <= RESIDUAL_RTOL:
            problems.append(f"eigen-residual {residual:.3e} > {RESIDUAL_RTOL}")
        return problems, {"tensor_core.hopm_iterations": result.iterations}


WORKLOADS = {
    "design-q7": lambda: DesignWorkload(q=7, n=2800),
    "verify-q4-n340": lambda: VerifyWorkload(q=4, n=340),
    "hopm-n120": lambda: HopmWorkload(n=120),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class OpRecord:
    setup_s: list[float] = field(default_factory=list)
    run_s: float = math.nan
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    trace: tracing.OpTrace | None = None

    @property
    def wall_s(self) -> float:
        return self.setup_s[-1] + self.run_s


def run_op(workload, inputs, traced: bool) -> OpRecord:
    """One operation: set-up (repeated), the timed call, then the untimed check."""
    gc.collect()
    op = OpRecord()
    tracer = tracing.Tracer()
    repeats = 1 if traced else workload.setup_repeats
    try:
        with tracing.recorded(tracer) if traced else nullcontext():
            for _ in range(repeats):
                t0 = perf_counter()
                state = workload.setup(inputs)
                op.setup_s.append(perf_counter() - t0)
            t0 = perf_counter()
            out = workload.run(inputs, state)
            op.run_s = perf_counter() - t0
        op.problems, op.counts = workload.check(inputs, state, out)
    except Exception:  # a crash in the program is a failed operation, not a harness error
        op.problems = [traceback.format_exc(limit=-3)]
    if traced:
        op.trace = tracer.summary()
    return op


def flag_count_drift(ops: list[OpRecord]) -> None:
    """Fail every operation whose exact counts differ from the first good one."""
    good = [op for op in ops if not op.problems]
    for op in good[1:]:
        if op.counts != good[0].counts:
            op.problems.append("exact counts differ from the first operation of this run")
    traced = [op for op in good if op.trace is not None]
    for op in traced[1:]:
        if (op.trace.calls, op.trace.counts) != (traced[0].trace.calls, traced[0].trace.counts):
            op.problems.append("call counts differ from the first traced operation of this run")


def layer_metrics(t: tracing.OpTrace, counts: dict, tensor_n: int) -> dict:
    s, calls = t.self_s, t.calls
    sttsv_s, sim_s = t.total_s["tensor_core.sttsv"], s["simulator.simulate"]
    ternary_per_call = tensor_n * tensor_n * (tensor_n + 1) // 2
    values = {
        "finite_field.ops": sum(calls[f"finite_field.{op}"] for op in FIELD_OPS),
        "finite_field.s": sum(v for name, v in s.items() if name.startswith("finite_field.")),
        "steiner.construct_s": s["steiner.construct"],
        "steiner.verify_s": s["steiner.verify"],
        "matching.max_matching_calls": calls["matching.max_matching"],
        "matching.max_matching_s": s["matching.max_matching"],
        "matching.graph_builds": calls["matching.graph_validate"],
        "matching.graph_validate_s": s["matching.graph_validate"],
        "matching.regular_decompose_s": s["matching.regular_decompose"],
        "matching.d_disjoint_s": s["matching.d_disjoint"],
        "partition.build_s": s["partition.build"] + s["partition.layout"],
        "partition.validate_s": s["partition.validate"],
        "schedule.demands_s": s["schedule.demands"],
        "schedule.build_s": s["schedule.build"],
        "schedule.validate_s": s["schedule.validate"],
        "tensor_core.load_s": s["tensor_core.load"],
        "tensor_core.sttsv_s": sttsv_s,
        "tensor_core.sttsv_calls": calls["tensor_core.sttsv"],
        "tensor_core.ternary_per_s": ternary_per_call * calls["tensor_core.sttsv"] / sttsv_s if sttsv_s else 0.0,
        "tensor_core.hopm_self_s": s["tensor_core.hopm"],
        "simulator.simulate_s": sim_s,
        "simulator.ternary_per_s": counts.get("simulator.ternary_total", 0) / sim_s if sim_s else 0.0,
        "simulator.compute_report_s": s["simulator.compute_report"],
        "simulator.verify_self_s": s["simulator.verify_run"],
        "trace.spans": t.spans,
    }
    for name in PER_LAYER:
        values.setdefault(name, t.counts.get(name, counts.get(name, 0)))
    return values


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def environment(thread_caps: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = os.uname().machine
    try:
        models = [line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass  # no /proc: the architecture name is all there is
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "thread_caps": thread_caps,
    }


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Run operations for ``seconds``; return (result, record).

    With ``trace`` the operations alternate untraced and traced, starting
    untraced, so the traced-minus-untraced wall time is the tracing overhead.
    """
    inputs = workload.inputs(seed, workdir)
    ops: list[OpRecord] = []
    start = perf_counter()
    while len(ops) < (2 if trace else 1) or perf_counter() - start < seconds:
        ops.append(run_op(workload, inputs, traced=trace and len(ops) % 2 == 1))
    flag_count_drift(ops)
    good = [op for op in ops if not op.problems]

    traced = [op for op in good if op.trace is not None]
    if trace:
        per_op = [layer_metrics(op.trace, op.counts, workload.tensor_n) for op in traced]
        # the lower median is one measured operation, so exact counts stay integers
        values = {name: statistics.median_low(m[name] for m in per_op) if per_op else 0 for name in PER_LAYER}
        untraced_wall = [op.wall_s for op in good if op.trace is None]
        if traced and untraced_wall:
            values["trace.overhead_s"] = statistics.median(op.wall_s for op in traced) - statistics.median(untraced_wall)
        units = PER_LAYER
    else:
        values = {
            "setup_s": median_or_zero(t for op in good for t in op.setup_s),
            "run_s": median_or_zero(op.run_s for op in good),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    result = {
        "correct": not any(op.problems for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "seed": seed,
        "counts": good[0].counts if good else {},
        "calls": dict(sorted(traced[0].trace.calls.items())) if traced else {},
        "setup_s": [t for op in ops for t in op.setup_s],
        "run_s": [op.run_s for op in ops],
        "traced": [op.trace is not None for op in ops],
        "problems": [p for op in ops for p in op.problems][:10],
    }
    return result, record
