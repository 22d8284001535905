"""Workloads and the timed round that runs each of them.

A round is one closed loop over a workload's surfaces, in one process
and one thread:

1. the ladder pass: generate every ladder shape at every level, roll it
   in azimuth, verify it with every applicable check, then fit the
   minkowski-shifted convergence orders; on the flow workloads, then
   verify each n = 2 ladder shape `extra_128` more times at 128x256;
2. one in-process `cli.main` session in a scratch directory;
   (1 and 2 repeat `passes` times)
3. `verify_flow` on the workload's flow surfaces (reusing the rolled
   graphs of the first ladder pass), spread between the passes;
4. verify-ladder only: the offset-base sphere, which is not timed.

Every call into the package goes through a module attribute
(`hypersurface.gen_sphere`, ...) so the tracer's wrappers see it.  The
seed picks the order of the surfaces and each surface's azimuth roll; the
package only ever receives the generated graphs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hkverify import cli, errors, hypersurface, identities, normalflow

LADDER_CHECKS = ("minkowski-classical", "minkowski-shifted", "hk-brendle", "hk-shifted")


@dataclass(frozen=True)
class Shape:
    key: str
    n: int
    radius: float = 1.0
    offset: float = 0.0
    amp: float = 0.0
    mode: tuple = ()
    levels: tuple = (64, 128, 256)
    # the shifted curvatures stay in the order-2 Garding cone, so the
    # Alexandrov chain applies
    alexandrov: bool = True

    @property
    def is_sphere(self) -> bool:
        return self.amp == 0.0

    def grid(self, level: int) -> tuple:
        return (level, 2 * level) if self.n == 2 else (level,)

    def generate(self, level: int):
        if self.is_sphere:
            return hypersurface.gen_sphere(self.radius, self.offset, n=self.n,
                                           grid=self.grid(level))
        mode = self.mode if self.n == 2 else self.mode[0]
        return hypersurface.gen_perturbed_sphere(self.radius, self.amp, mode, n=self.n,
                                                 grid=self.grid(level))

    def checks(self) -> list:
        if self.n == 1:
            return [*LADDER_CHECKS, "gauss-bonnet"]
        return [*LADDER_CHECKS, "alexandrov"] if self.alexandrov else list(LADDER_CHECKS)


SPHERE = Shape("sphere", 2)
OFFSET = Shape("sphere-offset-0.3", 2, offset=0.3)
LOBE = Shape("lobe-2-0-amp0.05", 2, amp=0.05, mode=(2, 0))
TWIST = Shape("lobe-3-1-amp0.01", 2, amp=0.01, mode=(3, 1))
WIDE = Shape("lobe-2-0-amp0.2", 2, amp=0.2, mode=(2, 0), alexandrov=False)
CURVE = Shape("curve-2-amp0.1", 1, amp=0.1, mode=(2,), levels=(1024, 2048, 4096),
              alexandrov=False)


@dataclass(frozen=True)
class Workload:
    name: str
    ladder: tuple
    # (shape, level, window truncated by a collision) per flow; every
    # (shape, level) is also on the ladder
    flows: tuple
    offset_base: bool = False
    # ladder passes and CLI sessions per round: the flow workloads repeat
    # them so that their figures rest on as many samples as the flows allow
    passes: int = 1
    # verifications of each n = 2 ladder shape at 128x256 per pass beyond
    # the ladder's own: they add verify_s_128 samples where passes are few
    extra_128: int = 0


# Every workload runs every stage so that every metric is measured on
# every workload; the stages that a workload exists to stress are the
# expensive ones (see README.md).
WORKLOADS = {
    w.name: w for w in (
        Workload("verify-ladder", (SPHERE, OFFSET, LOBE, TWIST, CURVE),
                 ((CURVE, 1024, False), (SPHERE, 64, False)), offset_base=True),
        Workload("flow-smooth", (LOBE, SPHERE, CURVE), ((LOBE, 128, False), (SPHERE, 64, False)),
                 passes=6, extra_128=4),
        Workload("flow-truncated", (WIDE, CURVE), ((WIDE, 64, True),), passes=2, extra_128=4),
    )
}

CLI_SHAPE = ["--shape", "perturbed", "--amp", "0.05", "--mode", "2,0"]
ALL_CHECKS = "minkowski-classical,minkowski-shifted,hk-brendle,hk-shifted,alexandrov"


def cli_session(workdir: str) -> list:
    surface = f"{workdir}/surface.json"
    return [
        ["gen", *CLI_SHAPE, "--grid", "256x512", "--out", surface],
        ["verify", "--surface", surface, "--checks", ALL_CHECKS,
         "--report", f"{workdir}/report.json"],
        ["convergence", *CLI_SHAPE, "--levels", "64,128,256"],
    ]


# Offset-base operation: a centred sphere verified about a base point at
# distance OFFSET_BASE_D from its centre.
OFFSET_BASE_RADIUS = 1.0
OFFSET_BASE_D = 0.3
OFFSET_BASE_GRID = (128, 256)


def offset_base_point() -> np.ndarray:
    d = OFFSET_BASE_D
    return np.array([math.cosh(d), 0.0, 0.0, math.sinh(d)])


@dataclass
class Verified:
    shape: Shape
    level: int
    graph: object
    report: object
    seconds: float


@dataclass
class Flowed:
    shape: Shape
    level: int
    graph: object
    trace: object
    seconds: float


@dataclass
class Pass:
    """One ladder pass and one CLI session."""

    ladder_s: float = 0.0
    verified: list = field(default_factory=list)
    extra: list = field(default_factory=list)       # the extra 128x256 verifications
    orders: dict = field(default_factory=dict)      # shape key -> {series: order}
    cli_s: float = 0.0
    cli_codes: list = field(default_factory=list)
    cli_report: dict | None = None


@dataclass
class Round:
    passes: list = field(default_factory=list)
    flow_s: float = 0.0
    flows: list = field(default_factory=list)
    offset_base: object = None                    # report, or the refusal

    def operations(self) -> int:
        return (sum(len(p.verified) + len(p.extra) + len(p.cli_codes) for p in self.passes)
                + len(self.flows) + (self.offset_base is not None))


def fitted_orders(verified: list) -> dict:
    """Least-squares slope of log|rel residual| against log h, per series."""
    series: dict = {}
    for v in sorted(verified, key=lambda v: v.level):
        h = v.graph.resolution
        for r in v.report.results:
            if r.name.startswith("minkowski-shifted"):
                series.setdefault(r.name, []).append((h, max(abs(r.rel_residual), 1e-300)))
    return {
        name: float(np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)[0])
        for name, pts in series.items()
    }


def ladder_and_cli(workload: Workload, rng: np.random.Generator, scratch: str,
                   tracer) -> Pass:
    out = Pass()
    surfaces = [(shape, level) for shape in workload.ladder for level in shape.levels]
    order = rng.permutation(len(surfaces))
    rolls = {s: int(rng.integers(0, s[0].grid(s[1])[-1])) for s in surfaces}

    with tracer.span("bench.ladder"):
        start = time.perf_counter()
        for idx in order:
            shape, level = surfaces[idx]
            with tracer.span("bench.verify", {"n": shape.n, "level": level}):
                t0 = time.perf_counter()
                graph = shape.generate(level).rotated(rolls[shape, level])
                report = identities.run_verification(graph, checks=shape.checks())
                seconds = time.perf_counter() - t0
            out.verified.append(Verified(shape, level, graph, report, seconds))
        for shape in workload.ladder:
            out.orders[shape.key] = fitted_orders([v for v in out.verified if v.shape is shape])
        out.ladder_s = time.perf_counter() - start

    n2 = [shape for shape in workload.ladder if shape.n == 2]
    for _ in range(workload.extra_128):
        for idx in rng.permutation(len(n2)):
            shape = n2[idx]
            roll = int(rng.integers(0, shape.grid(128)[-1]))
            with tracer.span("bench.extra"):
                t0 = time.perf_counter()
                graph = shape.generate(128).rotated(roll)
                report = identities.run_verification(graph, checks=shape.checks())
                seconds = time.perf_counter() - t0
            out.extra.append(Verified(shape, 128, graph, report, seconds))

    workdir = tempfile.mkdtemp(prefix="cli-", dir=scratch)
    try:
        with tracer.span("bench.cli"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            for argv in cli_session(workdir):
                out.cli_codes.append(cli.main(argv))
            out.cli_s = time.perf_counter() - start
        report_path = Path(workdir, "report.json")
        if report_path.exists():
            out.cli_report = json.loads(report_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def run_round(workload: Workload, rng: np.random.Generator, scratch: str, tracer) -> Round:
    out = Round()
    flows = [workload.flows[idx] for idx in rng.permutation(len(workload.flows))]
    # flow j runs after pass j*passes//len(flows): the passes spread over
    # the round instead of bunching before a long flow, so their timings
    # sample more moments of the host
    after = [min(workload.passes - 1, j * workload.passes // len(flows))
             for j in range(len(flows))]
    with tracer.span("bench.round"):
        for k in range(workload.passes):
            out.passes.append(ladder_and_cli(workload, rng, scratch, tracer))
            if k == 0:
                graphs = {(v.shape, v.level): v.graph for v in out.passes[0].verified}
            for (shape, level, _), slot in zip(flows, after):
                if slot != k:
                    continue
                graph = graphs[shape, level]
                with tracer.span("bench.flow"):
                    t0 = time.perf_counter()
                    trace = normalflow.verify_flow(graph)
                    seconds = time.perf_counter() - t0
                out.flows.append(Flowed(shape, level, graph, trace, seconds))
                out.flow_s += seconds

    if workload.offset_base:
        with tracer.pause():
            out.offset_base = offset_base_verification()
    return out


def warm_up(workload: Workload) -> None:
    """Verify at every ladder level once, untimed and unchecked: without
    this, the first ladder pass of a run took ~9% longer than later ones."""
    levels = {}
    for shape in workload.ladder:
        for level in shape.levels:
            levels.setdefault(shape.grid(level), shape)
    for grid, shape in levels.items():
        identities.run_verification(shape.generate(grid[0]), checks=shape.checks())


def offset_base_verification():
    """Verify a centred sphere about an off-centre base point.

    Returns the report, or the PreconditionError if the package refuses.
    """
    graph = hypersurface.gen_sphere(OFFSET_BASE_RADIUS, grid=OFFSET_BASE_GRID)
    try:
        geom = hypersurface.build_geometry(graph, base=offset_base_point())
        return identities.run_verification(graph, geom=geom)
    except errors.PreconditionError as exc:
        return exc
