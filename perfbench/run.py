"""Benchmark of the ``dfnvem solve`` pipeline.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload single-random --seed 0 \
        --seconds 36 --trace 0

Each operation is one in-process call of ``dfnvem.cli.main(["solve", ...])``
with ``--threads 1``, the entry point users run.  The load is a closed
loop: one solve at a time in one process, BLAS pinned to one thread.
After a warm-up solve at the workload's smallest size, the run repeats
the solve until ``--seconds`` would be exceeded and checks every output.
The host's speed drifts, so each solve's and each set-up's time is
scaled to a fixed reference speed measured alongside it (``speed.py``).

``--trace 0`` reports the end-to-end metrics (``wall_ref_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` wraps the named public functions of each
``dfnvem`` module with timing spans and reports the per-layer metrics
instead.  See ``perfbench/README.md`` for the metric definitions, the
layer-to-workload mapping and the known defect the checks leave ungated.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: one BLAS/OpenMP thread, no solver pool.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "DFN_VEM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

RESIDUAL_MAX = 1e-8
IMBALANCE_MAX = 1e-8
EXACT_LINEAR_MAX = 1e-9    # err_p / err_p_hat when p = x is exact
REF_RTOL = 1e-8            # err_p / err_p_hat against the recorded values
SETUP_REPEATS = 7
NETWORKS_PER_RUN = 2       # seeded networks a network-cc run alternates


@dataclass
class Workload:
    name: str
    base: list                 # solve arguments at the measured size
    warmup: list               # same case at its smallest size
    coarse: list               # one size coarser, for scaling exponents
    refs: dict = field(default_factory=dict)   # err name -> reference
    gate_balance: bool = True  # summary flux balance is trustworthy
    networks: bool = False     # inputs are seeded network files


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "single-random",
            ["--case", "single", "--family", "random", "--level", "5",
             "--model", "cc"],
            ["--case", "single", "--family", "random", "--level", "1",
             "--model", "cc"],
            ["--case", "single", "--family", "random", "--level", "4",
             "--model", "cc"],
            refs={"err_p": 0.00016743247099251625},
        ),
        Workload(
            "network-cc",
            ["--h", "0.1", "--model", "cc"],
            ["--h", "0.5", "--model", "cc"],
            ["--h", "0.14", "--model", "cc"],
            networks=True,
        ),
        Workload(
            "ellipses-dc-coarse",
            ["--case", "intersection-flow", "--family", "coarse4",
             "--level", "5", "--model", "dc"],
            ["--case", "intersection-flow", "--family", "coarse4",
             "--level", "1", "--model", "dc"],
            ["--case", "intersection-flow", "--family", "coarse4",
             "--level", "4", "--model", "dc"],
            refs={"err_p": 0.024949264692348084,
                  "err_p_hat": 0.012949682907457676},
            # cli.global_flux_balance leaves out the outflow through
            # Dirichlet intersection ends in dc runs (see README.md).
            gate_balance=False,
        ),
    )
}


def network_seeds(seed: int) -> list:
    # Non-negative for any run seed, as numpy's generators require.
    return [(seed * NETWORKS_PER_RUN + i) % 2**63
            for i in range(NETWORKS_PER_RUN)]


# ------------------------------------------------------------------ #
# set-up
# ------------------------------------------------------------------ #

def import_program():
    """Import ``dfnvem.cli`` from this checkout's ``src`` directory."""
    import dfnvem.cli
    origin = Path(dfnvem.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"dfnvem imported from {origin}, not from {SRC}")
    return dfnvem.cli


def write_inputs(wl: Workload, seed: int, work: Path) -> list:
    """Write the workload's input files; returns per-input solve args."""
    if not wl.networks:
        return [[]]
    import network
    out = []
    for s in network_seeds(seed):
        path = work / f"net{s}.json"
        network.write_network(path, s)
        out.append(["--network", str(path)])
    return out


def setup_probe(workload: str, seed: int, work: Path) -> None:
    """Fresh-process set-up: import the program, write the inputs."""
    import_program()
    write_inputs(WORKLOADS[workload], seed, work)


def measure_setup(workload: str, seed: int, work: Path) -> tuple:
    """Fresh-process set-up times, unscaled and at the probe's nominal speed.

    The speed probe's kernel runs in this process right before and right
    after each set-up process, whose imports it cannot sample from here.
    """
    from speed import SpeedProbe
    probe = SpeedProbe()
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probe.samples = []
        probe.kernels()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--work", str(work)],
            capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        probe.kernels()
        scaled.append(probe.scaled(walls[-1]))
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: " + proc.stderr.strip()[-500:])
    return walls, scaled


# ------------------------------------------------------------------ #
# operations and their checks
# ------------------------------------------------------------------ #

@dataclass
class Op:
    label: str
    out: Path
    seconds: float
    exit_code: int
    summary: dict
    hashes: dict
    problems: list


def run_solve(cli, args: list, out: Path, call=None) -> tuple:
    """One ``dfnvem solve``; returns (seconds, exit code, stderr tail)."""
    if out.exists():
        shutil.rmtree(out)
    argv = ["solve", *args, "--out", str(out), "--threads", "1"]
    gc.collect()    # start every solve from the same heap, garbage-free
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = call(cli.main, argv) if call else cli.main(argv)
        except SystemExit as exc:          # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:           # noqa: BLE001 - counted as failed
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - t0
    return seconds, code, err.getvalue().strip()[-300:]


def vtk_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.vtk"))}


def _read_vtk(path: Path):
    """Points, cell loops and the cell pressure of a legacy VTK file."""
    lines = path.read_text(encoding="ascii").splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("POINTS"))
    n_pts = int(lines[i].split()[1])
    pts = [tuple(map(float, ln.split())) for ln in lines[i + 1:i + 1 + n_pts]]
    i += 1 + n_pts
    n_cells = int(lines[i].split()[1])
    cells = [list(map(int, ln.split()[1:]))
             for ln in lines[i + 1:i + 1 + n_cells]]
    j = next(k for k, ln in enumerate(lines) if ln.startswith("SCALARS"))
    pressure = [float(v) for v in lines[j + 2:j + 2 + n_cells]]
    return pts, cells, pressure


def _polygon_centroid(pts):
    """Area and centroid of a planar polygon in 3D (fan from vertex 0)."""
    p = np.asarray(pts)
    tri_a = np.cross(p[1:-1] - p[0], p[2:] - p[0])
    area = 0.5 * np.linalg.norm(tri_a.sum(axis=0))
    w = np.linalg.norm(tri_a, axis=1)
    cent = ((p[0] + p[1:-1] + p[2:]) / 3.0 * w[:, None]).sum(axis=0) / w.sum()
    return area, cent


def linear_exact_errors(out: Path) -> dict:
    """Relative L2 errors against p = x, read back from the VTK output.

    Cell pressures are compared with x at the polygon centroids, weighted
    by area; the cc multipliers with x at the trace element midpoints,
    weighted by length.
    """
    errs = {}
    vtk = [p for p in out.glob("*.vtk") if not p.name.endswith("_lines.vtk")]
    pts, cells, pressure = _read_vtk(vtk[0])
    num = den = 0.0
    for loop, p in zip(cells, pressure):
        area, c = _polygon_centroid([pts[v] for v in loop])
        num += area * (p - c[0]) ** 2
        den += area * c[0] ** 2
    errs["err_p"] = math.sqrt(num / den)
    lines = list(out.glob("*_lines.vtk"))
    if lines:
        pts, segs, pressure = _read_vtk(lines[0])
        num = den = 0.0
        for (a, b), p in zip(segs, pressure):
            length = math.dist(pts[a], pts[b])
            x = 0.5 * (pts[a][0] + pts[b][0])
            num += length * (p - x) ** 2
            den += length * x ** 2
        errs["err_p_hat"] = math.sqrt(num / den)
    return errs


def check(wl: Workload, op: Op, timed: bool, out: Path) -> None:
    """Append every failed correctness check of one operation to op.problems."""
    if op.exit_code != 0:
        op.problems.append(f"exit code {op.exit_code}")
        return
    res = op.summary.get("residual")
    if res is None or not res <= RESIDUAL_MAX:
        op.problems.append(f"residual {res}")
    imb = op.summary.get("flux_balance", {}).get("relative_imbalance")
    if wl.gate_balance and (imb is None or not imb <= IMBALANCE_MAX):
        op.problems.append(f"flux imbalance {imb}")
    if wl.networks:     # p = x is exact at every mesh size
        for name, val in linear_exact_errors(out).items():
            op.summary.setdefault("errors", {})[name] = val
            if not val <= EXACT_LINEAR_MAX:
                op.problems.append(f"{name} {val:.3e} vs exact p = x")
    if not timed:       # the references hold at the measured size only
        return
    for name, ref in wl.refs.items():
        val = op.summary.get("errors", {}).get(name)
        if val is None or not abs(val - ref) <= REF_RTOL * ref:
            op.problems.append(f"{name} {val} != reference {ref}")


def do_op(cli, wl, label, args, out, timed, call=None) -> Op:
    seconds, code, err = run_solve(cli, args, out, call)
    summary = {}
    if code == 0:
        summary = json.loads((out / "summary.json").read_text())
    op = Op(label, out, seconds, code, summary, vtk_hashes(out), [])
    if err and code != 0:
        op.problems.append(err)
    check(wl, op, timed, out)
    return op


# ------------------------------------------------------------------ #
# traced run
# ------------------------------------------------------------------ #

def install_spans(tracer, solutions: dict):
    """Wrap the named public functions of each dfnvem module.

    ``solutions`` receives ``run id -> (system, Solution)`` from every
    ``extract_solution`` call.
    """
    from dfnvem import (assembly, coarsening, geometry, meshing, postprocess,
                        solver, vem)

    def cells(res, args, kw):
        # random_mesh builds on cartesian_mesh: count the outer mesh only.
        if tracer.parent_name() in MESH_SPANS:
            return {}
        return {"mesh_cells": res.n_cells}

    def network(res, args, kw):
        return {"n_lines": len(res.lines), "n_points": len(res.points)}

    def split(res, args, kw):
        mesh, traces, fid = args[:3]
        return {"n_trace_edges": sum(len(tm.edges[fid])
                                     for tm in traces.values()
                                     if fid in tm.edges)}

    def agglomerate(res, args, kw):
        return {"fine_cells": args[0].n_cells, "coarse_cells": res[0].n_cells}

    def system(res, args, kw):
        return {"n_dofs": res.size, "nnz": res.A.nnz}

    def solve(res, args, kw):
        return {"residual": res.residual}

    def splu(res, args, kw):
        return {"lu_fill": res.L.nnz + res.U.nnz}

    def exported(res, args, kw):
        return {"export_bytes": os.path.getsize(args[2])}

    def extracted(res, args, kw):
        solutions[tracer.run] = (args[0], res)

    spans = [
        (geometry, "build_network", "geometry.build_network", network),
        (meshing, "triangulate_fracture", "meshing.triangulate_fracture", cells),
        (meshing, "random_mesh", "meshing.random_mesh", cells),
        (meshing, "cartesian_mesh", "meshing.cartesian_mesh", cells),
        (assembly, "corefine_network", "meshing.corefine_network", None),
        (assembly, "split_interface_dofs", "meshing.split_interface_dofs", split),
        (coarsening, "agglomerate", "coarsening.agglomerate", agglomerate),
        (coarsening, "tpfa_matrix", "coarsening.tpfa_matrix", None),
        (vem, "local_matrices_2d", "vem.local_matrices_2d", None),
        (assembly, "prepare_problem", "assembly.prepare_problem", None),
        (assembly, "build_dof_map", "assembly.build_dof_map", None),
        (assembly, "assemble_cc", "assembly.assemble_cc", system),
        (assembly, "assemble_dc", "assembly.assemble_dc", system),
        (assembly, "apply_bc", "assembly.apply_bc", None),
        (assembly, "extract_solution", "assembly.extract_solution", extracted),
        (solver, "solve", "solver.solve", solve),
        (solver.spla, "splu", "solver.splu", splu),
        (postprocess, "relative_errors", "postprocess.relative_errors", None),
        (postprocess, "export_vtk", "postprocess.export_vtk", exported),
        (postprocess, "export_line_vtk", "postprocess.export_line_vtk", exported),
    ]
    for module, attr, name, hook in spans:
        tracer.wrap(module, attr, name, hook)


MESH_SPANS = {"meshing.triangulate_fracture", "meshing.random_mesh",
              "meshing.cartesian_mesh"}
ASSEMBLE_SPANS = {"assembly.assemble_cc", "assembly.assemble_dc"}
EXPORT_SPANS = {"postprocess.export_vtk", "postprocess.export_line_vtk"}
# Disjoint pipeline stages, for naming the largest one.
STAGES = ("geometry.build_network_s", "meshing.mesh_s", "meshing.corefine_s",
          "meshing.split_s", "coarsening.agglomerate_s", "assembly.dofmap_s",
          "assembly.assemble_s", "assembly.extract_s", "solver.solve_s",
          "postprocess.errors_s", "postprocess.export_s")
# Stages whose growth with the cell count is reported as <stage>.exp.
SCALING = {
    "meshing.mesh": MESH_SPANS,
    "meshing.split": {"meshing.split_interface_dofs"},
    "coarsening.agglomerate": {"coarsening.agglomerate"},
    "assembly.assemble": ASSEMBLE_SPANS,
    "assembly.extract": {"assembly.extract_solution"},
    "solver.solve": {"solver.solve"},
}


def full_balance(system, solution) -> float:
    """Relative flux imbalance of a solve, intersection ends included.

    Boundary outflow of every fracture plus the 1D flux leaving through
    the intersection ends, ``line_flux[g][-1] - line_flux[g][0]`` (zero
    at tips), against the total injected source.  Kept independent of
    ``cli.global_flux_balance``, which omits the intersection ends.
    """
    problem = system.problem
    out = scale = source = 0.0
    for fid, mesh in problem.meshes.items():
        flux = solution.edge_flux[fid][mesh.boundary_edges]
        out += float(flux.sum())
        scale += float(np.abs(flux).sum())
        if problem.source is not None:
            c3 = mesh.frame.to_global(mesh.cell_centroids)
            source += float(mesh.cell_areas
                            @ np.asarray(problem.source(fid, c3), float))
    for f in solution.line_flux.values():
        out += float(f[-1] - f[0])
        scale += abs(float(f[-1])) + abs(float(f[0]))
    source += sum(s for _, _, s in problem.point_sources)
    if problem.line_source is not None:
        for gid, tm in problem.traces.items():
            source += float(tm.elem_len @ np.asarray(
                problem.line_source(gid, tm.elem_mid_3d()), float))
    return abs(out - source) / max(scale, abs(source), 1e-300)


# Span names each per-layer metric is built on; a metric whose spans were
# all missing from the program (renamed by a refactor) is left out.
NEEDS = {
    "geometry.": {"geometry.build_network"},
    "meshing.mesh_s": MESH_SPANS,
    "meshing.n_cells": MESH_SPANS,
    "meshing.corefine_s": {"meshing.corefine_network"},
    "meshing.split": {"meshing.split_interface_dofs"},
    "meshing.n_trace_edges": {"meshing.split_interface_dofs"},
    "coarsening.tpfa_s": {"coarsening.tpfa_matrix"},
    "coarsening.": {"coarsening.agglomerate"},
    "vem.": {"vem.local_matrices_2d"},
    "assembly.prepare_s": {"assembly.prepare_problem"},
    "assembly.dofmap_s": {"assembly.build_dof_map"},
    "assembly.apply_bc_s": {"assembly.apply_bc"},
    "assembly.extract": {"assembly.extract_solution"},
    "assembly.full_imbalance": {"assembly.extract_solution"},
    "assembly.": ASSEMBLE_SPANS,
    "solver.lu_fill": {"solver.splu"},
    "solver.": {"solver.solve"},
    "postprocess.errors_s": {"postprocess.relative_errors"},
    "postprocess.export": EXPORT_SPANS,
}


def available(name: str, wrapped: set) -> bool:
    for prefix, names in NEEDS.items():
        if name.startswith(prefix):
            return bool(names & wrapped)
    return True


def layer_metrics(tracer, run: int, wall_untraced: float, cpu_s: float) -> dict:
    def t(*names):
        return tracer.total(run, set(names))

    c = functools.partial(tracer.count, run)
    n_edges = c("n_trace_edges")
    coarse = c("coarse_cells")
    m = {
        "geometry.build_network_s": t("geometry.build_network"),
        "geometry.n_lines": c("n_lines"),
        "geometry.n_points": c("n_points"),
        "meshing.mesh_s": t(*MESH_SPANS),
        "meshing.n_cells": c("mesh_cells"),
        "meshing.corefine_s": t("meshing.corefine_network"),
        "meshing.split_s": t("meshing.split_interface_dofs"),
        "meshing.n_trace_edges": n_edges,
        "meshing.split_us_per_trace_edge":
            1e6 * t("meshing.split_interface_dofs") / n_edges if n_edges else 0.0,
        "coarsening.agglomerate_s": t("coarsening.agglomerate"),
        "coarsening.tpfa_s": t("coarsening.tpfa_matrix"),
        # Without agglomeration every mesh cell is its own coarse cell.
        "coarsening.coarse_ratio": c("fine_cells") / coarse if coarse else 1.0,
        "vem.local_2d_calls": tracer.calls(run, "vem.local_matrices_2d"),
        "vem.local_2d_s": t("vem.local_matrices_2d"),
        "assembly.prepare_s": t("assembly.prepare_problem"),
        "assembly.dofmap_s": t("assembly.build_dof_map"),
        "assembly.assemble_s": t(*ASSEMBLE_SPANS),
        "assembly.assemble_self_s": tracer.self_time(run, ASSEMBLE_SPANS),
        "assembly.apply_bc_s": t("assembly.apply_bc"),
        "assembly.extract_s": t("assembly.extract_solution"),
        "assembly.n_dofs": c("n_dofs"),
        "assembly.nnz": c("nnz"),
        "solver.solve_s": t("solver.solve"),
        "solver.lu_fill": c("lu_fill"),
        "solver.residual": c("residual"),
        "postprocess.errors_s": t("postprocess.relative_errors"),
        "postprocess.export_s": t(*EXPORT_SPANS),
        "postprocess.export_bytes": c("export_bytes"),
        "cli.self_s": tracer.self_time(run, {"cli.main"}),
        "cli.cpu_s": cpu_s,
        "trace.overhead_frac": t("cli.main") / wall_untraced - 1.0,
    }
    return {k: v for k, v in m.items() if available(k, tracer.wrapped)}


def scaling(tracer, fine: int, coarse: int) -> dict:
    n_f = tracer.count(fine, "mesh_cells")
    n_c = tracer.count(coarse, "mesh_cells")
    out = {}
    for stage, names in SCALING.items():
        if not names & tracer.wrapped:
            continue
        t_f, t_c = tracer.total(fine, names), tracer.total(coarse, names)
        ok = t_f > 0 and t_c > 0 and n_f > n_c > 0
        # A stage that does not run on the workload grows by nothing.
        out[f"{stage}.exp"] = (math.log(t_f / t_c) / math.log(n_f / n_c)
                               if ok else 0.0)
    return out


# ------------------------------------------------------------------ #
# entry point
# ------------------------------------------------------------------ #

def vtk_cells(out: Path) -> int:
    """Number of polygons in the fracture VTK file of a solve."""
    for path in out.glob("*.vtk"):
        if not path.name.endswith("_lines.vtk"):
            with open(path, encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("CELLS"):
                        return int(line.split()[1])
    return 0


def environment(wl, seed, first: Op) -> dict:
    import scipy
    s = first.summary
    return {
        "workload": wl.name, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "pinned_env": THREAD_ENV,
        "input": {"cells": vtk_cells(first.out), "dofs": s.get("size"),
                  "nnz": round(s.get("sparsity", 0.0) * s.get("size", 0) ** 2),
                  "network_seeds": network_seeds(seed) if wl.networks else None},
    }


def measure(cli, wl: Workload, inputs: list, seconds: float, work: Path):
    """Warm up, then repeat the solve while the time budget allows.

    Every timed solve runs under ``SpeedProbe.sampling``; returns the
    operations, the timed ones, and each timed solve's wall time less
    the probe's and its time scaled to the probe's nominal speed.
    """
    from speed import SpeedProbe
    probe = SpeedProbe()

    def sampled(fn, argv):
        with probe.sampling():
            return fn(argv)

    ops = [do_op(cli, wl, "warmup", inputs[0] + wl.warmup, work / "warmup",
                 timed=False, call=sampled)]
    timed, first, walls, scaled = [], {}, [], []
    t0 = time.perf_counter()
    while True:
        k = len(timed) % len(inputs)
        op = do_op(cli, wl, f"solve {len(timed)}", inputs[k] + wl.base,
                   work / f"input{k}", timed=True, call=sampled)
        walls.append(probe.work_s)
        scaled.append(probe.scaled_s)
        # The same input solved again must give byte-identical VTK output.
        if first.setdefault(k, op.hashes) != op.hashes:
            op.problems.append("VTK output differs between repeats")
        timed.append(op)
        spent = time.perf_counter() - t0
        if spent + spent / len(timed) > seconds:
            break
    return ops + timed, walls, scaled


def traced_run(cli, wl, inputs, work):
    """Untraced, traced and traced-coarse solves of the first input."""
    from spans import Tracer
    tracer = Tracer()
    solutions = {}
    args = inputs[0]
    ops = [do_op(cli, wl, "warmup", args + wl.warmup, work / "warmup", False)]
    plain = do_op(cli, wl, "untraced", args + wl.base, work / "plain", True)
    ops.append(plain)
    install_spans(tracer, solutions)
    try:
        cpu0 = time.process_time()
        ops.append(do_op(cli, wl, "traced", args + wl.base, work / "traced",
                         True, call=lambda f, a: tracer.call("cli.main", f, a)))
        cpu_s = time.process_time() - cpu0
        fine = tracer.run
        ops.append(do_op(cli, wl, "traced coarse", args + wl.coarse,
                         work / "coarse", False,
                         call=lambda f, a: tracer.call("cli.main", f, a)))
        coarse = tracer.run
    finally:
        tracer.restore()
    if plain.hashes != ops[2].hashes:
        ops[2].problems.append("traced VTK output differs from untraced")
    metrics = layer_metrics(tracer, fine, plain.seconds, cpu_s)
    metrics.update(scaling(tracer, fine, coarse))
    imbalance = ops[2].summary.get("flux_balance", {}).get("relative_imbalance")
    if imbalance is not None:
        metrics["cli.summary_imbalance"] = imbalance
    if fine in solutions:
        system, solution = solutions[fine]
        bal = full_balance(system, solution)
        metrics["assembly.full_imbalance"] = bal
        if not bal <= IMBALANCE_MAX:
            ops[2].problems.append(f"full flux imbalance {bal:.3e}")
    errors = ops[2].summary.get("errors", {})
    if errors.get("err_p") is not None:
        metrics["err_p"] = errors["err_p"]
    # No intersections, no intersection pressure: the error is nil.
    metrics["err_p_hat"] = errors.get("err_p_hat") or 0.0
    tracer.write(work / "spans.json")
    return ops, metrics


END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "geometry.build_network_s": "s", "geometry.n_lines": "count",
    "geometry.n_points": "count",
    "meshing.mesh_s": "s", "meshing.n_cells": "count",
    "meshing.corefine_s": "s", "meshing.split_s": "s",
    "meshing.n_trace_edges": "count", "meshing.split_us_per_trace_edge": "us",
    "coarsening.agglomerate_s": "s", "coarsening.tpfa_s": "s",
    "coarsening.coarse_ratio": "1",
    "vem.local_2d_calls": "count", "vem.local_2d_s": "s",
    "assembly.prepare_s": "s", "assembly.dofmap_s": "s",
    "assembly.assemble_s": "s", "assembly.assemble_self_s": "s",
    "assembly.apply_bc_s": "s", "assembly.extract_s": "s",
    "assembly.n_dofs": "count", "assembly.nnz": "count",
    "assembly.full_imbalance": "1",
    "solver.solve_s": "s", "solver.lu_fill": "count", "solver.residual": "1",
    "postprocess.errors_s": "s", "postprocess.export_s": "s",
    "postprocess.export_bytes": "B",
    "err_p": "1", "err_p_hat": "1",
    "cli.self_s": "s", "cli.cpu_s": "s", "cli.summary_imbalance": "1",
    "trace.overhead_frac": "1",
    **{f"{stage}.exp": "1" for stage in SCALING},
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.work)
        return 0

    try:
        cli = import_program()
    except ImportError as exc:
        print(f"cannot import dfnvem from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{wl.name}-trace{args.trace}-seed{args.seed}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    setup_walls, setup_scaled = measure_setup(wl.name, args.seed, work)
    inputs = write_inputs(wl, args.seed, work)

    timings = {}
    if args.trace:
        ops, metrics = traced_run(cli, wl, inputs, work)
        units = PER_LAYER_UNITS
    else:
        ops, walls, scaled = measure(cli, wl, inputs, args.seconds, work)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"wall_s = {statistics.median(walls):.6g} s unscaled, median of "
              f"{len(walls)} solves; set-up {statistics.median(setup_walls):.6g}"
              " s unscaled")
        timings = {"wall_s": walls, "wall_ref_s": scaled,
                   "setup_wall_s": setup_walls, "setup_s": setup_scaled}
        metrics = {"wall_ref_s": statistics.median(scaled),
                   "setup_s": statistics.median(setup_scaled),
                   "peak_rss_mb": rss_mb}
        units = END_TO_END_UNITS

    env = environment(wl, args.seed, ops[1])
    print("environment " + json.dumps(env, sort_keys=True))
    for op in ops:
        errs = op.summary.get("errors", {})
        acc = " ".join(f"{k}={errs[k]:.6e}" for k in ("err_p", "err_p_hat")
                       if errs.get(k) is not None)
        imb = op.summary.get("flux_balance", {}).get("relative_imbalance")
        print(f"op {op.label}: {op.seconds:.3f} s exit={op.exit_code} "
              f"residual={op.summary.get('residual')} imbalance={imb} {acc} "
              + ("FAILED: " + "; ".join(op.problems) if op.problems else "ok"))
    if not wl.gate_balance:
        print("note: summary.json flux_balance is not gated on this workload; "
              "cli.global_flux_balance omits the outflow through Dirichlet "
              "intersection ends in dc runs (known defect)")
    for name, val in metrics.items():
        print(f"{name} = {val:.6g} {units[name]}")
    stages = {k: metrics[k] for k in STAGES if k in metrics}
    if stages:
        top = max(stages, key=stages.get)
        print(f"largest stage: {top} = {stages[top]:.3f} s")
    failed = sum(1 for op in ops if op.problems)
    record = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    (work / "record.json").write_text(
        json.dumps({"environment": env, "timings": timings, **record},
                   indent=1) + "\n")
    for op in ops:      # the solver outputs were checked; free the disk
        shutil.rmtree(op.out, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
