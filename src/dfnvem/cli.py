"""Command line driver: mesh, coarsen, solve and convergence pipelines.

Exit codes: 0 success, 2 configuration, 3 geometry, 4 meshing/coarsening,
5 solver.  Outputs are deterministic for a fixed configuration (timings
in the JSON summary are excluded from that guarantee).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import assembly as asm
from . import cases as case_mod
from . import coarsening as coa
from . import meshing as msh
from . import postprocess as post
from .errors import ConfigError, DfnError, IgnoredInputWarning
from .geometry import load_network

SUMMARY_SCHEMA = 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dfnvem",
        description="Mixed virtual element Darcy solver for discrete "
                    "fracture networks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_model=True):
        sp.add_argument("--case", choices=case_mod.CASE_NAMES,
                        help="built-in benchmark case")
        sp.add_argument("--network", type=Path,
                        help="network JSON file (alternative to --case)")
        sp.add_argument("--family",
                        help="mesh family of the case (triangular)")
        sp.add_argument("--level", type=int,
                        help="refinement level of the case (1)")
        sp.add_argument("--h", type=float,
                        help="target mesh size for network files (0.1)")
        sp.add_argument("--c-depth", type=int,
                        help="default 0; 1 for coarsen")
        sp.add_argument("--eps-str", type=float, help="default 0.25")
        sp.add_argument("--out", type=Path, default=Path("out"))
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; any value but "
                             "1 is ignored, with a warning")
        if with_model:
            sp.add_argument("--model", choices=("cc", "dc"), default=None)

    common(sub.add_parser("mesh", help="mesh a case or network and export"),
           with_model=False)
    common(sub.add_parser("coarsen", help="mesh then agglomerate"),
           with_model=False)
    common(sub.add_parser("solve", help="full pipeline on one level"))
    conv = sub.add_parser("convergence", help="refinement ladder with orders")
    common(conv)
    conv.add_argument("--levels", type=int, default=4)
    return p


def _check_flags(args):
    """Reject inapplicable or out-of-range flags before any work starts,
    fill in the defaults of unset flags, and warn of an ignored --threads."""
    case_only = ["network", "h"]
    if args.command != "coarsen":
        case_only += ["c_depth", "eps_str"]
    rules = [(dest, args.case is None or getattr(args, dest) is None,
              f"left out of {args.command} --case") for dest in case_only]
    rules += [(dest, args.network is None or getattr(args, dest) is None,
               f"left out of {args.command} --network")
              for dest in ("family", "level")]
    if args.command == "convergence":
        rules.append(("level", args.level is None,
                      "left out of convergence, which runs levels 1 to "
                      "--levels"))
    # coarsen always runs at least one sweep; elsewhere 0 means none.
    min_depth = 1 if args.command == "coarsen" else 0
    eps_given = args.eps_str is not None
    for dest, value in (("h", 0.1), ("c_depth", min_depth), ("eps_str", 0.25),
                        ("family", "triangular"), ("level", 1)):
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    rules += [
        ("level", args.level >= 1, "an integer >= 1"),
        ("h", math.isfinite(args.h) and args.h > 0, "a finite number > 0"),
        ("c_depth", args.c_depth >= min_depth, f"an integer >= {min_depth}"),
        ("eps_str", 0 < args.eps_str < 1, "a number in (0, 1)"),
        ("eps_str", not eps_given or args.c_depth > 0,
         f"left out of {args.command} without --c-depth >= 1"),
        ("threads", args.threads >= 1, "an integer >= 1"),
    ]
    if args.command == "convergence":
        rules.append(("levels", args.levels >= 1, "an integer >= 1"))
    for dest, ok, need in rules:
        if not ok:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"{flag} must be {need}, got "
                              f"{getattr(args, dest)!r}")
    if args.threads != 1:
        warnings.warn(IgnoredInputWarning(
            f"--threads {args.threads}: ignored; every stage runs on one "
            "thread"))


def _case(args):
    if args.case is None:
        raise ConfigError("either --case or --network is required")
    return case_mod.get_case(args.case)


def _load_inputs(args, model=None):
    """Network, fine meshes and boundary data of ``--network`` or ``--case``,
    and the wall seconds spent on the network and its boundary data.

    Network files are triangulated at ``--h`` in one batched pass over
    all fractures (``meshing.triangulate_network``), which gives each
    fracture the mesh it would get alone.  ``model`` is the coupling a
    solve will use: cc has no intersection unknowns, so it warns that a
    network's ``intersection_conditions`` are ignored.
    """
    t0 = time.perf_counter()
    if args.network is None:
        case = _case(args)
        network, bcs = case.network(), case.bcs()
        network_s = time.perf_counter() - t0
        return network, case.meshes(args.family, args.level), bcs, network_s
    network, raw = load_network(args.network)
    try:
        bcs = asm.boundary_spec_from_json(raw, network)
    except ConfigError as exc:
        raise ConfigError(f"{args.network}: {exc}") from None
    if model == "cc" and raw.get("intersection_conditions"):
        warnings.warn(IgnoredInputWarning(
            f"{args.network}: intersection_conditions: ignored by the cc "
            "model, which has no intersection unknowns to impose them on"))
    network_s = time.perf_counter() - t0
    return network, msh.triangulate_network(network, args.h), bcs, network_s


def _network_coarse(args, network, meshes: dict) -> dict:
    """A network's fine meshes, agglomerated when ``--c-depth`` is set."""
    if args.c_depth == 0:
        return meshes
    coarse = coa.agglomerate_network(network, meshes, args.c_depth,
                                     args.eps_str)
    return {fid: mesh for fid, (mesh, _) in coarse.items()}


def _write_summary(out_dir: Path, payload: dict):
    payload = {"schema": SUMMARY_SCHEMA, **payload}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_dict(r: post.ErrorReport) -> dict:
    return {
        "level": r.level, "h_avg": r.h_avg, "h_max": r.h_max,
        "err_p": r.err_p, "err_u": r.err_u,
        "err_p_hat": r.err_p_hat, "err_u_hat": r.err_u_hat,
        "order_p": r.order_p, "order_u": r.order_u,
        "order_p_hat": r.order_p_hat, "order_u_hat": r.order_u_hat,
        "min_p": r.min_p, "max_p": r.max_p, "size": r.size,
        "sparsity": r.sparsity, "n_cells": r.n_cells,
        "faces": list(r.faces),
    }


def cmd_mesh(args) -> dict:
    out = {"command": "mesh"}
    args.out.mkdir(parents=True, exist_ok=True)
    network, meshes, _, _ = _load_inputs(args)
    if args.network is not None:
        meshes = _network_coarse(args, network, meshes)
    stats = {}
    for fid, mesh in sorted(meshes.items()):
        msh.save_mesh(mesh, args.out / f"fracture_{fid}.mesh.txt")
        stats[str(fid)] = msh.mesh_stats(mesh)
    out["mesh_stats"] = stats
    return out


def cmd_coarsen(args) -> dict:
    out = {"command": "coarsen"}
    args.out.mkdir(parents=True, exist_ok=True)
    network, meshes, _, _ = _load_inputs(args)
    coarse = coa.agglomerate_network(network, meshes, args.c_depth,
                                     args.eps_str)
    stats = {}
    for fid, (mesh, part) in sorted(coarse.items()):
        post.export_partition_csv(part, args.out / f"partition_{fid}.csv")
        msh.save_mesh(mesh, args.out / f"fracture_{fid}_coarse.mesh.txt")
        stats[str(fid)] = {
            "fine_cells": meshes[fid].n_cells,
            "coarse_cells": mesh.n_cells,
            **{f"coarse_{k}": v for k, v in msh.mesh_stats(mesh).items()},
        }
    out["coarsen_stats"] = stats
    return out


def _solve_once(args):
    """One solve; returns ``(problem, system, solution, report, errors,
    model)``, with errors only for built-in cases with exact solutions."""
    if args.network is None:
        case = _case(args)
        model = args.model or case.model
        return *case_mod.run_level(case, args.family, args.level,
                                   model=model), model
    model = args.model or "cc"
    t0 = time.perf_counter()
    network, meshes, bcs, network_s = _load_inputs(args, model)
    meshes = _network_coarse(args, network, meshes)
    mesh_s = time.perf_counter() - t0 - network_s
    problem, system, solution, report = case_mod.solve_meshes(
        network, meshes, bcs, model)
    report.timings = {"network_s": network_s, "mesh_s": mesh_s,
                      **report.timings}
    return problem, system, solution, report, None, model


def cmd_solve(args) -> dict:
    t0 = time.perf_counter()
    problem, system, solution, report, err, model = _solve_once(args)
    t_export = time.perf_counter()
    args.out.mkdir(parents=True, exist_ok=True)
    tag = args.case or Path(args.network).stem
    post.export_vtk(problem, solution,
                    args.out / f"{tag}_{args.family}_{args.level}.vtk")
    if problem.traces:
        post.export_line_vtk(
            problem, solution,
            args.out / f"{tag}_{args.family}_{args.level}_lines.vtk")
    now = time.perf_counter()
    network = problem.network
    out = {
        "command": "solve", "model": model, "size": system.size,
        "network": {"fractures": len(network.fractures),
                    "lines": len(network.lines),
                    "points": len(network.points)},
        "dofs": {name: len(ids) for name, ids in system.dofs.blocks.items()},
        "nnz": system.A.nnz,
        "sparsity": system.sparsity, "residual": report.residual,
        "reduced_size": report.reduced_size, "lu_fill": report.lu_fill,
        "solver": report.solver,
        "pinned": [{"fracture": fid, "dof": dof}
                   for fid, dof in sorted(system.pinned.items())],
        "timings": {**report.timings, "export_s": now - t_export,
                    "total_s": now - t0},
    }
    if err is not None:
        out["errors"] = _report_dict(err)
    balance = global_flux_balance(problem, system, solution)
    out["flux_balance"] = balance
    return out


def cmd_convergence(args) -> dict:
    t0 = time.monotonic()
    if args.network is not None:
        raise ConfigError("convergence studies need a built-in case")
    case = _case(args)
    model = args.model or case.model
    reports, runs = case_mod.run_convergence(case, args.family, args.levels,
                                             model=model)
    args.out.mkdir(parents=True, exist_ok=True)
    tag = f"{case.name}_{args.family}"
    post.export_csv(reports, args.out / f"{tag}.csv")
    if reports[-1].err_p_hat is not None:
        post.export_csv(reports, args.out / f"{tag}_intersection.csv",
                        intersection=True)
    problem, system, solution, _ = runs[-1]
    post.export_vtk(problem, solution, args.out / f"{tag}_finest.vtk")
    return {
        "command": "convergence", "model": model, "case": case.name,
        "family": args.family,
        "levels": [_report_dict(r) for r in reports],
        "timings": {"total_s": time.monotonic() - t0},
    }


def global_flux_balance(problem, system, solution) -> dict:
    """Net outflow versus total injected source.

    The outflow is the flux through the fracture boundaries plus, in dc
    runs, the 1D flux leaving through the intersection ends,
    ``line_flux[g][-1] - line_flux[g][0]``.  cc runs carry no line flux,
    and their assembly ignores the line source, so only dc runs count it.
    The scale is the larger of the flux magnitudes and a floor from the
    data, the largest |Dirichlet value| times the boundary length times
    the largest permeability, so a solution without flow reads as
    balanced instead of comparing rounding noise with itself.
    """
    total_out = total_abs = 0.0
    for fid in sorted(problem.meshes):
        flux = solution.edge_flux[fid][problem.meshes[fid].boundary_edges]
        total_out += float(flux.sum())
        total_abs += float(np.abs(flux).sum())
    for gid in sorted(solution.line_flux):
        first, last = (float(v) for v in solution.line_flux[gid][[0, -1]])
        total_out += last - first
        total_abs += abs(last) + abs(first)
    total_src = 0.0
    for fid in sorted(problem.meshes):
        mesh = problem.meshes[fid]
        if problem.source is not None:
            c3 = mesh.frame.to_global(mesh.cell_centroids)
            total_src += float(
                (mesh.cell_areas * np.asarray(problem.source(fid, c3))).sum()
            )
    for _, _, s in problem.point_sources:
        total_src += s
    if problem.line_source is not None and system.model == "dc":
        for gid, tm in problem.traces.items():
            vals = np.asarray(problem.line_source(gid, tm.elem_mid_3d()))
            total_src += float((tm.elem_len * vals).sum())
    floor = (float(np.abs(system.bc_value[~system.fixed]).max(initial=0.0))
             * sum(float(mesh.edge_len[mesh.boundary_edges].sum())
                   for mesh in problem.meshes.values())
             * max(float(np.abs(lam).max()) for lam in problem.lam.values()))
    scale = max(total_abs, abs(total_src), floor, 1e-300)
    return {
        "boundary_outflow": total_out,
        "total_source": total_src,
        "relative_imbalance": abs(total_out - total_src) / scale,
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    commands = {"mesh": cmd_mesh, "coarsen": cmd_coarsen,
                "solve": cmd_solve, "convergence": cmd_convergence}
    # Warnings are recorded for the summary, then shown as they would
    # have been without the recording.
    caught, error = [], None
    try:
        with warnings.catch_warnings(record=True) as caught:
            _check_flags(args)
            payload = commands[args.command](args)
    except DfnError as exc:
        error = exc
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename,
                                 w.lineno, w.file, w.line)
    if error is not None:
        print(f"error [{type(error).__name__}]: {error}", file=sys.stderr)
        return error.exit_code
    payload["warnings"] = [{"class": w.category.__name__,
                            "message": str(w.message)} for w in caught]
    _write_summary(args.out, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
