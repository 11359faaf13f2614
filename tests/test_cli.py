import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dfnvem
from dfnvem import assembly as asm
from dfnvem import cases, cli
from dfnvem import coarsening as coa
from dfnvem import geometry as geo
from dfnvem import meshing as msh
from dfnvem import solver as slv
from dfnvem import vem
from dfnvem.errors import IgnoredInputWarning, UnconstrainedPressureWarning

from _util import README_NETWORK, import_network_dict, write_perfbench_network


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestSolveCommand:
    def test_single_cartesian_level1(self, tmp_path, capsys):
        rc = run_cli(["solve", "--case", "single", "--family", "cartesian",
                      "--level", "1", "--model", "cc", "--out", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema"] == 1
        assert abs(summary["errors"]["err_p"] - 4.099e-2) < 0.05 * 4.099e-2
        assert summary["residual"] < 1e-10
        assert 0 < summary["reduced_size"] < summary["size"]
        assert summary["lu_fill"] > 0
        assert summary["solver"]["path"] == "lu"
        assert summary["solver"]["levels"] == [summary["reduced_size"]]
        assert len(summary["solver"]["nnz"]) == 1
        assert summary["solver"]["operator_complexity"] == 1.0
        assert summary["solver"]["iterations"] == [0, 0]
        assert summary["solver"]["setup_s"] >= 0
        assert summary["warnings"] == []
        assert (tmp_path / "single_cartesian_1.vtk").exists()

    def test_four_fracture_dc_writes_line_fields(self, tmp_path):
        rc = run_cli(["solve", "--case", "four-fractures", "--family",
                      "triangular", "--level", "1", "--out", tmp_path])
        assert rc == 0
        assert (tmp_path / "four-fractures_triangular_1_lines.vtk").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["model"] == "dc"
        # Unit source balances the boundary outflow.
        assert abs(summary["flux_balance"]["boundary_outflow"] - 1.0) < 1e-8

    def test_dc_balance_counts_intersection_ends(self, tmp_path):
        # Dirichlet intersection ends carry outflow that the balance
        # must include for a conservative dc solve to read as balanced.
        rc = run_cli(["solve", "--case", "intersection-flow", "--level", "2",
                      "--model", "dc", "--out", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["flux_balance"]["relative_imbalance"] < 1e-8

    def test_cc_balance_leaves_out_the_line_source(self, tmp_path):
        # cc assembly has no intersection unknowns and ignores the case's
        # line source, so the balance must not count it either.
        rc = run_cli(["solve", "--case", "intersection-flow", "--family",
                      "coarse4", "--level", "1", "--model", "cc",
                      "--out", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["flux_balance"]["relative_imbalance"] <= 1e-12

    @pytest.mark.parametrize("source", ["case", "network"])
    def test_stage_timings(self, tmp_path, source):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        inputs = (["--case", "two-fractures", "--family", "coarse2"]
                  if source == "case"
                  else ["--network", net_path, "--h", "0.3", "--c-depth", "1"])
        rc = run_cli(["solve", *inputs, "--out", tmp_path / "o"])
        assert rc == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        timings = summary["timings"]
        stages = ["network_s", "mesh_s", "prepare_s", "dofs_s", "assemble_s",
                  "solve_s", "extract_s", "export_s"]
        assert sorted(timings) == sorted(stages + ["total_s"])
        assert all(timings[k] >= 0.0 for k in timings)
        assert sum(timings[k] for k in stages) <= timings["total_s"]
        assert summary["schema"] == 1

    @pytest.mark.parametrize("source, counts", [
        ("case", {"fractures": 2, "lines": 1, "points": 0}),
        ("network", {"fractures": 12, "lines": 45, "points": 50}),
    ])
    def test_network_counts(self, tmp_path, source, counts):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        inputs = (["--case", "two-fractures", "--family", "coarse2"]
                  if source == "case" else ["--network", net_path, "--h", "0.5"])
        assert run_cli(["solve", *inputs, "--out", tmp_path / "o"]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["network"] == counts

    @pytest.mark.parametrize("source", ["case", "network"])
    def test_dof_blocks_and_nnz(self, tmp_path, source):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        if source == "case":
            inputs = ["--case", "two-fractures", "--family", "coarse2"]
            _, system, _, _, _ = cases.run_level(
                cases.get_case("two-fractures"), "coarse2", 1)
        else:
            inputs = ["--network", net_path, "--h", "0.5"]
            network, raw = geo.load_network(net_path)
            meshes = {f.id: msh.triangulate_fracture(f, network.traces_of(f.id),
                                                     0.5)
                      for f in network.fractures}
            _, system, _, _ = cases.solve_meshes(
                network, meshes, asm.boundary_spec_from_json(raw, network), "cc")
        assert run_cli(["solve", *inputs, "--out", tmp_path / "o"]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["nnz"] == system.A.nnz
        assert summary["dofs"] == {name: len(ids) for name, ids
                                   in system.dofs.blocks.items()}
        assert sum(summary["dofs"].values()) == summary["size"]
        assert summary["dofs"]["multiplier"] > 0

    def test_repeated_vertex_is_geometry_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"fractures": [{"id": 0, "vertices": [
            [0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]}]}))
        rc = run_cli(["solve", "--network", path, "--h", "0.3",
                      "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert "[GeometryError]" in err
        assert "fracture 0: the edge from vertex 1 to vertex 2" in err

    def test_network_import(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        out = tmp_path / "out"
        rc = run_cli(["solve", "--network", net_path, "--h", "0.2",
                      "--model", "cc", "--out", out])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual"] < 1e-10
        assert summary["flux_balance"]["relative_imbalance"] < 1e-8
        # --family and --level are rejected with --network, and the
        # output names keep their defaults.
        assert (out / "net_triangular_1.vtk").exists()

    def test_balance_of_a_solution_without_flow(self, tmp_path):
        # The README's example network: p = 1 on one edge and no flow
        # elsewhere, so p = 1 everywhere and the outflow is rounding noise.
        # The balance scale has a floor from the data, so the noise does
        # not read as a relative imbalance of 1.
        net_path = tmp_path / "readme.json"
        net_path.write_text(json.dumps(README_NETWORK))
        with pytest.warns(IgnoredInputWarning):
            rc = run_cli(["solve", "--network", net_path, "--h", "0.2",
                          "--model", "cc", "--out", tmp_path])
        assert rc == 0
        balance = json.loads((tmp_path / "summary.json").read_text())[
            "flux_balance"]
        assert abs(balance["boundary_outflow"]) < 1e-12
        assert balance["relative_imbalance"] < 1e-8


@pytest.mark.parametrize("dirichlet", [True, False])
def test_summary_lists_pinned_pressures(tmp_path, dirichlet):
    """Without Dirichlet data each floating component gets one pinned
    pressure, the first of its lowest fracture, and ``summary.json``
    names it.  A fracture far from the rest is a second component."""
    data = import_network_dict()
    data["fractures"].append({
        "id": 12, "aperture": 1.0, "k_tangential": [1.0, 0.0, 1.0],
        "vertices": [[5, 0, 0], [5, 1, 0], [5, 1, 1], [5, 0, 1]]})
    if not dirichlet:
        for bc in data["boundary_conditions"]:
            bc.update(type="neumann", value=0.0)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(["solve", "--network", path, "--h", "0.5",
                      "--out", tmp_path / "o"])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    first = summary["dofs"]["fracture_flux"]    # fracture 0's first cell
    last = first + summary["dofs"]["fracture_pressure"]
    fids = [p["fracture"] for p in summary["pinned"]]
    assert fids == ([12] if dirichlet else [0, 12])
    assert all(first <= p["dof"] < last for p in summary["pinned"])
    assert dirichlet or summary["pinned"][0]["dof"] == first
    assert len(fids) == sum(issubclass(w.category, UnconstrainedPressureWarning)
                            for w in caught)
    # The summary lists the same warnings next to the pins.
    assert summary["warnings"] == [
        {"class": w.category.__name__, "message": str(w.message)}
        for w in caught]
    assert [w["class"] for w in summary["warnings"]].count(
        "UnconstrainedPressureWarning") == len(fids)


@pytest.mark.parametrize("model", ["cc", "dc"])
def test_cc_warns_that_intersection_conditions_are_ignored(tmp_path, model):
    """cc has no intersection unknowns, so the README network's
    intersection condition is ignored, with a warning on stderr that
    names its JSON path and is listed in the summary; dc imposes it."""
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_NETWORK))
    src = str(Path(dfnvem.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dfnvem.cli", "solve", "--network", str(path),
         "--h", "0.2", "--model", model, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    if model == "dc":
        assert summary["warnings"] == [] and proc.stderr == ""
        return
    ignored, = summary["warnings"]
    assert ignored["class"] == "IgnoredInputWarning"
    assert ignored["message"].startswith(f"{path}: intersection_conditions:")
    assert f"IgnoredInputWarning: {ignored['message']}\n" in proc.stderr


def test_cli_import_defers_scipy_spatial():
    """Only triangulation needs scipy.spatial, so importing the CLI (and
    failing fast on a malformed input) does not pay for it."""
    code = "import sys, dfnvem.cli; assert 'scipy.spatial' not in sys.modules"
    src = str(Path(dfnvem.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


class TestMeshAndCoarsen:
    def test_mesh_export(self, tmp_path):
        rc = run_cli(["mesh", "--case", "single", "--family", "cartesian",
                      "--level", "1", "--out", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mesh_stats"]["0"]["n_cells"] == 100
        assert (tmp_path / "fracture_0.mesh.txt").exists()

    def test_coarsen_pipeline(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        out = tmp_path / "out"
        rc = run_cli(["coarsen", "--network", net_path, "--h", "0.22",
                      "--c-depth", "2", "--out", out])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        for fid, stats in summary["coarsen_stats"].items():
            assert stats["coarse_cells"] < stats["fine_cells"]
        assert (out / "partition_0.csv").exists()


@pytest.mark.parametrize("c_depth", [1, 2])
def test_agglomerated_network_solves(tmp_path, c_depth):
    # Some coarse cells of seed 3 have their centroid across a trace; a
    # cell's side of a trace edge comes from its own walk along the edge.
    net_path = tmp_path / "net.json"
    write_perfbench_network(net_path, 3)
    out = tmp_path / "o"
    rc = run_cli(["solve", "--network", net_path, "--h", "0.1",
                  "--c-depth", c_depth, "--out", out])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["residual"] <= 1e-8
    assert summary["flux_balance"]["relative_imbalance"] <= 1e-8


class TestConvergenceCommand:
    def test_two_level_csv(self, tmp_path):
        rc = run_cli(["convergence", "--case", "single", "--family",
                      "cartesian", "--levels", "2", "--out", tmp_path])
        assert rc == 0
        csv_path = tmp_path / "single_cartesian.csv"
        assert csv_path.exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["levels"]) == 2
        assert abs(summary["levels"][1]["order_p"] - 1.949) < 0.05

    def test_rerun_bit_identical_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run_cli(["convergence", "--case", "single", "--family",
                          "triangular", "--levels", "2", "--out", out])
            assert rc == 0
        assert (a / "single_triangular.csv").read_bytes() == \
               (b / "single_triangular.csv").read_bytes()
        assert (a / "single_triangular_finest.vtk").read_bytes() == \
               (b / "single_triangular_finest.vtk").read_bytes()


    def test_rerun_bit_identical_mixed_degree_vtk(self, tmp_path):
        # Agglomerated cells have many edge counts, so the assembly and
        # the velocity recovery run over several cell groups per fracture.
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run_cli(["solve", "--case", "two-fractures", "--family",
                          "coarse2", "--level", "1", "--out", out])
            assert rc == 0
        for name in ("two-fractures_coarse2_1.vtk",
                     "two-fractures_coarse2_1_lines.vtk"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestErrors:
    def test_missing_case_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["solve", "--out", tmp_path])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_family(self, tmp_path, capsys):
        rc = run_cli(["solve", "--case", "single", "--family", "nope",
                      "--out", tmp_path])
        assert rc == 2

    @pytest.mark.parametrize("flag", [["--solver", "minres"],
                                      ["--tol", "1e-12"]],
                             ids=["solver", "tol"])
    def test_removed_solver_flags(self, tmp_path, capsys, flag):
        # The hybridized direct solve is the only solver, and its residual
        # gate is fixed, so neither flag is accepted.
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--case", "single", "--family", "cartesian",
                     *flag, "--out", tmp_path])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_geometry_error_exit_code(self, tmp_path, capsys):
        data = {"fractures": [
            {"id": 0, "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]},
            {"id": 1, "vertices": [[0.5, 0.5, 0], [1.5, 0.5, 0],
                                   [1.5, 1.5, 0], [0.5, 1.5, 0]]},
        ]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc = run_cli(["solve", "--network", path, "--out", tmp_path / "o"])
        assert rc == 3

    def test_mesh_error_exit_code(self, tmp_path, capsys):
        # Fracture 2's trace ends 5e-8 from fracture 1's without meeting
        # it: closer than 100 tol, so the triangulation refuses it.
        x = 0.50000005
        data = {"fractures": [
            {"id": 0, "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]},
            {"id": 1, "vertices": [[0.5, 0.2, -1], [0.5, 0.8, -1],
                                   [0.5, 0.8, 1], [0.5, 0.2, 1]]},
            {"id": 2, "vertices": [[x, 0.2, -1], [0.9, 0.8, -1],
                                   [0.9, 0.8, 1], [x, 0.2, 1]]},
        ]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        rc = run_cli(["mesh", "--network", path, "--h", "0.3",
                      "--out", tmp_path / "o"])
        assert rc == 4
        assert "ConstraintConflict" in capsys.readouterr().err


def _set(key, value, at=0, entry="boundary_conditions"):
    """An edit setting ``data[entry][at][key] = value``."""
    return lambda data: data[entry][at].__setitem__(key, value)


def _selector(**keys):
    """An edit replacing the edge or box of boundary selector 0 by ``keys``."""
    def edit(data):
        data["boundary_conditions"][0].pop("edge")
        data["boundary_conditions"][0].update(keys)
    return edit


# Network files that each break one rule of the input format, by name.
EDITS = {
    "isec_no_fractures.json":
        lambda data: data.update(intersections=[{"k_hat": 2.0}]),
    "isec_bad_id.json":
        lambda data: data.update(intersections=[{"fractures": [0, "a"]}]),
    "isec_k_hat.json": lambda data: data.update(
        intersections=[{"fractures": [0, 4], "k_hat": "abc"}]),
    "isec_k_tilde.json": lambda data: data.update(
        intersections=[{"fractures": [0, 4], "k_tilde": "abc"}]),
    "isec_k_hat_zero.json": lambda data: data.update(
        intersections=[{"fractures": [0, 4], "k_hat": 0.0}]),
    "isec_k_tilde_negative.json": lambda data: data.update(
        intersections=[{"fractures": [0, 4], "k_tilde": -1.0}]),
    "isec_not_list.json": lambda data: data.update(intersections=5),
    "isec_empty.json":
        lambda data: data.update(intersections=[{"fractures": []}]),
    # Fractures 0 and 1 are the parallel planes x = 0.2 and x = 0.4.
    "isec_apart.json": lambda data: data.update(
        intersections=[{"fractures": [0, 1], "k_hat": 5.0}]),
    "no_fractures.json": lambda data: data.update(fractures=[]),
    "nan_vertex.json":
        lambda data: data["fractures"][0]["vertices"][0].__setitem__(
            0, float("nan")),
    "duplicate_id.json": _set("id", 0, at=1, entry="fractures"),
    "bc_value_text.json": _set("value", "abc"),
    "bc_value_null.json": _set("value", None),
    "bc_box.json": _set("box", [[0, 0, 0]]),
    "bc_no_selector.json": _selector(),
    "bc_edge_and_box.json": _selector(edge=0, box=[[0, 0, 0], [1, 1, 1]]),
    "bc_box_reversed.json": _selector(box=[[0, 0, 1], [1, 1, 0]]),
    "bc_not_list.json": lambda data: data.update(boundary_conditions={}),
    "id_fraction.json": _set("id", 1.7, at=1, entry="fractures"),
    "id_bool.json": _set("id", True, at=1, entry="fractures"),
    "isec_fraction.json": lambda data: data.update(
        intersections=[{"fractures": [0, 4.5]}]),
    "bc_fid_fraction.json": _set("fracture", 0.5),
    "bc_edge_fraction.json": _set("edge", 1.5),
    "bc_edge_bool.json": _set("edge", True),
    "gamma_fraction.json": lambda data: data.update(intersection_conditions=[
        {"gamma": 0.5, "end": 0, "type": "tip"}]),
    "end_bool.json": lambda data: data.update(intersection_conditions=[
        {"gamma": 0, "end": False, "type": "tip"}]),
    # Misspelt or misplaced keys, each ignored if it were accepted.
    "bc_valeu.json": _set("valeu", 2.0),
    "frac_apperture.json": _set("apperture", 0.5, entry="fractures"),
    "isec_k_hatt.json": lambda data: data.update(
        intersections=[{"fractures": [0, 4], "k_hatt": 2.0}]),
    "ic_fracture.json": lambda data: data.update(intersection_conditions=[
        {"gamma": 0, "end": 0, "type": "dirichlet", "value": 1.0,
         "fracture": 0}]),
    "top_bc.json": lambda data: data.update(boundary_condition=[]),
    # JSON booleans where numbers belong; Python reads true as 1.
    "aperture_bool.json": _set("aperture", True, entry="fractures"),
    "k_bool.json": _set("k_tangential", [True, 0, 1], entry="fractures"),
    "vertex_bool.json": lambda data: data["fractures"][0]["vertices"][1]
    .__setitem__(1, True),
    "isec_k_hat_bool.json": lambda data: data.update(
        intersections=[{"fractures": [0, 4], "k_hat": True}]),
    "isec_k_tilde_bool.json": lambda data: data.update(
        intersections=[{"fractures": [0, 4], "k_tilde": False}]),
    "bc_value_bool.json": _set("value", True),
    "bc_box_bool.json": _selector(box=[[0, 0, 0], [1, True, 1]]),
    "ic_value_bool.json": lambda data: data.update(intersection_conditions=[
        {"gamma": 0, "end": 0, "type": "dirichlet", "value": True}]),
}


def _bad_inputs():
    """Network files for the malformed-input cases, by name."""
    bc = import_network_dict()
    bc["boundary_conditions"][0]["type"] = "dirichlett"
    isec = import_network_dict()
    isec["intersection_conditions"] = [{"gamma": 0, "end": 0,
                                        "type": "dirichelt", "value": 1.0}]
    no_id = import_network_dict()
    del no_id["fractures"][0]["id"]
    files = {"net.json": json.dumps(import_network_dict()),
             "bad.json": '{"fractures": [', "bc.json": json.dumps(bc),
             "isec.json": json.dumps(isec), "no_id.json": json.dumps(no_id)}
    for name, key, value in (("bc_fid.json", "fracture", 99),
                             ("bc_nofid.json", "fracture", None),
                             ("bc_edge.json", "edge", 4),
                             ("bc_edge_neg.json", "edge", -1)):
        data = import_network_dict()
        data["boundary_conditions"][0][key] = value
        if value is None:
            del data["boundary_conditions"][0][key]
        files[name] = json.dumps(data)
    for name, gamma, end in (("gamma.json", 999, 0), ("end.json", 0, 2)):
        data = import_network_dict()
        data["intersection_conditions"] = [
            {"gamma": gamma, "end": end, "type": "dirichlet", "value": 1.0}]
        files[name] = json.dumps(data)
    for name, edit in EDITS.items():
        data = import_network_dict()
        edit(data)
        files[name] = json.dumps(data)
    return files


MALFORMED = {
    "level-0": (["solve", "--case", "single", "--family", "cartesian",
                 "--level", "0"], "--level"),
    "h-nan": (["solve", "--network", "net.json", "--h", "nan"], "--h"),
    "h-0": (["mesh", "--network", "net.json", "--h", "0"], "--h"),
    "h-negative": (["mesh", "--network", "net.json", "--h", "-1"], "--h"),
    "c-depth-negative": (["solve", "--case", "single", "--c-depth", "-1"],
                         "--c-depth"),
    "eps-str-above-1": (["coarsen", "--network", "net.json",
                         "--eps-str", "1.5"], "--eps-str"),
    "eps-str-without-c-depth-solve": (
        ["solve", "--network", "net.json", "--eps-str", "0.5"],
        "--eps-str must be left out of solve without --c-depth >= 1"),
    "eps-str-with-c-depth-0-mesh": (
        ["mesh", "--network", "net.json", "--c-depth", "0", "--eps-str",
         "0.5"],
        "--eps-str must be left out of mesh without --c-depth >= 1"),
    "threads-0": (["solve", "--case", "single", "--threads", "0"],
                  "--threads"),
    "levels-0": (["convergence", "--case", "single", "--levels", "0"],
                 "--levels"),
    "invalid-json": (["solve", "--network", "bad.json"], "bad.json"),
    "missing-file": (["solve", "--network", "missing.json"], "missing.json"),
    "fracture-without-id": (["mesh", "--network", "no_id.json"],
                            "fractures[0]"),
    "bc-type": (["solve", "--network", "bc.json"],
                "boundary_conditions[0].type"),
    "intersection-type": (["solve", "--network", "isec.json"],
                          "intersection_conditions[0].type"),
    "bc-unknown-fracture": (["solve", "--network", "bc_fid.json"],
                            "boundary_conditions[0].fracture"),
    "bc-missing-fracture": (["solve", "--network", "bc_nofid.json"],
                            "boundary_conditions[0].fracture"),
    "bc-edge-past-end": (["solve", "--network", "bc_edge.json"],
                         "boundary_conditions[0].edge"),
    "bc-edge-negative": (["solve", "--network", "bc_edge_neg.json"],
                         "boundary_conditions[0].edge"),
    "intersection-unknown-gamma": (["solve", "--network", "gamma.json"],
                                   "intersection_conditions[0].gamma"),
    "intersection-end-2": (["solve", "--network", "end.json"],
                           "intersection_conditions[0].end"),
    "intersection-without-fractures": (
        ["mesh", "--network", "isec_no_fractures.json"], "intersections[0]"),
    "intersection-non-integer-id": (
        ["mesh", "--network", "isec_bad_id.json"], "intersections[0]"),
    "intersection-k-hat-text": (
        ["mesh", "--network", "isec_k_hat.json"], "intersections[0]"),
    "intersection-k-tilde-text": (
        ["mesh", "--network", "isec_k_tilde.json"], "intersections[0]"),
    "intersection-k-hat-zero-cc": (
        ["solve", "--network", "isec_k_hat_zero.json", "--model", "cc"],
        "intersections[0].k_hat"),
    "intersection-k-tilde-negative-dc": (
        ["solve", "--network", "isec_k_tilde_negative.json", "--model", "dc"],
        "intersections[0].k_tilde"),
    "intersections-not-a-list": (
        ["mesh", "--network", "isec_not_list.json"], "intersections: "),
    "intersection-empty-fractures": (
        ["mesh", "--network", "isec_empty.json"], "intersections[0]"),
    "intersection-fractures-apart": (
        ["mesh", "--network", "isec_apart.json", "--h", "0.5"],
        "intersections[0]: fractures [0, 1] do not meet"),
    "no-fractures": (["mesh", "--network", "no_fractures.json"],
                     "'fractures' array"),
    "nan-vertex": (["mesh", "--network", "nan_vertex.json"], "fractures[0]"),
    "duplicate-fracture-id": (["mesh", "--network", "duplicate_id.json"],
                              "fractures[1]"),
    "bc-value-text": (["solve", "--network", "bc_value_text.json"],
                      "boundary_conditions[0].value"),
    "bc-value-null": (["solve", "--network", "bc_value_null.json"],
                      "boundary_conditions[0].value"),
    "bc-box-one-corner": (["solve", "--network", "bc_box.json"],
                          "boundary_conditions[0].box"),
    "bc-no-selector": (["solve", "--network", "bc_no_selector.json"],
                       "boundary_conditions[0]: needs exactly one of 'edge' "
                       "and 'box'"),
    "bc-edge-and-box": (["solve", "--network", "bc_edge_and_box.json"],
                        "boundary_conditions[0]: needs exactly one of "
                        "'edge' and 'box'"),
    "bc-box-reversed": (["solve", "--network", "bc_box_reversed.json"],
                        "boundary_conditions[0].box: [[0, 0, 1], [1, 1, 0]] "
                        "is not two finite 3-vectors [lo, hi] with lo <= hi"),
    "bc-not-a-list": (["mesh", "--network", "bc_not_list.json"],
                      "boundary_conditions: "),
    "fractional-fracture-id": (["mesh", "--network", "id_fraction.json"],
                               "fractures[1].id: 1.7 is not an integer"),
    "bool-fracture-id": (["mesh", "--network", "id_bool.json"],
                         "fractures[1].id: True is not an integer"),
    "intersection-fractional-id": (
        ["mesh", "--network", "isec_fraction.json"],
        "intersections[0].fractures[1]: 4.5 is not an integer"),
    "bc-fractional-fracture": (["solve", "--network", "bc_fid_fraction.json"],
                               "boundary_conditions[0].fracture: 0.5"),
    "bc-fractional-edge": (["solve", "--network", "bc_edge_fraction.json"],
                           "boundary_conditions[0].edge: 1.5"),
    "bc-bool-edge": (["solve", "--network", "bc_edge_bool.json"],
                     "boundary_conditions[0].edge: True"),
    "intersection-fractional-gamma": (
        ["solve", "--network", "gamma_fraction.json"],
        "intersection_conditions[0].gamma: 0.5"),
    "intersection-bool-end": (["solve", "--network", "end_bool.json"],
                              "intersection_conditions[0].end: False"),
    "bc-unknown-key": (["solve", "--network", "bc_valeu.json"],
                       "boundary_conditions[0]: unknown key 'valeu'"),
    "fracture-unknown-key": (["mesh", "--network", "frac_apperture.json"],
                             "fractures[0]: unknown key 'apperture'"),
    "intersection-unknown-key": (["mesh", "--network", "isec_k_hatt.json"],
                                 "intersections[0]: unknown key 'k_hatt'"),
    "intersection-condition-unknown-key": (
        ["solve", "--network", "ic_fracture.json"],
        "intersection_conditions[0]: unknown key 'fracture'"),
    "top-level-unknown-key": (["mesh", "--network", "top_bc.json"],
                              "top level: unknown key 'boundary_condition'"),
    "bool-aperture": (["mesh", "--network", "aperture_bool.json"],
                      "fractures[0].aperture: True is a boolean, not a number"),
    "bool-k-tangential": (["mesh", "--network", "k_bool.json"],
                          "fractures[0].k_tangential: [True, 0, 1]"),
    "bool-vertex": (["mesh", "--network", "vertex_bool.json"],
                    "fractures[0].vertices: "),
    "intersection-bool-k-hat": (["mesh", "--network", "isec_k_hat_bool.json"],
                                "intersections[0].k_hat: True"),
    "intersection-bool-k-tilde": (
        ["mesh", "--network", "isec_k_tilde_bool.json"],
        "intersections[0].k_tilde: False"),
    "bc-bool-value": (["solve", "--network", "bc_value_bool.json"],
                      "boundary_conditions[0].value: True"),
    "bc-bool-box": (["solve", "--network", "bc_box_bool.json"],
                    "boundary_conditions[0].box: "),
    "intersection-condition-bool-value": (
        ["solve", "--network", "ic_value_bool.json"],
        "intersection_conditions[0].value: True"),
    "h-with-case": (["solve", "--case", "single", "--family", "cartesian",
                     "--h", "0.2"], "--h"),
    "c-depth-with-solve-case": (["solve", "--case", "single", "--family",
                                 "cartesian", "--c-depth", "2"], "--c-depth"),
    "eps-str-with-mesh-case": (["mesh", "--case", "single", "--family",
                                "cartesian", "--eps-str", "0.3"],
                               "--eps-str"),
    "c-depth-with-convergence-case": (["convergence", "--case", "single",
                                       "--family", "cartesian", "--levels",
                                       "1", "--c-depth", "1"], "--c-depth"),
    "c-depth-negative-coarsen": (["coarsen", "--case", "single", "--family",
                                  "cartesian", "--c-depth", "-1"],
                                 "--c-depth must be"),
    "c-depth-0-coarsen": (["coarsen", "--case", "two-fractures", "--level",
                           "1", "--c-depth", "0"],
                          "--c-depth must be an integer >= 1, got 0"),
    "case-and-network": (["solve", "--case", "single", "--network",
                          "net.json"], "--network"),
    "level-with-convergence": (["convergence", "--case", "single", "--family",
                                "cartesian", "--level", "3", "--levels", "1"],
                               "--level must be left out of convergence"),
    "level-with-network": (["solve", "--network", "net.json", "--level", "2"],
                           "--level must be left out of solve --network"),
    "family-with-network": (["mesh", "--network", "net.json", "--family",
                             "random"],
                            "--family must be left out of mesh --network"),
}


@pytest.mark.parametrize("argv, names", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_is_config_error(tmp_path, capsys, argv, names):
    for name, text in _bad_inputs().items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    rc = run_cli(argv + ["--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "[ConfigError]" in err and names in err


def _count_calls(monkeypatch, targets):
    """Replace each ``(module, attr)`` by a spy; returns the call counts."""
    counts = {}
    for module, attr in targets:
        real = getattr(module, attr)
        key = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        counts[key] = 0

        def spy(*args, _real=real, _key=key, **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, spy)
    return counts


class TestSharedPaths:
    @pytest.mark.parametrize("source", ["case", "network"])
    def test_solve_calls_each_stage_through_its_module(self, tmp_path,
                                                       monkeypatch, source):
        # Benchmark tracing wraps these module attributes: a caller that
        # bound one of them at import would bypass the wrapper.
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        counts = _count_calls(monkeypatch, [
            (asm, "prepare_problem"), (asm, "build_dof_map"),
            (asm, "assemble_cc"), (asm, "assemble_dc"),
            (slv, "solve"), (asm, "extract_solution"),
            (msh, "triangulate_fracture"), (msh, "triangulate_network"),
        ])
        inputs = (["--case", "two-fractures", "--level", "1"]
                  if source == "case" else ["--network", net_path, "--h", "0.3"])
        rc = run_cli(["solve", *inputs, "--model", "cc", "--out", tmp_path / "o"])
        assert rc == 0
        # A case meshes fracture by fracture, a network file in one pass.
        assert counts == {
            "assembly.prepare_problem": 1, "assembly.build_dof_map": 1,
            "assembly.assemble_cc": 1, "assembly.assemble_dc": 0,
            "solver.solve": 1, "assembly.extract_solution": 1,
            "meshing.triangulate_fracture": 2 if source == "case" else 0,
            "meshing.triangulate_network": 0 if source == "case" else 1,
        }

    def test_network_solve_honours_eps_str(self, tmp_path, monkeypatch):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        seen = []
        real = coa.agglomerate

        def spy(mesh, **kw):
            seen.append((kw["c_depth"], kw["eps_str"]))
            return real(mesh, **kw)

        monkeypatch.setattr(coa, "agglomerate", spy)
        rc = run_cli(["solve", "--network", net_path, "--h", "0.3",
                      "--c-depth", "2", "--eps-str", "0.4",
                      "--out", tmp_path / "o"])
        assert rc == 0
        assert seen == [(2, 0.4)] * 12

    def test_coarsen_case_honours_c_depth_and_eps_str(self, tmp_path,
                                                      monkeypatch):
        seen = []
        real = coa.agglomerate

        def spy(mesh, **kw):
            seen.append((kw["c_depth"], kw["eps_str"]))
            return real(mesh, **kw)

        monkeypatch.setattr(coa, "agglomerate", spy)
        rc = run_cli(["coarsen", "--case", "single", "--family", "cartesian",
                      "--c-depth", "2", "--eps-str", "0.4",
                      "--out", tmp_path])
        assert rc == 0
        assert seen == [(2, 0.4)]

    @pytest.mark.parametrize("case, family, level", [
        ("single", "random", 2), ("two-fractures", "coarse2", 1)])
    def test_one_kernel_call_per_cell_group(self, tmp_path, monkeypatch,
                                            case, family, level):
        # Assembly calls the local kernel once per cell bucket of the
        # network (``meshing._bucket_width``), through the module attribute
        # the benchmark traces, and extraction never calls it.
        counts = _count_calls(monkeypatch, [(vem, "local_matrices_2d")])
        seen = {}
        real = asm.extract_solution

        def spy(system, x):
            seen["assembly"] = counts["vem.local_matrices_2d"]
            out = real(system, x)
            seen["extraction"] = (counts["vem.local_matrices_2d"]
                                  - seen["assembly"])
            meshes = system.problem.meshes.values()
            seen["groups"] = sum(len(set(np.diff(mesh.cell_ptr)))
                                 for mesh in meshes)
            seen["buckets"] = len({msh._bucket_width(int(d)) for mesh in meshes
                                   for d in np.diff(mesh.cell_ptr)})
            seen["fractures"] = len(system.problem.meshes)
            return out

        monkeypatch.setattr(asm, "extract_solution", spy)
        rc = run_cli(["solve", "--case", case, "--family", family,
                      "--level", level, "--out", tmp_path])
        assert rc == 0
        assert seen["assembly"] == seen["buckets"]
        assert seen["extraction"] == 0
        if family == "coarse2":   # mixed edge counts: several groups each
            assert seen["groups"] > 2 * seen["fractures"]
            assert seen["buckets"] < seen["groups"]

    def test_coarsen_defaults_to_one_sweep(self, tmp_path, monkeypatch):
        seen = []
        real = coa.agglomerate

        def spy(mesh, **kw):
            seen.append(kw["c_depth"])
            return real(mesh, **kw)

        monkeypatch.setattr(coa, "agglomerate", spy)
        rc = run_cli(["coarsen", "--case", "two-fractures", "--level", "1",
                      "--out", tmp_path])
        assert rc == 0
        assert seen == [1, 1]

    def test_coarsen_case_uses_family(self, tmp_path):
        rc = run_cli(["coarsen", "--case", "single", "--family", "cartesian",
                      "--level", "1", "--out", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["coarsen_stats"]["0"]["fine_cells"] == 100

    def test_coarsen_and_mesh_c_depth_agree(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        stats = {}
        for command in ("coarsen", "mesh"):
            out = tmp_path / command
            rc = run_cli([command, "--network", net_path, "--h", "0.3",
                          "--c-depth", "2", "--out", out])
            assert rc == 0
            stats[command] = json.loads((out / "summary.json").read_text())
        coarse = {fid: s["coarse_cells"]
                  for fid, s in stats["coarsen"]["coarsen_stats"].items()}
        meshed = {fid: s["n_cells"]
                  for fid, s in stats["mesh"]["mesh_stats"].items()}
        assert coarse == meshed
        assert all(s["coarse_cells"] < s["fine_cells"]
                   for s in stats["coarsen"]["coarsen_stats"].values())


def threads_ignored(value) -> dict:
    """The summary's entry for an ignored ``--threads value``."""
    return {"class": "IgnoredInputWarning",
            "message": f"--threads {value}: ignored; every stage runs on "
                       "one thread"}


def run_recording(args) -> list:
    """Run the CLI, which must succeed, and return the warnings it showed
    as the summary lists them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(args) == 0
    return [{"class": w.category.__name__, "message": str(w.message)}
            for w in caught]


class TestThreads:
    def test_threaded_matches_serial(self, tmp_path):
        # A value other than 1 is ignored, with a warning that names the
        # flag and is listed in the summary; 1 is silent.
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        outs, warned = [], []
        for threads in ("1", "3"):
            out = tmp_path / f"out{threads}"
            caught = run_recording(["solve", "--network", net_path, "--h",
                                    "0.25", "--threads", threads, "--out", out])
            summary = json.loads((out / "summary.json").read_text())
            outs.append(summary["flux_balance"]["boundary_outflow"])
            assert summary["warnings"] == caught
            warned.append(caught)
        assert outs[0] == outs[1]
        assert warned == [[], [threads_ignored(3)]]
